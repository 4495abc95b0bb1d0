// Package browser implements the G-RCA Result Browser (paper Fig. 1 and
// §II-E): root-cause breakdown tables (the outputs of Tables IV, VI, and
// VIII), trending of symptoms and causes over time, filtering of symptoms
// by diagnosed root cause, manual drill-down into co-located events, and
// the statistical rule-mining loop that couples the RCA engine with the
// Correlation Tester (Fig. 7).
package browser

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/netstate"
	"grca/internal/nice"
	"grca/internal/store"
)

// Row is one line of a root-cause breakdown table.
type Row struct {
	Label   string  `json:"label"`
	Count   int     `json:"count"`
	Percent float64 `json:"percent"`
}

// Rows builds breakdown rows from per-label counts over total diagnoses,
// ordered by descending share then label. It is the single aggregation
// core shared by the batch Breakdown below and the serving rollups
// (internal/rollup), so the live /v1/breakdown endpoint and the CLI
// tables are byte-identical over the same counts by construction.
func Rows(counts map[string]int, total int) []Row {
	if total <= 0 {
		return nil
	}
	rows := make([]Row, 0, len(counts))
	for label, n := range counts {
		rows = append(rows, Row{Label: label, Count: n,
			Percent: 100 * float64(n) / float64(total)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Percent != rows[j].Percent {
			return rows[i].Percent > rows[j].Percent
		}
		return rows[i].Label < rows[j].Label
	})
	return rows
}

// CountPrimary tallies diagnoses by (display-mapped) primary cause — the
// counting half of Breakdown, reused wherever counts are merged from
// several sources before rendering.
func CountPrimary(ds []engine.Diagnosis, display func(string) string) map[string]int {
	if display == nil {
		display = func(s string) string { return s }
	}
	counts := map[string]int{}
	for _, d := range ds {
		counts[display(d.Primary())]++
	}
	return counts
}

// Breakdown aggregates diagnoses into table rows, applying an optional
// display-label mapping (each application maps engine labels to its
// paper-table row names). Rows are ordered by descending share.
func Breakdown(ds []engine.Diagnosis, display func(string) string) []Row {
	return Rows(CountPrimary(ds, display), len(ds))
}

// WriteTable renders rows in the paper's two-column table format.
func WriteTable(w io.Writer, title string, rows []Row) error {
	width := len("Root Cause")
	for _, r := range rows {
		if len(r.Label) > width {
			width = len(r.Label)
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n%-*s  %10s  %6s\n", title, width, "Root Cause", "Percentage", "Count"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", strings.Repeat("-", width+20)); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-*s  %9.2f%%  %6d\n", width, r.Label, r.Percent, r.Count); err != nil {
			return err
		}
	}
	return nil
}

// Filter returns the diagnoses satisfying pred — the §II-E workflow of
// taking out symptoms with known root causes to focus on the rest.
func Filter(ds []engine.Diagnosis, pred func(engine.Diagnosis) bool) []engine.Diagnosis {
	var out []engine.Diagnosis
	for _, d := range ds {
		if pred(d) {
			out = append(out, d)
		}
	}
	return out
}

// WithPrimary selects diagnoses whose primary cause is the given label.
func WithPrimary(label string) func(engine.Diagnosis) bool {
	return func(d engine.Diagnosis) bool { return d.Primary() == label }
}

// Unexplained selects diagnoses with no identified root cause.
func Unexplained() func(engine.Diagnosis) bool {
	return WithPrimary(engine.Unknown)
}

// TrendPoint is one bin of a trend series.
type TrendPoint struct {
	Start time.Time `json:"start"`
	Count int       `json:"count"`
}

// NewSeries allocates the bin grid for a trend over [from, to]: one point
// per bin of width bin, the last covering to. It is the series core
// shared by Trend, the serving rollups and the server's name trends, so every
// trend renderer agrees on bin count and bin starts by construction.
func NewSeries(from, to time.Time, bin time.Duration) []TrendPoint {
	if bin <= 0 || to.Before(from) {
		return nil
	}
	n := int(to.Sub(from)/bin) + 1
	points := make([]TrendPoint, n)
	for i := range points {
		points[i].Start = from.Add(time.Duration(i) * bin)
	}
	return points
}

// BinOf returns the series index of instant t on the grid starting at
// from, or -1 when t precedes from.
func BinOf(from, t time.Time, bin time.Duration) int {
	if t.Before(from) {
		return -1
	}
	return int(t.Sub(from) / bin)
}

// Trend counts event instances of name per bin over [from, to) — the
// trending view operators use to watch failure modes over time.
func Trend(st store.Store, name string, from, to time.Time, bin time.Duration) []TrendPoint {
	points := NewSeries(from, to, bin)
	if points == nil || !to.After(from) {
		return nil
	}
	for _, in := range st.Query(name, from, to) {
		if i := BinOf(from, in.Start, bin); i >= 0 && i < len(points) {
			points[i].Count++
		}
	}
	return points
}

// TrendDiagnoses counts diagnoses with the given primary label per bin.
//
//lint:ignore deadcode TestCauseTrendParity holds rollup's cause series equal to this batch count
func TrendDiagnoses(ds []engine.Diagnosis, label string, from time.Time, bin time.Duration, n int) []TrendPoint {
	points := make([]TrendPoint, n)
	for i := range points {
		points[i].Start = from.Add(time.Duration(i) * bin)
	}
	for _, d := range ds {
		if d.Primary() != label {
			continue
		}
		i := int(d.Symptom.Start.Sub(from) / bin)
		if i >= 0 && i < n {
			points[i].Count++
		}
	}
	return points
}

// DrillWindow and DrillLevel are the drill-down every Result Browser face
// looks with by default — GET /v1/drilldown without window= or level=,
// grca report's unexplained symptoms and the knowledge example — so one
// symptom lists the same co-located events in each: those within 15
// minutes either side, on the same router.
const (
	DrillWindow = 15 * time.Minute
	DrillLevel  = locus.Router
)

// DrillDown returns every stored event instance that is temporally within
// window of the symptom and spatially related to it at the given join
// level — the Result Browser's manual exploration view ("additional
// information such as syslog messages and workflow logs that appear on the
// same router or location as the event being analyzed", §IV-B).
func DrillDown(st store.Store, view *netstate.View, sym *event.Instance, window time.Duration, level locus.Type) ([]*event.Instance, error) {
	symLocs, err := view.Expand(sym.Loc, level, sym.Start)
	if err != nil {
		return nil, err
	}
	set := map[locus.Location]bool{}
	for _, l := range symLocs {
		set[l] = true
	}
	// Candidates repeat locations: decide each distinct location's
	// intersection with the symptom's footprint once per call (the
	// expansion itself is memoized by the view).
	related := map[locus.Location]bool{}
	var out []*event.Instance
	for _, name := range st.Names() {
		for _, in := range st.Query(name, sym.Start.Add(-window), sym.End.Add(window)) {
			if in.ID == sym.ID {
				continue
			}
			hit, seen := related[in.Loc]
			if !seen {
				// An unmodeled location is a miss: skip, don't abort exploration.
				locs, _ := view.Expand(in.Loc, level, sym.Start)
				for _, l := range locs {
					if set[l] {
						hit = true
						break
					}
				}
				related[in.Loc] = hit
			}
			if hit {
				out = append(out, in)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out, nil
}

// ---------------------------------------------------------------------
// Rule mining: the Fig. 7 loop between the RCA engine and the
// Correlation Tester.
// ---------------------------------------------------------------------

// MiningResult is one candidate series' correlation against the symptom
// series.
type MiningResult struct {
	Series string
	Result nice.Result
}

// Miner runs the correlation tester between a set of symptom instances and
// candidate diagnostic series drawn from the store.
type Miner struct {
	Store store.Store
}

const (
	// mineBin is the series bin width.
	mineBin = time.Minute
	// mineSmooth dilates both mined series by this many bins to absorb
	// causal lag.
	mineSmooth = 5
)

// CandidateSeries lists the store's event names matching any of the given
// prefixes — e.g. "syslog:" and "workflow:" for the generic signature
// series of §IV-B.
func (m Miner) CandidateSeries(prefixes ...string) []string {
	var out []string
	for _, name := range m.Store.Names() {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				out = append(out, name)
				break
			}
		}
	}
	return out
}

// Mine tests every candidate series against the symptom set over
// [from, to] and returns all results, most significant first. Candidates
// whose series are degenerate (no occurrences in the window) are skipped.
func (m Miner) Mine(symptoms []*event.Instance, candidates []string, from, to time.Time) ([]MiningResult, error) {
	n := int(to.Sub(from)/mineBin) + 1
	if n < 8 {
		return nil, fmt.Errorf("browser: mining window too short")
	}
	symSeries := nice.FromInstances(symptoms, from, mineBin, n).Smooth(mineSmooth)

	var out []MiningResult
	for _, cand := range candidates {
		ins := m.Store.Query(cand, from, to)
		if len(ins) == 0 {
			continue
		}
		candSeries := nice.FromInstances(ins, from, mineBin, n).Smooth(mineSmooth)
		res, err := nice.Tester{}.Test(symSeries, candSeries)
		if err != nil {
			continue // degenerate series: not a usable candidate
		}
		out = append(out, MiningResult{Series: cand, Result: res})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Result.Score > out[j].Result.Score })
	return out, nil
}

// Significant filters mining results to the significant ones.
func Significant(rs []MiningResult) []MiningResult {
	var out []MiningResult
	for _, r := range rs {
		if r.Result.Significant {
			out = append(out, r)
		}
	}
	return out
}
