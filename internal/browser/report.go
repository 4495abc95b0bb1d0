package browser

import (
	"fmt"
	"io"
	"sort"
	"time"

	"grca/internal/engine"
	"grca/internal/netstate"
	"grca/internal/obs"
	"grca/internal/store"
)

// ReportOptions configures WriteReport.
type ReportOptions struct {
	Title string
	// Display maps engine labels to table row names (per application).
	Display func(string) string
	// TrendBin is the trend bucket width (default 24h).
	TrendBin time.Duration
	// View, when set, adds drill-downs into the top unexplained symptoms.
	View *netstate.View
	// Metrics, when set, appends a pipeline-health section with the
	// registry's counters and latency percentiles (typically obs.Default()).
	Metrics *obs.Registry
}

// A report drills down into its reportDrillTop longest unexplained
// symptoms, at DrillWindow and DrillLevel.
const reportDrillTop = 3

// WriteReport renders a complete SQM report for a diagnosed symptom
// population: summary, root-cause breakdown, symptom trend, and
// drill-downs into the top unexplained events — the §II's "processing and
// extracting actionable information from a large number of service
// impacting events in the aggregate", on paper.
func WriteReport(w io.Writer, st store.Store, ds []engine.Diagnosis, opts ReportOptions) error {
	if len(ds) == 0 {
		_, err := fmt.Fprintln(w, "no symptoms to report")
		return err
	}
	if opts.TrendBin <= 0 {
		opts.TrendBin = 24 * time.Hour
	}

	first, last := ds[0].Symptom.Start, ds[0].Symptom.End
	var total time.Duration
	for _, d := range ds {
		if d.Symptom.Start.Before(first) {
			first = d.Symptom.Start
		}
		if d.Symptom.End.After(last) {
			last = d.Symptom.End
		}
		total += d.Elapsed
	}
	title := opts.Title
	if title == "" {
		title = "G-RCA service quality report"
	}
	fmt.Fprintf(w, "%s\n%s\n\n", title, repeat('=', len(title)))
	fmt.Fprintf(w, "window:    %s — %s\n", first.Format(time.DateTime), last.Format(time.DateTime))
	fmt.Fprintf(w, "symptoms:  %d (%s)\n", len(ds), ds[0].Symptom.Name)
	if total > 0 {
		fmt.Fprintf(w, "diagnosis: %v total, %v/event\n", total.Round(time.Millisecond),
			(total / time.Duration(len(ds))).Round(time.Microsecond))
	}
	fmt.Fprintln(w)

	if err := WriteTable(w, "Root cause breakdown", Breakdown(ds, opts.Display)); err != nil {
		return err
	}

	// Trend of the symptom population.
	fmt.Fprintf(w, "\nSymptom trend (per %v):\n", opts.TrendBin)
	bins := int(last.Sub(first)/opts.TrendBin) + 1
	points := make([]TrendPoint, bins)
	for i := range points {
		points[i].Start = first.Add(time.Duration(i) * opts.TrendBin)
	}
	for _, d := range ds {
		i := int(d.Symptom.Start.Sub(first) / opts.TrendBin)
		if i >= 0 && i < bins {
			points[i].Count++
		}
	}
	peak := 1
	for _, p := range points {
		if p.Count > peak {
			peak = p.Count
		}
	}
	for _, p := range points {
		bar := int(40 * p.Count / peak)
		fmt.Fprintf(w, "  %s  %4d  %s\n", p.Start.Format("2006-01-02 15:04"), p.Count, repeat('#', bar))
	}

	// Drill-downs into the largest unexplained events.
	if opts.View != nil {
		unexplained := Filter(ds, Unexplained())
		sort.SliceStable(unexplained, func(i, j int) bool {
			return unexplained[i].Symptom.Duration() > unexplained[j].Symptom.Duration()
		})
		if len(unexplained) > 0 {
			fmt.Fprintf(w, "\nUnexplained symptoms: %d (%.1f%%); drill-downs:\n",
				len(unexplained), 100*float64(len(unexplained))/float64(len(ds)))
		}
		for i, d := range unexplained {
			if i >= reportDrillTop {
				break
			}
			fmt.Fprintf(w, "  %s\n", d.Symptom)
			related, err := DrillDown(st, opts.View, d.Symptom, DrillWindow, DrillLevel)
			if err != nil {
				fmt.Fprintf(w, "    (drill-down unavailable: %v)\n", err)
				continue
			}
			if len(related) == 0 {
				fmt.Fprintf(w, "    nothing co-located within %v\n", DrillWindow)
			}
			for j, in := range related {
				if j >= 5 {
					fmt.Fprintf(w, "    ... and %d more\n", len(related)-5)
					break
				}
				fmt.Fprintf(w, "    saw %s\n", in)
			}
		}
	}

	// Pipeline health: what the platform did to produce the report above.
	if opts.Metrics != nil {
		fmt.Fprintf(w, "\nPipeline health\n%s\n", repeat('-', len("Pipeline health")))
		if err := obs.WriteText(w, opts.Metrics.Snapshot()); err != nil {
			return err
		}
	}
	return nil
}

func repeat(c byte, n int) string {
	if n < 0 {
		n = 0
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}
