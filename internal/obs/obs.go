// Package obs is the self-monitoring substrate of the G-RCA pipeline. The
// paper's operational claims — §III-A.2's <5 s/event BGP diagnosis
// latency, §III-B.2's route-computation-dominated CDN latency, a Data
// Collector normalizing hundreds of heterogeneous feeds in real time —
// are all statements about pipeline health, and an industrial RCA system
// must watch its own ingestion and inference stages to make them.
//
// The package provides a metrics registry (atomic counters, gauges, and
// fixed-bucket histograms with percentile snapshots) plus a lightweight
// per-diagnosis trace recorder (trace.go). Everything is standard library
// only and cheap enough to leave on: the hot-path cost of a counter is one
// atomic add, of a histogram observation a binary search over ~20 bounds
// plus three atomic adds. SetEnabled(false) turns every mutation into a
// no-op so the instrumentation overhead itself can be benchmarked.
//
// Metrics live in a process-wide Default registry under dotted names
// ("engine.diagnose.seconds", "collector.malformed"); Publish exposes the
// registry as the expvar variable "grca", and ServeDebug (debug.go) serves
// expvar plus net/http/pprof on an opt-in address.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every metric mutation; see SetEnabled.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns the whole metrics layer on or off. Reads (snapshots)
// keep working while disabled; mutations become no-ops. The off switch
// exists so benchmarks can measure the instrumentation overhead.
//
//lint:ignore deadcode BenchmarkDiagnosisLatencyBGPObsOff prices the always-on metrics against this off switch
func SetEnabled(on bool) { enabled.Store(on) }

// ---------------------------------------------------------------------
// Counter and gauge
// ---------------------------------------------------------------------

// A Counter is a monotonically increasing atomic count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is an instantaneous atomic value (queue depth, window size).
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) {
	if enabled.Load() {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if enabled.Load() {
		g.v.Add(n)
	}
}

// SetMax raises the gauge to n if n exceeds the current value (a
// high-water mark).
func (g *Gauge) SetMax(n int64) {
	if !enabled.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

// LatencyBuckets are the default histogram bounds for durations in
// seconds: 1–2.5–5 steps per decade from 1 µs to 10 s, bracketing every
// latency the paper quotes (µs-scale in-memory joins up to the <5 s/event
// and <3 min/event diagnosis bounds).
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// SizeBuckets are the default bounds for counts (query result sizes,
// queue depths).
var SizeBuckets = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// A Histogram accumulates float64 observations into fixed buckets. The
// i-th bucket counts observations ≤ Bounds[i]; one extra overflow bucket
// counts the rest. All mutation is lock-free.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64 // float64 bits, starts +Inf
	maxBits atomic.Uint64 // float64 bits, starts -Inf
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
	updateFloat(&h.minBits, v, func(cur float64) bool { return v < cur })
	updateFloat(&h.maxBits, v, func(cur float64) bool { return v > cur })
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// updateFloat CAS-updates a float64-bits cell when better(current) holds;
// the ±Inf initial values lose to any real observation.
func updateFloat(bits *atomic.Uint64, v float64, better func(cur float64) bool) {
	for {
		old := bits.Load()
		if !better(math.Float64frombits(old)) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Bucket is one histogram bucket in a snapshot. Upper is the inclusive
// upper bound; the overflow bucket has Upper = +Inf.
type Bucket struct {
	Upper float64 `json:"upper"`
	Count int64   `json:"count"`
}

// MarshalJSON renders the overflow bucket's +Inf bound as the string
// "+Inf": encoding/json rejects infinite floats, which would otherwise
// abort every snapshot export once a single sample lands past the last
// bound.
func (b Bucket) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.Upper, 1) {
		return []byte(fmt.Sprintf(`{"upper":"+Inf","count":%d}`, b.Count)), nil
	}
	return []byte(fmt.Sprintf(`{"upper":%g,"count":%d}`, b.Upper, b.Count)), nil
}

// UnmarshalJSON is the inverse of MarshalJSON, accepting either a float
// bound or the string "+Inf" — the round-trip a remote stats client
// (`grca stats -addr`) performs on a snapshot fetched over HTTP.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var wire struct {
		Upper any   `json:"upper"`
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	b.Count = wire.Count
	switch v := wire.Upper.(type) {
	case float64:
		b.Upper = v
	case string:
		if v != "+Inf" {
			return fmt.Errorf("obs: bucket bound %q is neither a number nor +Inf", v)
		}
		b.Upper = math.Inf(1)
	default:
		return fmt.Errorf("obs: bucket bound %T is neither a number nor +Inf", wire.Upper)
	}
	return nil
}

// HistogramSnapshot is a consistent-enough copy of a histogram: counts
// are read without a global lock, so a snapshot taken mid-observation may
// be off by the in-flight sample; percentiles are estimated by linear
// interpolation within the owning bucket and clamped to [Min, Max].
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns Sum/Count (0 for an empty histogram).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Snapshot captures the histogram's current state with percentile
// estimates.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sumBits.Load()),
	}
	if s.Count == 0 {
		return s
	}
	s.Min = math.Float64frombits(h.minBits.Load())
	s.Max = math.Float64frombits(h.maxBits.Load())
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s.Buckets = make([]Bucket, 0, len(counts))
	for i, c := range counts {
		upper := math.Inf(1)
		if i < len(h.bounds) {
			upper = h.bounds[i]
		}
		if c > 0 {
			s.Buckets = append(s.Buckets, Bucket{Upper: upper, Count: c})
		}
	}
	s.P50 = h.quantile(counts, total, 0.50, s.Min, s.Max)
	s.P95 = h.quantile(counts, total, 0.95, s.Min, s.Max)
	s.P99 = h.quantile(counts, total, 0.99, s.Min, s.Max)
	return s
}

// quantile estimates the q-quantile from bucket counts: walk to the
// bucket containing the q·total-th observation and interpolate linearly
// across it.
func (h *Histogram) quantile(counts []int64, total int64, q, min, max float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		lower := min
		if i > 0 {
			lower = math.Max(min, h.bounds[i-1])
		}
		upper := max
		if i < len(h.bounds) {
			upper = math.Min(max, h.bounds[i])
		}
		if upper < lower {
			upper = lower
		}
		frac := (rank - float64(prev)) / float64(c)
		return lower + (upper-lower)*frac
	}
	return max
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

// A Registry holds named metrics. Lookup is get-or-create, so callers
// keep package-level metric variables without registration ceremony.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry. Most code uses Default.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the pipeline instruments.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later bounds are ignored — first creation wins).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// GetCounter/GetGauge/GetHistogram are the package-level shorthands over
// Default used by the instrumented packages.

// GetCounter returns the named counter from the default registry.
func GetCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// GetGauge returns the named gauge from the default registry.
func GetGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// GetHistogram returns the named histogram from the default registry.
func GetHistogram(name string, bounds []float64) *Histogram {
	return defaultRegistry.Histogram(name, bounds)
}

// Snapshot is a point-in-time copy of a whole registry, ready for JSON
// (the expvar export) or text rendering.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric in the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

var publishOnce sync.Once

// Publish exposes the default registry as the expvar variable "grca"
// (visible at /debug/vars alongside the runtime's memstats). Safe to call
// repeatedly; only the first call registers.
func Publish() {
	publishOnce.Do(func() {
		expvar.Publish("grca", expvar.Func(func() any {
			return defaultRegistry.Snapshot()
		}))
	})
}

// WriteText renders a snapshot as the aligned text block used by
// `grca stats` and the SQM report's pipeline-health section. Histograms
// whose name ends in ".seconds" are printed as durations.
func WriteText(w io.Writer, s Snapshot) error {
	names := func(m map[string]int64) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	if len(s.Counters) > 0 {
		if _, err := fmt.Fprintf(w, "counters:\n"); err != nil {
			return err
		}
		for _, n := range names(s.Counters) {
			fmt.Fprintf(w, "  %-44s %12d\n", n, s.Counters[n])
		}
	}
	if ratios := CacheRatios(s); len(ratios) > 0 {
		fmt.Fprintf(w, "cache hit ratios:\n")
		for _, r := range ratios {
			fmt.Fprintf(w, "  %-44s %11.1f%%  (%d/%d)\n",
				r.Name, 100*r.Ratio, r.Hits, r.Hits+r.Misses)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(w, "gauges:\n")
		for _, n := range names(s.Gauges) {
			fmt.Fprintf(w, "  %-44s %12d\n", n, s.Gauges[n])
		}
	}
	if len(s.Histograms) > 0 {
		hnames := make([]string, 0, len(s.Histograms))
		for k := range s.Histograms {
			hnames = append(hnames, k)
		}
		sort.Strings(hnames)
		fmt.Fprintf(w, "histograms:%34s %10s %10s %10s %10s %10s\n",
			"count", "mean", "p50", "p95", "p99", "max")
		for _, n := range hnames {
			h := s.Histograms[n]
			fv := func(v float64) string {
				if strings.HasSuffix(n, ".seconds") {
					return formatSeconds(v)
				}
				return fmt.Sprintf("%.4g", v)
			}
			fmt.Fprintf(w, "  %-42s %8d %10s %10s %10s %10s %10s\n",
				n, h.Count, fv(h.Mean()), fv(h.P50), fv(h.P95), fv(h.P99), fv(h.Max))
		}
	}
	return nil
}

// CacheRatio is one derived cache effectiveness figure: Name is the
// counter prefix (e.g. "netstate.expand.cache"), Ratio is hits/(hits+misses).
type CacheRatio struct {
	Name         string
	Hits, Misses int64
	Ratio        float64
}

// CacheRatios derives hit ratios from every counter pair named
// "<layer>.cache.hits" / "<layer>.cache.misses" in the snapshot, sorted by
// name. Pairs that never fired are omitted.
func CacheRatios(s Snapshot) []CacheRatio {
	var out []CacheRatio
	for name, hits := range s.Counters {
		base, found := strings.CutSuffix(name, ".hits")
		if !found || !strings.HasSuffix(base, ".cache") {
			continue
		}
		misses, ok := s.Counters[base+".misses"]
		if !ok || hits+misses == 0 {
			continue
		}
		out = append(out, CacheRatio{
			Name: base, Hits: hits, Misses: misses,
			Ratio: float64(hits) / float64(hits+misses),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// formatSeconds renders a seconds value as a rounded time.Duration.
func formatSeconds(v float64) string {
	d := time.Duration(v * float64(time.Second))
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}
