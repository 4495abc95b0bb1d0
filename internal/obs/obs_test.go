package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if same := r.Counter("x"); same != c {
		t.Error("lookup did not return the same counter")
	}
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("depth")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %d, want 3", got)
	}
	g.SetMax(10)
	g.SetMax(7) // lower: must not move
	if got := g.Value(); got != 10 {
		t.Errorf("high-water = %d, want 10", got)
	}
}

// TestHistogramBuckets pins the bucket assignment rule: bucket i counts
// observations ≤ Bounds[i]; the overflow bucket catches the rest.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.0001, 10, 99, 100, 1e9} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 1} // (≤1)×2, (≤10)×2, (≤100)×2, overflow×1
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if s.Min != 0.5 || s.Max != 1e9 {
		t.Errorf("min/max = %v/%v, want 0.5/1e9", s.Min, s.Max)
	}
}

// TestHistogramZeroObservation: a genuine 0 must register as the minimum,
// not be mistaken for an uninitialized cell.
func TestHistogramZeroObservation(t *testing.T) {
	h := newHistogram(SizeBuckets)
	h.Observe(0)
	h.Observe(5)
	s := h.Snapshot()
	if s.Min != 0 || s.Max != 5 {
		t.Errorf("min/max = %v/%v, want 0/5", s.Min, s.Max)
	}
}

// TestHistogramPercentiles checks the interpolated quantiles on a uniform
// fill: 1..1000 observed into decade buckets must put p50 near 500 and
// p99 near 990, and every estimate must stay within the observed range.
func TestHistogramPercentiles(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100, 1000, 10000})
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	within := func(name string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %v, want within [%v, %v]", name, got, lo, hi)
		}
	}
	// 890 of 1000 samples land in the (100, 1000] bucket; interpolation
	// is linear within it, so the estimates are coarse but ordered.
	within("p50", s.P50, 100, 600)
	within("p95", s.P95, 800, 1000)
	within("p99", s.P99, 900, 1000)
	if !(s.P50 <= s.P95 && s.P95 <= s.P99) {
		t.Errorf("percentiles not monotone: %v %v %v", s.P50, s.P95, s.P99)
	}
	if s.P99 > s.Max || s.P50 < s.Min {
		t.Error("percentiles escaped the observed range")
	}
	if want := 1000 * 1001 / 2; math.Abs(s.Sum-float64(want)) > 1e-6 {
		t.Errorf("sum = %v, want %d", s.Sum, want)
	}
}

// TestHistogramConcurrent exercises the lock-free mutation paths under
// -race: total count and sum must be exact, min/max must bracket.
func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per+i+1) * 1e-6)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("count = %d, want %d", s.Count, workers*per)
	}
	n := float64(workers * per)
	if want := n * (n + 1) / 2 * 1e-6; math.Abs(s.Sum-want) > want*1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, want)
	}
	if s.Min != 1e-6 || math.Abs(s.Max-n*1e-6) > 1e-12 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestEmptyHistogramSnapshot(t *testing.T) {
	s := newHistogram(LatencyBuckets).Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.P99 != 0 || s.Min != 0 || s.Max != 0 {
		t.Errorf("empty snapshot not zero: %+v", s)
	}
}

func TestSetEnabled(t *testing.T) {
	r := NewRegistry()
	c, h, g := r.Counter("c"), r.Histogram("h", LatencyBuckets), r.Gauge("g")
	SetEnabled(false)
	c.Inc()
	h.Observe(1)
	g.Set(9)
	SetEnabled(true)
	if c.Value() != 0 || h.Snapshot().Count != 0 || g.Value() != 0 {
		t.Error("disabled metrics still recorded")
	}
	c.Inc()
	if c.Value() != 1 {
		t.Error("re-enabled counter did not record")
	}
}

func TestRegistrySnapshotAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("collector.lines").Add(42)
	r.Gauge("realtime.pending").Set(3)
	r.Histogram("engine.diagnose.seconds", LatencyBuckets).ObserveDuration(3 * time.Millisecond)
	s := r.Snapshot()
	if s.Counters["collector.lines"] != 42 || s.Gauges["realtime.pending"] != 3 {
		t.Errorf("snapshot scalars wrong: %+v", s)
	}
	if s.Histograms["engine.diagnose.seconds"].Count != 1 {
		t.Errorf("snapshot histogram wrong: %+v", s.Histograms)
	}
	var b strings.Builder
	if err := WriteText(&b, s); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"collector.lines", "42", "realtime.pending", "engine.diagnose.seconds", "3ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestCacheRatios(t *testing.T) {
	r := NewRegistry()
	r.Counter("netstate.expand.cache.hits").Add(30)
	r.Counter("netstate.expand.cache.misses").Add(10)
	r.Counter("ospf.spf.cache.hits").Add(0)
	r.Counter("ospf.spf.cache.misses").Add(5)
	r.Counter("bgp.bestpath.cache.hits").Add(7) // no .misses pair: skipped
	r.Counter("collector.lines.hits").Add(3)    // not a .cache counter: skipped
	r.Counter("idle.cache.hits").Add(0)         // never fired: skipped
	r.Counter("idle.cache.misses").Add(0)
	got := CacheRatios(r.Snapshot())
	want := []CacheRatio{
		{Name: "netstate.expand.cache", Hits: 30, Misses: 10, Ratio: 0.75},
		{Name: "ospf.spf.cache", Hits: 0, Misses: 5, Ratio: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("CacheRatios = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ratio %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	var b strings.Builder
	if err := WriteText(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "cache hit ratios:") || !strings.Contains(out, "75.0%") {
		t.Errorf("text output missing cache ratio section:\n%s", out)
	}
}

// TestBucketJSONRoundTrip: a registry snapshot whose histogram overflowed
// its last bound survives the JSON round trip `grca stats -addr` makes of
// /v1/stats — the +Inf bucket included — and a string bound other than
// "+Inf" is refused.
func TestBucketJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("store.queries").Add(4)
	r.Gauge("realtime.pending").Set(2)
	h := r.Histogram("store.query.results", []float64{1, 10})
	for _, v := range []float64{0.5, 7, 7, 1e6} {
		h.Observe(v)
	}
	want := r.Snapshot()
	buckets := want.Histograms["store.query.results"].Buckets
	if n := len(buckets); n != 3 || !math.IsInf(buckets[n-1].Upper, 1) {
		t.Fatalf("the snapshot's buckets are %+v, want three ending in the +Inf overflow", buckets)
	}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `{"upper":"+Inf","count":1}`) {
		t.Fatalf("the overflow bucket is not rendered with a +Inf string bound: %s", data)
	}
	var got Snapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the round trip reads %+v, want %+v", got, want)
	}
	for _, bad := range []string{`{"upper":"Inf","count":1}`, `{"upper":"-Inf","count":1}`, `{"upper":"1e3","count":1}`, `{"upper":true,"count":1}`} {
		var b Bucket
		if err := json.Unmarshal([]byte(bad), &b); err == nil {
			t.Errorf("%s decoded to %+v, want an error", bad, b)
		}
	}
}
