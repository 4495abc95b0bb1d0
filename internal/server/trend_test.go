package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"grca/internal/browser"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/obs"
	"grca/internal/platform"
	"grca/internal/rollup"
	"grca/internal/simnet"
	"grca/internal/store"
)

// trendServer serves the Result Browser's trends over st alone.
func trendServer(st *store.Memory) *Server {
	return &Server{
		cfg: Config{RequestTimeout: time.Minute}, st: st, roll: rollup.New(rollup.Config{}),
		hub: newSSEHub(), closing: make(chan struct{}),
	}
}

// trendQuery is the path of GET /v1/trend for name over [from, to].
func trendQuery(name string, from, to time.Time, bin time.Duration) string {
	return fmt.Sprintf("/v1/trend?name=%s&bin=%s&from=%s&to=%s", url.QueryEscape(name), bin,
		url.QueryEscape(from.Format(time.RFC3339Nano)), url.QueryEscape(to.Format(time.RFC3339Nano)))
}

// serve runs one GET through h and returns the body, failing on a status
// other than 200.
func serve(tb testing.TB, h http.Handler, path string) []byte {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// TestNameTrendMatchesRollup: a name trend counted from the store's start
// column serves the bytes the rollup's minute bins served — over random
// windows on and off the minute, bins from one minute to a day, an
// unsettled tail of out-of-order arrivals, retention eviction, and the
// first and last representable minutes. The rollup, fed by the store's
// append and evict hooks, is the oracle.
func TestNameTrendMatchesRollup(t *testing.T) {
	bins := []time.Duration{time.Minute, 2 * time.Minute, 7 * time.Minute, time.Hour, 24 * time.Hour}
	names := []string{"a", "b", "never stored"}
	type fixture struct {
		st   *store.Memory
		roll *rollup.Rollup
	}
	newFixture := func() fixture {
		f := fixture{store.New(), rollup.New(rollup.Config{})}
		f.st.OnAppend(f.roll.ObserveEvent)
		f.st.OnEvict(f.roll.EvictEvents)
		return f
	}
	// compare serves name over [from, to] and renders what the rollup
	// answered, the way the handler renders it.
	compare := func(t *testing.T, f fixture, name string, from, to time.Time, bin time.Duration) {
		t.Helper()
		got := serve(t, trendServer(f.st).Handler(), trendQuery(name, from, to, bin))
		from = from.Truncate(bin)
		points := f.roll.Trend(name, from, to, bin)
		if points == nil {
			points = []browser.TrendPoint{}
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, map[string]any{"bin": bin.String(), "from": from, "to": to, "name": name, "points": points})
		if want := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("%s from %v to %v bin %v:\n got %s\nwant %s", name, from, to, bin, got, want)
		}
	}
	t0 := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	const span = 72 * time.Hour
	loc := locus.At(locus.Router, "r")
	add := func(f fixture, rng *rand.Rand, n int, lo time.Time) {
		for i := 0; i < n; i++ {
			at := lo.Add(time.Duration(rng.Int63n(int64(span))))
			if rng.Intn(2) == 0 { // on a bin's edge, or the window's
				at = at.Truncate(time.Minute)
			}
			f.st.Add(event.Instance{Name: names[rng.Intn(2)], Start: at, End: at.Add(time.Duration(rng.Intn(600)) * time.Second), Loc: loc})
		}
	}
	window := func(rng *rand.Rand, lo time.Time) (time.Time, time.Time) {
		from := lo.Add(time.Duration(rng.Int63n(int64(span))) - 6*time.Hour)
		to := from.Add(time.Duration(rng.Int63n(int64(span))))
		if rng.Intn(2) == 0 { // on the minute
			from, to = from.Truncate(time.Minute), to.Truncate(time.Minute)
		}
		return from, to
	}

	t.Run("random windows over out-of-order arrivals", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		f := newFixture()
		for round := 0; round < 20; round++ {
			add(f, rng, 500, t0) // random order: every read meets an unsettled tail
			for _, bin := range bins {
				from, to := window(rng, t0)
				compare(t, f, names[rng.Intn(len(names))], from, to, bin)
			}
		}
	})

	t.Run("retention eviction", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		f := newFixture()
		f.st.SetRetention(span / 2)
		evicted := obs.GetCounter("store.evicted")
		before := evicted.Value()
		for round := 0; round < 12; round++ {
			lo := t0.Add(time.Duration(round) * span / 4)
			add(f, rng, 400, lo)
			for _, bin := range bins {
				from, to := window(rng, lo)
				compare(t, f, names[rng.Intn(len(names))], from, to, bin)
			}
		}
		if evicted.Value() == before {
			t.Fatal("retention evicted nothing")
		}
	})

	t.Run("at the edges", func(t *testing.T) {
		for _, edge := range []time.Time{event.MinTime, event.MaxTime} {
			f := newFixture()
			from := edge.Truncate(time.Minute)
			if edge == event.MaxTime {
				from = from.Add(-4 * time.Minute)
			}
			for i := 0; i < 20; i++ {
				at := from.Add(time.Duration(i*15+i%7) * time.Second)
				if at.Before(event.MinTime) || at.After(event.MaxTime) {
					at = edge
				}
				f.st.Add(event.Instance{Name: "a", Start: at, End: at})
			}
			to := from.Add(5*time.Minute - time.Nanosecond)
			for _, bin := range []time.Duration{time.Minute, 2 * time.Minute} {
				compare(t, f, "a", from, to, bin)
				compare(t, f, "a", from.Add(time.Minute), to.Add(-time.Minute), bin)
			}
		}
	})
}

// TestNameTrendMaterializesNothing: a name trend reads the start column
// alone. It makes no store query, and what it allocates follows the
// points it serves, not the events it counts.
func TestNameTrendMaterializesNothing(t *testing.T) {
	t0 := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	results := obs.GetHistogram("store.query.results", obs.SizeBuckets)
	allocs := func(events int, bin time.Duration) float64 {
		st := store.New()
		rng := rand.New(rand.NewSource(int64(events)))
		for i := 0; i < events; i++ {
			at := t0.Add(time.Duration(rng.Int63n(int64(48 * time.Hour))))
			st.Add(event.Instance{Name: "a", Start: at, End: at})
		}
		h := trendServer(st).Handler()
		path := trendQuery("a", t0, t0.Add(48*time.Hour-time.Minute), bin)
		before := results.Snapshot().Count
		serve(t, h, path) // settles the tail
		n := testing.AllocsPerRun(20, func() { serve(t, h, path) })
		if results.Snapshot().Count != before {
			t.Fatalf("a name trend over %d events queried the store", events)
		}
		return n
	}
	// 49k more events would be 49k more allocations were any counted
	// event materialized; the slack is the race detector's, whose
	// sync.Pool drops what it is given at random.
	small, large := allocs(1000, time.Hour), allocs(50000, time.Hour)
	if large > small+16 {
		t.Errorf("a 48-point trend allocates %.0f times over 1000 events and %.0f over 50000", small, large)
	}
	if fine := allocs(1000, time.Minute); fine > 2*48*60+100 {
		t.Errorf("a %d-point trend allocates %.0f times", 48*60, fine)
	}
}

// BenchmarkTrendName prices one GET /v1/trend?bin=1h&name=<root> through
// the handler over the store of the benchmark's diagnosis corpus (14 days,
// ~429k raw lines): the Result Browser's trend poll.
func BenchmarkTrendName(b *testing.B) {
	d, err := simnet.Generate(simnet.Config{
		Seed: 2010, PoPs: 12, PERsPerPoP: 6, SessionsPerPER: 10,
		Duration:         14 * 24 * time.Hour,
		BGPFlapIncidents: 1500, CDNIncidents: 600, PIMIncidents: 600,
	})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := platform.FromDataset(d, platform.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st := sys.Store.(*store.Memory)
	h := trendServer(st).Handler()
	path := "/v1/trend?bin=1h&name=" + url.QueryEscape(event.EBGPFlap)
	serve(b, h, path)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trendSink = serve(b, h, path)
	}
	b.ReportMetric(float64(st.Count(event.EBGPFlap)), "events")
}

var trendSink []byte
