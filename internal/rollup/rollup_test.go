package rollup

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"grca/internal/browser"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/store"
)

var t0 = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

// diag fabricates a diagnosis of a stored symptom with the given primary
// label ("" = Unknown).
func diag(sym *event.Instance, label string) engine.Diagnosis {
	d := engine.Diagnosis{Symptom: sym}
	if label != "" {
		d.Causes = []engine.Cause{{Event: label}}
	}
	return d
}

// fill stores n instances of name spaced by step and returns them.
func fill(st store.Store, name string, n int, start time.Time, step time.Duration) []*event.Instance {
	out := make([]*event.Instance, 0, n)
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(i) * step)
		out = append(out, st.Add(event.Instance{Name: name, Start: at, End: at.Add(time.Second)}))
	}
	return out
}

// TestBreakdownMatchesBatch: counting a diagnosis per live symptom makes
// BreakdownCounts byte-identical (through browser.Rows) to the batch
// browser.Breakdown over the same diagnoses.
func TestBreakdownMatchesBatch(t *testing.T) {
	st := store.New()
	r := New(Config{})
	st.OnAppend(r.ObserveEvent)
	syms := fill(st, "sym", 9, t0, time.Minute)

	labels := []string{"link down", "link down", "maintenance", "", "link down", "maintenance", "", "card failure", "link down"}
	var ds []engine.Diagnosis
	for i, sym := range syms {
		d := diag(sym, labels[i])
		ds = append(ds, d)
		r.AddDiagnosis("app", d)
	}

	counts, total := r.BreakdownCounts("app", time.Time{}, nil)
	got, _ := json.Marshal(browser.Rows(counts, total))
	want, _ := json.Marshal(browser.Breakdown(ds, nil))
	if !bytes.Equal(got, want) {
		t.Fatalf("rollup breakdown %s\n!= batch %s", got, want)
	}
	if n := len(r.apps["app"].counted); n != len(syms) {
		t.Errorf("counted = %d, want %d", n, len(syms))
	}
}

// TestRecountReplacesLabel: re-counting the same symptom under a new
// label (the seed-then-drain overlap) replaces, never double-counts.
func TestRecountReplacesLabel(t *testing.T) {
	st := store.New()
	r := New(Config{})
	sym := st.Add(event.Instance{Name: "sym", Start: t0, End: t0.Add(time.Second)})

	r.AddDiagnosis("app", diag(sym, ""))
	r.AddDiagnosis("app", diag(sym, "link down"))
	counts, total := r.BreakdownCounts("app", time.Time{}, nil)
	if total != 1 {
		t.Fatalf("total = %d after recount, want 1", total)
	}
	if counts["link down"] != 1 || counts[engine.Unknown] != 0 {
		t.Fatalf("counts after recount = %v", counts)
	}
}

// TestExtraMerge: pending diagnoses merge into the breakdown exactly
// once — already-counted symptom IDs and pre-window symptoms are skipped.
func TestExtraMerge(t *testing.T) {
	st := store.New()
	r := New(Config{})
	syms := fill(st, "sym", 3, t0, time.Hour)
	r.AddDiagnosis("app", diag(syms[0], "link down"))

	extra := []engine.Diagnosis{
		diag(syms[0], "maintenance"), // already counted: must be skipped
		diag(syms[1], "maintenance"),
		diag(syms[2], "link down"),
	}
	counts, total := r.BreakdownCounts("app", time.Time{}, extra)
	if total != 3 || counts["link down"] != 2 || counts["maintenance"] != 1 {
		t.Fatalf("merged counts = %v (total %d)", counts, total)
	}

	// Windowed: only syms[1:] are inside; the counted syms[0] and the
	// duplicate extra both fall away.
	counts, total = r.BreakdownCounts("app", t0.Add(time.Hour), extra)
	if total != 2 || counts["maintenance"] != 1 || counts["link down"] != 1 {
		t.Fatalf("windowed counts = %v (total %d)", counts, total)
	}
}

// TestEvictionReversesCounting: retention eviction through the store
// hooks removes evicted instances from both the event bins and the
// breakdown, as if they had never been counted.
func TestEvictionReversesCounting(t *testing.T) {
	st := store.New()
	r := New(Config{})
	st.OnAppend(r.ObserveEvent)
	st.OnEvict(r.EvictEvents)
	syms := fill(st, "sym", 6, t0, time.Hour)
	for i, sym := range syms {
		label := "link down"
		if i%2 == 1 {
			label = "maintenance"
		}
		r.AddDiagnosis("app", diag(sym, label))
	}

	cutoff := t0.Add(3 * time.Hour) // evicts syms[0..2]
	if n := st.EvictBefore(cutoff); n != 3 {
		t.Fatalf("evicted %d, want 3", n)
	}
	counts, total := r.BreakdownCounts("app", time.Time{}, nil)
	if total != 3 || counts["link down"] != 1 || counts["maintenance"] != 2 {
		t.Fatalf("post-eviction counts = %v (total %d)", counts, total)
	}

	// The trend must now equal a from-scratch trend over the live store.
	from := t0.Truncate(time.Minute)
	_, last, _ := st.Span()
	got, _ := json.Marshal(r.Trend("sym", from, last, time.Minute))
	want, _ := json.Marshal(browser.Trend(st, "sym", from, last, time.Minute))
	if !bytes.Equal(got, want) {
		t.Fatalf("post-eviction trend diverged:\n%s\n%s", got, want)
	}
}

// TestTrendParity: over the serving defaults (from = span start on the
// grid, to = span end) the rollup trend equals browser.Trend over the
// same store, at the base bin and at multiples.
func TestTrendParity(t *testing.T) {
	st := store.New()
	r := New(Config{})
	st.OnAppend(r.ObserveEvent)
	// Uneven spacing so bins have mixed counts.
	for i := 0; i < 40; i++ {
		at := t0.Add(time.Duration(i*i%191) * time.Minute).Add(time.Duration(i%53) * time.Second)
		st.Add(event.Instance{Name: "sym", Start: at, End: at.Add(time.Second)})
	}
	first, last, _ := st.Span()
	for _, bin := range []time.Duration{time.Minute, 5 * time.Minute, time.Hour} {
		from := first.Truncate(bin)
		got, _ := json.Marshal(r.Trend("sym", from, last, bin))
		want, _ := json.Marshal(browser.Trend(st, "sym", from, last, bin))
		if !bytes.Equal(got, want) {
			t.Errorf("bin %v: rollup trend != browser.Trend", bin)
		}
	}
}

// TestCauseTrendParity: the cause series equals browser.TrendDiagnoses
// over the same diagnoses for a grid-aligned window, with pending extras
// merged.
func TestCauseTrendParity(t *testing.T) {
	st := store.New()
	r := New(Config{})
	syms := fill(st, "sym", 12, t0, 7*time.Minute)
	var ds []engine.Diagnosis
	for i, sym := range syms {
		label := "link down"
		if i%3 == 0 {
			label = "maintenance"
		}
		d := diag(sym, label)
		ds = append(ds, d)
		if i < 8 {
			r.AddDiagnosis("app", d)
		}
	}
	extra := ds[8:] // still pending: merged at read time

	from := t0
	bin := 10 * time.Minute
	to := syms[len(syms)-1].Start
	n := int(to.Sub(from)/bin) + 1
	got, _ := json.Marshal(r.CauseTrend("app", "link down", from, to, bin, extra))
	want, _ := json.Marshal(browser.TrendDiagnoses(ds, "link down", from, bin, n))
	if !bytes.Equal(got, want) {
		t.Fatalf("cause trend diverged:\n%s\n%s", got, want)
	}
}

// TestSeedEventsEqualsHooks: seeding from a pre-built store produces the
// same bins as having observed each append.
func TestSeedEventsEqualsHooks(t *testing.T) {
	st := store.New()
	hooked := New(Config{})
	st.OnAppend(hooked.ObserveEvent)
	fill(st, "a", 10, t0, time.Minute)
	fill(st, "b", 5, t0.Add(30*time.Second), 2*time.Minute)

	seeded := New(Config{})
	seeded.SeedEvents(st)

	first, last, _ := st.Span()
	from := first.Truncate(time.Minute)
	for _, name := range []string{"a", "b"} {
		got, _ := json.Marshal(seeded.Trend(name, from, last, time.Minute))
		want, _ := json.Marshal(hooked.Trend(name, from, last, time.Minute))
		if !bytes.Equal(got, want) {
			t.Errorf("%s: seeded trend != hooked trend", name)
		}
	}
}

// TestTrendAtTheEdges: minute keys cover every instant a store holds. A
// store's first and last representable minutes, event.MinTime and
// event.MaxTime, trend and break down exactly as browser.Trend,
// browser.TrendDiagnoses and browser.Breakdown count them.
func TestTrendAtTheEdges(t *testing.T) {
	for _, edge := range []time.Time{event.MinTime, event.MaxTime} {
		st := store.New()
		r := New(Config{})
		st.OnAppend(r.ObserveEvent)
		// Five minutes of events ending at the edge or starting there.
		from := edge.Truncate(time.Minute)
		if edge == event.MaxTime {
			from = from.Add(-4 * time.Minute)
		}
		var ds []engine.Diagnosis
		for i := 0; i < 20; i++ {
			at := from.Add(time.Duration(i*15+i%7) * time.Second)
			if at.Before(event.MinTime) || at.After(event.MaxTime) {
				at = edge
			}
			sym := st.Add(event.Instance{Name: "sym", Start: at, End: at})
			d := diag(sym, []string{"link down", "maintenance"}[i%2])
			ds = append(ds, d)
			r.AddDiagnosis("app", d)
		}
		to := from.Add(5*time.Minute - time.Nanosecond)
		for _, bin := range []time.Duration{time.Minute, 2 * time.Minute} {
			got, _ := json.Marshal(r.Trend("sym", from, to, bin))
			want, _ := json.Marshal(browser.Trend(st, "sym", from, to, bin))
			if !bytes.Equal(got, want) {
				t.Errorf("%v, bin %v: rollup trend %s\n!= browser.Trend %s", edge, bin, got, want)
			}
			n := int(to.Sub(from)/bin) + 1
			got, _ = json.Marshal(r.CauseTrend("app", "link down", from, to, bin, nil))
			want, _ = json.Marshal(browser.TrendDiagnoses(ds, "link down", from, bin, n))
			if !bytes.Equal(got, want) {
				t.Errorf("%v, bin %v: cause trend %s\n!= browser.TrendDiagnoses %s", edge, bin, got, want)
			}
		}
		counts, total := r.BreakdownCounts("app", from, nil)
		got, _ := json.Marshal(browser.Rows(counts, total))
		want, _ := json.Marshal(browser.Breakdown(ds, nil))
		if !bytes.Equal(got, want) {
			t.Errorf("%v: windowed breakdown %s\n!= batch %s", edge, got, want)
		}
	}
}

// TestEvictUnbinnedIsNoOp: un-counting what was never counted — an
// evicted event in a bin its name never filled, of a name never binned,
// or a counted symptom's ID in another bin — changes no count: a bin
// count never wraps below zero.
func TestEvictUnbinnedIsNoOp(t *testing.T) {
	st := store.New()
	r := New(Config{})
	st.OnAppend(r.ObserveEvent)
	sym := st.Add(event.Instance{Name: "sym", Start: t0, End: t0})
	r.AddDiagnosis("app", diag(sym, "link down"))
	later := t0.Add(5 * time.Minute)
	r.EvictEvents([]store.Evicted{
		{ID: 100, Name: "sym", Start: later.UnixNano()},
		{ID: 101, Name: "never", Start: t0.UnixNano()},
	}, later)
	to := t0.Add(10 * time.Minute)
	for _, p := range r.Trend("sym", t0, to, time.Minute) {
		if want := map[bool]int{true: 1}[p.Start.Equal(t0)]; p.Count != want {
			t.Fatalf("after evicting unbinned events the bin at %v counts %d, want %d", p.Start, p.Count, want)
		}
	}
	if got := r.Trend("never", t0, to, time.Minute); got[0].Count != 0 || len(r.events) != 1 {
		t.Fatalf("evicting a name never binned left %d name series, a count of %d", len(r.events), got[0].Count)
	}
	// The symptom is counted at t0; an eviction naming its ID at a later
	// start un-counts it without touching the later bin.
	r.EvictEvents([]store.Evicted{{ID: sym.ID, Name: "sym", Start: later.UnixNano()}}, later)
	if counts, total := r.BreakdownCounts("app", time.Time{}, nil); total != 0 || len(counts) != 0 {
		t.Fatalf("after its symptom's eviction the breakdown counts %v (total %d)", counts, total)
	}
	for _, p := range r.CauseTrend("app", "link down", t0, to, time.Minute, nil) {
		if p.Count != 0 {
			t.Fatalf("after its symptom's eviction the cause trend counts %d at %v", p.Count, p.Start)
		}
	}
}
