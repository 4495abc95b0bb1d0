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
		r.CountDiagnosis("app", d)
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

	r.CountDiagnosis("app", diag(sym, ""))
	r.CountDiagnosis("app", diag(sym, "link down"))
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
	r.CountDiagnosis("app", diag(syms[0], "link down"))

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
			r.CountDiagnosis("app", d)
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

// TestRecentRing: the ring keeps the last RecentSize diagnoses in order,
// RecentSince filters by sequence and honors the limit.
func TestRecentRing(t *testing.T) {
	st := store.New()
	r := New(Config{RecentSize: 4})
	syms := fill(st, "sym", 10, t0, time.Minute)
	for _, sym := range syms {
		r.AddDiagnosis("app", diag(sym, "link down"))
	}
	if got := r.LastSeq(); got != 10 {
		t.Fatalf("LastSeq = %d, want 10", got)
	}
	es := r.RecentSince(0, 0)
	if len(es) != 4 {
		t.Fatalf("ring holds %d, want 4", len(es))
	}
	for i, e := range es {
		if want := int64(7 + i); e.Seq != want {
			t.Errorf("entry %d seq = %d, want %d (oldest-first)", i, e.Seq, want)
		}
	}
	if es := r.RecentSince(8, 0); len(es) != 2 || es[0].Seq != 9 {
		t.Errorf("RecentSince(8) = %+v", es)
	}
	if es := r.RecentSince(0, 2); len(es) != 2 || es[0].Seq != 7 {
		t.Errorf("RecentSince(0, 2) = %+v", es)
	}
	if es := r.RecentSince(10, 0); len(es) != 0 {
		t.Errorf("RecentSince(last) returned %d entries", len(es))
	}
}
