package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/netstate"
	"grca/internal/ospf"
)

// diagnoseAllParallel is DiagnoseAll through DiagnoseEach: the
// diagnoses in start-time order, each put at its index by its worker.
func diagnoseAllParallel(e *Engine, workers int) []Diagnosis {
	out := make([]Diagnosis, len(e.Store.All(e.Graph.Root)))
	e.DiagnoseEach(workers, func(i int, d Diagnosis) { out[i] = d })
	return out
}

// TestParallelMatchesSerial: parallel diagnosis must produce identical
// verdicts in identical order.
func TestParallelMatchesSerial(t *testing.T) {
	f := newFixture(t)
	// A spread of symptoms with varying evidence.
	f.add(event.InterfaceFlap, 900, 1, f.ifLoc)
	f.add(event.CustomerResetSession, 5000, 1, f.adjLoc)
	f.add(event.SONETRestoration, 8998, 2, locus.At(locus.Layer1Device, "sonet-chi-per1-a"))
	f.add(event.InterfaceFlap, 9000, 1, f.ifLoc)
	for i := 0; i < 40; i++ {
		f.symptom(1000 + i*400)
	}
	serial := f.eng.DiagnoseAll()
	for _, workers := range []int{0, 1, 2, 8, 100} {
		par := diagnoseAllParallel(f.eng, workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d diagnoses, want %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i].Symptom.ID != serial[i].Symptom.ID {
				t.Fatalf("workers=%d: order diverged at %d", workers, i)
			}
			if par[i].Label() != serial[i].Label() {
				t.Errorf("workers=%d: diagnosis %d = %q, want %q",
					workers, i, par[i].Label(), serial[i].Label())
			}
		}
	}
}

// TestDiagnoseEach: the function form visits every root symptom exactly
// once, with DiagnoseAll's diagnosis at its start-time index, at 1, 2 and
// 8 workers, and calls nothing on an empty store.
func TestDiagnoseEach(t *testing.T) {
	f := newFixture(t)
	f.diagnoseEachOn(t, 0)
	f.add(event.InterfaceFlap, 900, 1, f.ifLoc)
	f.add(event.CPUHighSpike, 2980, 30, locus.At(locus.Router, "chi-per1"))
	f.add(event.CustomerResetSession, 5000, 1, f.adjLoc)
	f.add(event.InterfaceFlap, 9000, 1, f.ifLoc)
	for i := 0; i < 60; i++ {
		f.symptom(800 + i*300)
	}
	f.diagnoseEachOn(t, 60)
}

// diagnoseEachOn checks DiagnoseEach against DiagnoseAll over the
// fixture's n root symptoms.
func (f *fixture) diagnoseEachOn(t *testing.T, n int) {
	t.Helper()
	serial := f.eng.DiagnoseAll()
	if len(serial) != n {
		t.Fatalf("%d root symptoms, want %d", len(serial), n)
	}
	for _, workers := range []int{1, 2, 8} {
		var mu sync.Mutex
		seen := make([]int, n)
		f.eng.DiagnoseEach(workers, func(i int, d Diagnosis) {
			mu.Lock()
			defer mu.Unlock()
			if i < 0 || i >= n {
				t.Errorf("workers=%d: index %d of %d symptoms", workers, i, n)
				return
			}
			seen[i]++
			if d.Symptom.ID != serial[i].Symptom.ID {
				t.Errorf("workers=%d: index %d holds symptom %d, DiagnoseAll's %d", workers, i, d.Symptom.ID, serial[i].Symptom.ID)
			}
			if got, want := causeSig(d), causeSig(serial[i]); got != want {
				t.Errorf("workers=%d diagnosis %d:\n got %s\nwant %s", workers, i, got, want)
			}
		})
		for i, k := range seen {
			if k != 1 {
				t.Errorf("workers=%d: symptom %d visited %d times", workers, i, k)
			}
		}
	}
}

// causeSig canonicalizes everything a diagnosis concluded — each cause's
// event, priority, evidence chain, and the exact instance IDs backing it,
// plus any warnings — so determinism checks catch divergence the
// Label-only comparison above would miss.
func causeSig(d Diagnosis) string {
	var b strings.Builder
	for _, c := range d.Causes {
		fmt.Fprintf(&b, "%s p%d chain=%s ids=", c.Event, c.Priority, strings.Join(c.Chain, "<-"))
		for _, in := range c.Instances {
			fmt.Fprintf(&b, "%d,", in.ID)
		}
		b.WriteString("; ")
	}
	if len(d.Warnings) > 0 {
		fmt.Fprintf(&b, "warnings=%v", d.Warnings)
	}
	return b.String()
}

// TestParallelDeterminism: on the testnet fixture, parallel diagnosis must
// reproduce the serial run exactly — same symptom order and, per symptom,
// the same causes down to evidence instance IDs — at several worker
// counts. This pins the engine's determinism contract now that workers
// share the instrumented store and expansion caches.
func TestParallelDeterminism(t *testing.T) {
	f := newFixture(t)
	f.add(event.InterfaceFlap, 900, 1, f.ifLoc)
	f.add(event.CPUHighSpike, 2980, 30, locus.At(locus.Router, "chi-per1"))
	f.add(event.CustomerResetSession, 5000, 1, f.adjLoc)
	f.add(event.SONETRestoration, 8998, 2, locus.At(locus.Layer1Device, "sonet-chi-per1-a"))
	f.add(event.InterfaceFlap, 9000, 1, f.ifLoc)
	for i := 0; i < 60; i++ {
		f.symptom(800 + i*300)
	}
	serial := f.eng.DiagnoseAll()
	want := make([]string, len(serial))
	for i, d := range serial {
		want[i] = causeSig(d)
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		par := diagnoseAllParallel(f.eng, workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d diagnoses, want %d", workers, len(par), len(serial))
		}
		for i := range par {
			if par[i].Symptom.ID != serial[i].Symptom.ID {
				t.Fatalf("workers=%d: symptom order diverged at %d", workers, i)
			}
			if got := causeSig(par[i]); got != want[i] {
				t.Errorf("workers=%d diagnosis %d:\n got %s\nwant %s", workers, i, got, want[i])
			}
		}
	}
}

// freshEngine is the fixture's engine over a new view of the same
// simulations: its expansion cache is empty, so every expansion it makes
// is computed, the reference the shared view cache must reproduce.
func (f *fixture) freshEngine() *Engine {
	return New(f.st, netstate.NewView(f.net.Topo, f.net.OSPF, f.net.BGP), f.eng.Graph)
}

// TestSharedCacheDeterminism: diagnoses must be byte-identical — labels,
// causes down to instance IDs, and warnings — from the fixture's view,
// whose expansion cache every worker shares, and from a fresh view with an
// empty cache, across worker counts 1/2/8. The fixture records weight
// changes so the corpus spans several routing epochs and both cache
// layers (SPF memo, expansion cache) are exercised across epoch
// boundaries.
func TestSharedCacheDeterminism(t *testing.T) {
	f := newFixture(t)
	// Weight churn creating distinct routing epochs mid-corpus.
	for i, w := range []int{50, 5, 80, 5} {
		if err := f.net.OSPF.SetWeight(f.at(3000+i*3000), "chi-up1", w); err != nil {
			t.Fatal(err)
		}
	}
	f.add(event.InterfaceFlap, 900, 1, f.ifLoc)
	f.add(event.CPUHighSpike, 2980, 30, locus.At(locus.Router, "chi-per1"))
	f.add(event.CustomerResetSession, 5000, 1, f.adjLoc)
	f.add(event.SONETRestoration, 8998, 2, locus.At(locus.Layer1Device, "sonet-chi-per1-a"))
	f.add(event.InterfaceFlap, 9000, 1, f.ifLoc)
	for i := 0; i < 60; i++ {
		f.symptom(800 + i*300)
	}
	base := f.freshEngine().DiagnoseAll()
	want := make([]string, len(base))
	for i, d := range base {
		want[i] = causeSig(d)
	}
	for _, workers := range []int{1, 2, 8} {
		par := diagnoseAllParallel(f.eng, workers)
		if len(par) != len(base) {
			t.Fatalf("workers=%d: %d diagnoses, want %d", workers, len(par), len(base))
		}
		for i := range par {
			if par[i].Symptom.ID != base[i].Symptom.ID {
				t.Fatalf("workers=%d: symptom order diverged at %d", workers, i)
			}
			if got := causeSig(par[i]); got != want[i] {
				t.Errorf("cache on, workers=%d, diagnosis %d:\n got %s\nwant %s", workers, i, got, want[i])
			}
		}
	}
}

// TestSharedCacheInvalidatedByIngest: recording a routing change between
// diagnoses must invalidate the view's cache — the next diagnosis answers
// against the new network condition, identically to an engine over a
// fresh view.
func TestSharedCacheInvalidatedByIngest(t *testing.T) {
	f := newFixture(t)
	f.add(event.InterfaceFlap, 900, 1, f.ifLoc)
	sym := f.symptom(1000)
	before := f.eng.Diagnose(sym) // fills the cache at generation g
	// Cost out the customer attachment *at an earlier instant*: epoch
	// numbering shifts, so stale entries must not be reused.
	if err := f.net.OSPF.SetWeight(f.at(500), "custB-att", ospf.Infinity); err != nil {
		t.Fatal(err)
	}
	after := f.eng.Diagnose(sym)
	fresh := f.freshEngine().Diagnose(sym)
	if causeSig(after) != causeSig(fresh) {
		t.Errorf("post-ingest diagnosis diverged from a fresh view:\n got %s\nwant %s",
			causeSig(after), causeSig(fresh))
	}
	_ = before
}

func TestParallelEmptyStore(t *testing.T) {
	f := newFixture(t)
	if got := diagnoseAllParallel(f.eng, 4); len(got) != 0 {
		t.Errorf("empty parallel run = %v", got)
	}
}
