package netstate_test

import (
	"runtime"
	"testing"
	"time"

	"grca/internal/apps"
	"grca/internal/obs"
	"grca/internal/platform"
	"grca/internal/simnet"
)

// memoCorpus is the corpus `grca-sim -pops 12 -pers 6 -sessions 10
// -backbone 200` writes: grca-sim's defaults for the other studies, and
// the 96 IGP routers (816 with customers) of bench's rca_stream corpus.
var memoCorpus = simnet.Config{
	Seed: 1, PoPs: 12, PERsPerPoP: 6, SessionsPerPER: 10,
	Duration:         7 * 24 * time.Hour,
	BGPFlapIncidents: 600, CDNIncidents: 300, PIMIncidents: 300, BackboneIncidents: 200,
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkRoutingMemoBytes prices what the routing memos keep: every
// application diagnoses its symptoms of memoCorpus on the one view, and
// the live heap is read before, after, and once each memo has let go of
// what the diagnoses stored in it.
//
//   - heapB/diagnosis: the live heap the diagnoses left, per symptom.
//   - B/expansion-entry: what the view's expansion memo frees when a
//     registration drops it, per entry dropped.
//   - B/spf-tree: what the SPF memo frees when a weight change moves its
//     generation, per tree (the first tree of the new generation stays).
func BenchmarkRoutingMemoBytes(b *testing.B) {
	d, err := simnet.Generate(memoCorpus)
	if err != nil {
		b.Fatal(err)
	}
	spfTrees := obs.GetGauge("ospf.spf.cache.entries")
	expansions := obs.GetGauge("netstate.expand.cache.entries")
	var perDiag, perEntry, perTree, nTrees, nEntries float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := platform.FromDataset(d, platform.Options{})
		if err != nil {
			b.Fatal(err)
		}
		h0 := liveHeap()
		b.StartTimer()
		symptoms := 0
		for _, a := range apps.All() {
			eng, err := a.NewEngine(sys.Store, sys.View)
			if err != nil {
				b.Fatal(err)
			}
			symptoms += len(eng.DiagnoseAll())
		}
		b.StopTimer()
		if symptoms == 0 {
			b.Fatal("no symptoms diagnosed")
		}
		h1, e1 := liveHeap(), expansions.Value()
		sys.View.RegisterClient("memo-bench-probe", d.AgentAddr[d.Agents[0]], "")
		h2, e2, s2 := liveHeap(), expansions.Value(), spfTrees.Value()
		link := sys.Topo.Links[sys.Topo.LinkIDs()[0]]
		at := d.Config.Start.Add(memoCorpus.Duration + 24*time.Hour) // after every change
		if err := sys.View.OSPF.SetWeight(at, link.ID, sys.View.OSPF.WeightAt(link.ID, at)+1); err != nil {
			b.Fatal(err)
		}
		// One tree in the new generation swaps the old table out.
		_ = sys.View.OSPF.Distance(link.A.Router.Name, link.B.Router.Name, at)
		h3, s3 := liveHeap(), spfTrees.Value()
		if e1 <= e2 || s2 <= s3 {
			b.Fatalf("memos did not let go: expansion entries %d → %d, SPF trees %d → %d", e1, e2, s2, s3)
		}
		perDiag = float64(h1-h0) / float64(symptoms)
		perEntry = float64(h1-h2) / float64(e1-e2)
		perTree = float64(h2-h3) / float64(s2-s3)
		nTrees, nEntries = float64(s2-s3+1), float64(e1-e2)
		runtime.KeepAlive(sys)
	}
	b.ReportMetric(perTree, "B/spf-tree")
	b.ReportMetric(perEntry, "B/expansion-entry")
	b.ReportMetric(perDiag, "heapB/diagnosis")
	b.ReportMetric(nTrees, "spf-trees")
	b.ReportMetric(nEntries, "expansion-entries")
}
