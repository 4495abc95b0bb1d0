package realtime

import (
	"sort"
	"testing"
	"time"

	"grca/internal/apps/bgpflap"
	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/obs"
	"grca/internal/platform"
	"grca/internal/simnet"
	"grca/internal/store"
	"grca/internal/temporal"
	"grca/internal/testnet"
)

// TestReplayMatchesBatch streams a full simulated corpus through the
// processor and verifies every diagnosis matches the offline batch run —
// the package's defining property.
func TestReplayMatchesBatch(t *testing.T) {
	d, err := simnet.Generate(simnet.Config{
		Seed: 51, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 8,
		Duration: 5 * 24 * time.Hour, BGPFlapIncidents: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.FromDataset(d, platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := bgpflap.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Batch reference.
	batchEng := engine.New(sys.Store, sys.View, g)
	batch := map[string]string{} // symptom key → primary
	for _, diag := range batchEng.DiagnoseAll() {
		batch[diagKey(diag.Symptom)] = diag.Primary()
	}

	// Stream: all events ordered by availability (end time).
	var stream []event.Instance
	for _, name := range sys.Store.Names() {
		for _, in := range sys.Store.All(name) {
			stream = append(stream, *in)
		}
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].End.Before(stream[j].End) })

	grace := GraceFor(g, 15*time.Minute)
	if grace <= 0 {
		t.Fatalf("grace = %v", grace)
	}
	p := New(sys.View, g, grace)
	var live []engine.Diagnosis
	for _, in := range stream {
		out, late := p.Observe(in)
		if late {
			t.Fatalf("instance %v marked late in an availability-ordered replay", in)
		}
		live = append(live, out...)
	}
	live = append(live, p.Flush()...)
	if p.Pending() != 0 {
		t.Errorf("pending after flush = %d", p.Pending())
	}

	if len(live) != len(batch) {
		t.Fatalf("live diagnoses = %d, batch = %d", len(live), len(batch))
	}
	for _, diag := range live {
		want, ok := batch[diagKey(diag.Symptom)]
		if !ok {
			t.Fatalf("live symptom %v missing from batch", diag.Symptom)
		}
		if diag.Primary() != want {
			t.Errorf("symptom %v: live %q vs batch %q", diag.Symptom, diag.Primary(), want)
		}
	}
}

func diagKey(in *event.Instance) string {
	return in.Loc.Key() + "|" + in.Start.Format(time.RFC3339Nano)
}

// miniGraph is a one-rule graph for focused streaming tests.
func miniGraph(t *testing.T) *dgraph.Graph {
	t.Helper()
	g := dgraph.New(event.EBGPFlap)
	err := g.Add(dgraph.Rule{
		Symptom: event.EBGPFlap, Diagnostic: event.InterfaceFlap,
		Temporal: temporal.Rule{
			Symptom:    temporal.Expansion{Option: temporal.StartStart, Left: 185 * time.Second, Right: 10 * time.Second},
			Diagnostic: dgraph.Syslog5,
		},
		JoinLevel: locus.Interface, Priority: 180,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSymptomHeldForGrace(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	g := miniGraph(t)
	p := New(n.View, g, 10*time.Minute)
	t0 := testnet.T0
	ifc, _ := n.Topo.InterfaceByName("chi-per1", "to-custB")
	adj := locus.Between(locus.RouterNeighbor, "chi-per1", ifc.PeerIP.String())

	// Symptom arrives first; no diagnosis yet.
	out, late := p.Observe(event.Instance{Name: event.EBGPFlap,
		Start: t0.Add(time.Hour), End: t0.Add(time.Hour + time.Minute), Loc: adj})
	if late || len(out) != 0 || p.Pending() != 1 {
		t.Fatalf("premature diagnosis: %v late=%v pending=%d", out, late, p.Pending())
	}
	// Trailing evidence within grace still counts: the interface flap event
	// materializes three minutes after the symptom ended.
	out, late = p.Observe(event.Instance{Name: event.InterfaceFlap,
		Start: t0.Add(time.Hour - 2*time.Minute), End: t0.Add(time.Hour + 4*time.Minute),
		Loc: locus.Between(locus.Interface, "chi-per1", "to-custB")})
	if late || len(out) != 0 {
		t.Fatalf("diagnosed before grace: %v late=%v", out, late)
	}
	// A later unrelated event advances the clock past the grace period.
	out, _ = p.Observe(event.Instance{Name: "tick",
		Start: t0.Add(2 * time.Hour), End: t0.Add(2 * time.Hour),
		Loc: locus.At(locus.Router, "nyc-cr1")})
	if len(out) != 1 {
		t.Fatalf("diagnoses after grace = %d", len(out))
	}
	if out[0].Primary() != event.InterfaceFlap {
		t.Errorf("primary = %q, want interface flap (late evidence must be seen)", out[0].Primary())
	}
}

// TestLateMarkedBeyondGrace pins the late-arrival boundary: an instance
// available exactly Grace before the stream clock is on time; one
// nanosecond older is late — stored and counted, never silently misjoined
// into already-emitted diagnoses.
func TestLateMarkedBeyondGrace(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	p := New(n.View, miniGraph(t), time.Minute)
	t0 := testnet.T0
	loc := locus.At(locus.Router, "nyc-cr1")
	obs := func(at time.Time) bool {
		_, late := p.Observe(event.Instance{Name: "x", Start: at, End: at, Loc: loc})
		return late
	}
	if obs(t0.Add(time.Hour)) {
		t.Fatal("clock-advancing instance marked late")
	}
	// 30 s of skew is within the 1-minute grace.
	if obs(t0.Add(time.Hour - 30*time.Second)) {
		t.Error("skew within grace marked late")
	}
	// Exactly Grace back is still on time (boundary is inclusive).
	if obs(t0.Add(time.Hour - time.Minute)) {
		t.Error("instance exactly at the grace boundary marked late")
	}
	// A nanosecond beyond the boundary is late.
	if !obs(t0.Add(time.Hour - time.Minute - time.Nanosecond)) {
		t.Error("instance beyond grace not marked late")
	}
	// Ten minutes back is a broken feed — late, but stored all the same.
	if !obs(t0.Add(50 * time.Minute)) {
		t.Error("gross reordering not marked late")
	}
	if p.Late() != 2 {
		t.Errorf("Late() = %d, want 2", p.Late())
	}
	if got := p.Store().Count("x"); got != 5 {
		t.Errorf("store count = %d, want 5 (late instances must still be stored)", got)
	}
}

// TestLateSymptomStillDiagnosed: a root symptom arriving beyond grace is
// past its own evidence horizon, so it is diagnosed immediately instead of
// being dropped.
func TestLateSymptomStillDiagnosed(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	p := New(n.View, miniGraph(t), time.Minute)
	t0 := testnet.T0
	ifc, _ := n.Topo.InterfaceByName("chi-per1", "to-custB")
	adj := locus.Between(locus.RouterNeighbor, "chi-per1", ifc.PeerIP.String())

	// Evidence and clock-advancing tick arrive first.
	p.Observe(event.Instance{Name: event.InterfaceFlap,
		Start: t0.Add(time.Hour - 2*time.Minute), End: t0.Add(time.Hour),
		Loc: locus.Between(locus.Interface, "chi-per1", "to-custB")})
	p.Observe(event.Instance{Name: "tick", Start: t0.Add(3 * time.Hour), End: t0.Add(3 * time.Hour),
		Loc: locus.At(locus.Router, "nyc-cr1")})

	// The symptom itself shows up hours later (delayed feed).
	out, late := p.Observe(event.Instance{Name: event.EBGPFlap,
		Start: t0.Add(time.Hour), End: t0.Add(time.Hour + time.Minute), Loc: adj})
	if !late {
		t.Fatal("delayed symptom not marked late")
	}
	if len(out) != 1 {
		t.Fatalf("late symptom diagnoses = %d, want immediate diagnosis", len(out))
	}
	if out[0].Primary() != event.InterfaceFlap {
		t.Errorf("late symptom primary = %q, want interface flap", out[0].Primary())
	}
}

// TestBackpressureBound: with MaxPending set, a symptom storm forces the
// oldest pending symptoms out early instead of growing the queue.
func TestBackpressureBound(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	p := New(n.View, miniGraph(t), time.Hour)
	p.MaxPending = 2
	t0 := testnet.T0
	ifc, _ := n.Topo.InterfaceByName("chi-per1", "to-custB")
	adj := locus.Between(locus.RouterNeighbor, "chi-per1", ifc.PeerIP.String())

	var got []engine.Diagnosis
	for i := 0; i < 5; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		out, _ := p.Observe(event.Instance{Name: event.EBGPFlap, Start: at, End: at, Loc: adj})
		got = append(got, out...)
	}
	if p.Pending() != 2 {
		t.Errorf("Pending = %d, want bound 2", p.Pending())
	}
	if p.Forced() != 3 || len(got) != 3 {
		t.Errorf("Forced = %d, drained = %d, want 3 forced diagnoses", p.Forced(), len(got))
	}
	// Forced diagnoses pop oldest-first.
	if !got[0].Symptom.Start.Equal(t0) {
		t.Errorf("first forced symptom at %v, want oldest", got[0].Symptom.Start)
	}
	rest := p.Flush()
	if len(rest) != 2 || p.Pending() != 0 {
		t.Errorf("flush = %d pending = %d", len(rest), p.Pending())
	}
}

func TestGraceFor(t *testing.T) {
	_, g, err := bgpflap.Build()
	if err != nil {
		t.Fatal(err)
	}
	maxDur := 10 * time.Minute
	grace := GraceFor(g, maxDur)
	// The deepest chain is eBGP flap → HTE/line-proto → interface flap →
	// layer-1 restoration: three levels, so at least 3×maxDur.
	if grace < 3*maxDur {
		t.Errorf("grace = %v, want ≥ %v", grace, 3*maxDur)
	}
	// A graph with no rules needs no grace.
	if got := GraceFor(dgraph.New("root"), maxDur); got != 0 {
		t.Errorf("empty graph grace = %v", got)
	}
}

// TestStreamingSharesSpatialCache: the view's routing-epoch expansion
// cache must accumulate across Observe calls — the second symptom's
// expansions hit entries the first symptom filled.
func TestStreamingSharesSpatialCache(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	p := New(n.View, miniGraph(t), time.Minute)
	t0 := testnet.T0
	ifc, _ := n.Topo.InterfaceByName("chi-per1", "to-custB")
	adj := locus.Between(locus.RouterNeighbor, "chi-per1", ifc.PeerIP.String())
	hits := obs.GetCounter("netstate.expand.cache.hits")
	misses := obs.GetCounter("netstate.expand.cache.misses")

	sym := func(at time.Duration) event.Instance {
		return event.Instance{Name: event.EBGPFlap, Start: t0.Add(at), End: t0.Add(at + time.Minute), Loc: adj}
	}
	if out, _ := p.Observe(sym(time.Hour)); len(out) != 0 {
		t.Fatalf("premature diagnosis: %v", out)
	}
	// Advance the clock to flush the first symptom, note the miss level,
	// then stream a second symptom in the same routing epoch.
	if out := p.Flush(); len(out) != 1 {
		t.Fatalf("first flush = %d diagnoses", len(out))
	}
	h0, m0 := hits.Value(), misses.Value()
	if out, _ := p.Observe(sym(2 * time.Hour)); len(out) != 0 {
		t.Fatalf("premature diagnosis: %v", out)
	}
	if out := p.Flush(); len(out) != 1 {
		t.Fatalf("second flush = %d diagnoses", len(out))
	}
	if misses.Value() != m0 {
		t.Errorf("second symptom recomputed %d expansions; want all served from the shared cache",
			misses.Value()-m0)
	}
	if hits.Value() == h0 {
		t.Error("second symptom recorded no cache hits; shared cache not reused across Observe calls")
	}
}

// TestObserveStoredSharedStore: a processor over a shared store fed via
// ObserveStored behaves exactly like one owning its store fed via
// Observe — the serving pipeline's configuration.
func TestObserveStoredSharedStore(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	g := miniGraph(t)
	t0 := testnet.T0
	ifc, _ := n.Topo.InterfaceByName("chi-per1", "to-custB")
	adj := locus.Between(locus.RouterNeighbor, "chi-per1", ifc.PeerIP.String())
	stream := []event.Instance{
		{Name: event.InterfaceFlap, Start: t0.Add(time.Hour - 2*time.Minute),
			End: t0.Add(time.Hour + 4*time.Minute), Loc: locus.Between(locus.Interface, "chi-per1", "to-custB")},
		{Name: event.EBGPFlap, Start: t0.Add(time.Hour), End: t0.Add(time.Hour + time.Minute), Loc: adj},
		{Name: "tick", Start: t0.Add(2 * time.Hour), End: t0.Add(2 * time.Hour),
			Loc: locus.At(locus.Router, "nyc-cr1")},
	}

	own := New(n.View, g, 10*time.Minute)
	var want []engine.Diagnosis
	for _, in := range stream {
		out, _ := own.Observe(in)
		want = append(want, out...)
	}

	st := store.New()
	shared := NewOnStore(st, n.View, g, 10*time.Minute)
	if shared.Store() != st {
		t.Fatal("NewOnStore did not adopt the given store")
	}
	var got []engine.Diagnosis
	for _, in := range stream {
		out, _ := shared.ObserveStored(st.Add(in))
		got = append(got, out...)
	}
	if st.Len() != len(stream) {
		t.Fatalf("shared store holds %d events, want %d (ObserveStored must not re-add)", st.Len(), len(stream))
	}
	if len(got) != len(want) || len(got) != 1 {
		t.Fatalf("shared-store diagnoses = %d, own-store = %d, want 1", len(got), len(want))
	}
	if got[0].Primary() != want[0].Primary() {
		t.Errorf("primary diverged: shared %q vs own %q", got[0].Primary(), want[0].Primary())
	}
}

// TestPendingSymptomIsACopy: the serving pipeline hands ObserveStored
// pointers into its decoded batch, so the pending queue keeps copies —
// rewriting (or reusing) the batch afterwards changes nothing pending.
func TestPendingSymptomIsACopy(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	g := miniGraph(t)
	t0 := testnet.T0
	ifc, _ := n.Topo.InterfaceByName("chi-per1", "to-custB")
	adj := locus.Between(locus.RouterNeighbor, "chi-per1", ifc.PeerIP.String())
	st := store.New()
	p := NewOnStore(st, n.View, g, time.Hour)
	batch := []event.Instance{{ID: 7, Name: event.EBGPFlap, Start: t0, End: t0.Add(time.Minute), Loc: adj}}
	if err := st.PutAll(batch); err != nil {
		t.Fatal(err)
	}
	p.ObserveStored(&batch[0])
	want := batch[0]
	batch[0] = event.Instance{ID: 8, Name: "reused", Start: t0.Add(time.Hour), End: t0.Add(time.Hour)}
	got := p.PendingSymptoms()
	if len(got) != 1 || got[0].ID != want.ID || got[0].Name != want.Name || !got[0].Start.Equal(want.Start) || got[0].Loc != want.Loc {
		t.Fatalf("pending after the batch was rewritten = %v, want %v", got, want)
	}
	if stored, ok := st.Get(7); !ok || stored.Name != event.EBGPFlap {
		t.Fatalf("the store's copy changed with the batch: %v", stored)
	}
}

// TestCloseForceDrains: Close diagnoses everything still pending, counts
// it as forced (the grace period was cut short), and turns further
// observations into no-ops.
func TestCloseForceDrains(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	p := New(n.View, miniGraph(t), time.Hour)
	t0 := testnet.T0
	ifc, _ := n.Topo.InterfaceByName("chi-per1", "to-custB")
	adj := locus.Between(locus.RouterNeighbor, "chi-per1", ifc.PeerIP.String())
	for i := 0; i < 3; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		p.Observe(event.Instance{Name: event.EBGPFlap, Start: at, End: at, Loc: adj})
	}
	if p.Pending() != 3 {
		t.Fatalf("pending = %d", p.Pending())
	}
	ds := p.Close()
	if len(ds) != 3 || p.Pending() != 0 {
		t.Fatalf("Close drained %d, pending %d, want 3 and 0", len(ds), p.Pending())
	}
	if p.Forced() != 3 {
		t.Errorf("Forced = %d, want 3 (close cut their grace short)", p.Forced())
	}
	if again := p.Close(); again != nil {
		t.Errorf("second Close returned %d diagnoses", len(again))
	}
	out, late := p.Observe(event.Instance{Name: event.EBGPFlap,
		Start: t0.Add(time.Hour), End: t0.Add(time.Hour), Loc: adj})
	if out != nil || late || p.Pending() != 0 {
		t.Error("observation after Close was not ignored")
	}
}
