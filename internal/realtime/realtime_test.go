package realtime

import (
	"math/rand"
	"testing"
	"time"

	"grca/internal/apps/bgpflap"
	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/obs"
	"grca/internal/simnet"
	"grca/internal/store"
	"grca/internal/temporal"
	"grca/internal/testnet"
)

// TestReplayMatchesBatch streams simulated corpora through one processor
// serving every application studied in them and verifies that each
// symptom is diagnosed exactly once, and that every diagnosis — its full
// cause set, evidence included — matches the offline batch run: the
// package's defining property. It holds for any arrival order in which no
// event is delayed past a grace period, so each corpus is replayed in
// availability order, with uniformly random delays and with every other
// event delayed by 0.99× the shortest grace. Besides three mixed corpora
// with all four applications, a dense BGP-only corpus (200 flap incidents
// over eight sessions per PER) puts many symptoms in one grace window.
func TestReplayMatchesBatch(t *testing.T) {
	corpora := []struct {
		name  string
		cfg   simnet.Config
		names []string
	}{
		{"seed1", mixed(1), nil},
		{"seed2", mixed(2), nil},
		{"seed3", mixed(3), nil},
		{"dense51", simnet.Config{
			Seed: 51, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 8,
			Duration: 5 * 24 * time.Hour, BGPFlapIncidents: 200,
		}, []string{"bgpflap"}},
	}
	for _, cc := range corpora {
		c := newCorpus(t, cc.cfg, cc.names...)
		bound := c.minGrace() * 99 / 100
		for _, order := range []struct {
			name string
			rng  *rand.Rand
			max  time.Duration
		}{
			{"available", nil, 0},
			{"uniform", rand.New(rand.NewSource(cc.cfg.Seed)), bound},
			{"alternate", nil, bound},
		} {
			t.Run(cc.name+"/"+order.name, func(t *testing.T) {
				st := store.New()
				p := NewStreams(st, c.streamsOver(st)...)
				got := map[string]map[string]string{}
				hooked := 0
				p.OnDiagnosis = func(app string, d engine.Diagnosis) {
					hooked++
					key := diagKey(d.Symptom)
					if _, dup := got[app][key]; dup {
						t.Errorf("%s symptom %s diagnosed twice", app, key)
					}
					if got[app] == nil {
						got[app] = map[string]string{}
					}
					got[app][key] = causesOf(d)
				}
				returned := 0
				for _, in := range c.arrivals(order.rng, order.max) {
					ds, late := p.Observe(in)
					if late {
						t.Fatalf("instance %v marked late with every delay under grace", in)
					}
					returned += len(ds)
				}
				returned += len(p.Flush())
				if pending(p) != 0 {
					t.Errorf("pending after flush = %d", pending(p))
				}
				wantN := 0
				for _, s := range c.streams {
					want, have := c.batch[s.Name], got[s.Name]
					wantN += len(want)
					if len(have) != len(want) {
						t.Errorf("%s: %d streamed diagnoses, batch %d", s.Name, len(have), len(want))
					}
					for key, causes := range want {
						if have[key] != causes {
							t.Errorf("%s symptom %s:\n stream %q\n batch  %q", s.Name, key, have[key], causes)
						}
					}
				}
				if hooked != wantN || returned != wantN {
					t.Errorf("%d diagnoses emitted (%d returned), batch %d", hooked, returned, wantN)
				}
			})
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
	if late || len(out) != 0 || pending(p) != 1 {
		t.Fatalf("premature diagnosis: %v late=%v pending=%d", out, late, pending(p))
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
	st := store.New()
	p := NewOnStore(st, n.View, miniGraph(t), time.Minute)
	t0 := testnet.T0
	loc := locus.At(locus.Router, "nyc-cr1")
	lates := 0
	obs := func(at time.Time) bool {
		_, late := p.Observe(event.Instance{Name: "x", Start: at, End: at, Loc: loc})
		if late {
			lates++
		}
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
	if lates != 2 {
		t.Errorf("%d late, want 2", lates)
	}
	if got := st.Count("x"); got != 5 {
		t.Errorf("store count = %d, want 5 (late instances must still be stored)", got)
	}
}

// TestLateSymptomStillDiagnosed: a root symptom arriving beyond grace is
// past its own evidence horizon, so it is diagnosed immediately instead of
// being dropped — also behind a pending symptom whose grace runs later.
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
	p.Observe(event.Instance{Name: event.EBGPFlap, Start: t0.Add(3 * time.Hour), End: t0.Add(3 * time.Hour), Loc: adj})

	// The symptom itself shows up hours later (delayed feed).
	out, late := p.Observe(event.Instance{Name: event.EBGPFlap,
		Start: t0.Add(time.Hour), End: t0.Add(time.Hour + time.Minute), Loc: adj})
	if !late {
		t.Fatal("delayed symptom not marked late")
	}
	if len(out) != 1 || !out[0].Symptom.Start.Equal(t0.Add(time.Hour)) || pending(p) != 1 {
		t.Fatalf("late symptom diagnoses = %d, %d pending, want its immediate diagnosis and the on-time one pending", len(out), pending(p))
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
	if pending(p) != 2 {
		t.Errorf("Pending = %d, want bound 2", pending(p))
	}
	if p.Forced() != 3 || len(got) != 3 {
		t.Errorf("Forced = %d, drained = %d, want 3 forced diagnoses", p.Forced(), len(got))
	}
	// Forced diagnoses pop oldest-first.
	if !got[0].Symptom.Start.Equal(t0) {
		t.Errorf("first forced symptom at %v, want oldest", got[0].Symptom.Start)
	}
	rest := p.Flush()
	if len(rest) != 2 || pending(p) != 0 {
		t.Errorf("flush = %d pending = %d", len(rest), pending(p))
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
	got := p.PendingSymptoms("")
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
	if pending(p) != 3 {
		t.Fatalf("pending = %d", pending(p))
	}
	ds := p.Close()
	if len(ds) != 3 || pending(p) != 0 {
		t.Fatalf("Close drained %d, pending %d, want 3 and 0", len(ds), pending(p))
	}
	if p.Forced() != 3 {
		t.Errorf("Forced = %d, want 3 (close cut their grace short)", p.Forced())
	}
	if again := p.Close(); again != nil {
		t.Errorf("second Close returned %d diagnoses", len(again))
	}
	out, late := p.Observe(event.Instance{Name: event.EBGPFlap,
		Start: t0.Add(time.Hour), End: t0.Add(time.Hour), Loc: adj})
	if out != nil || late || pending(p) != 0 {
		t.Error("observation after Close was not ignored")
	}
}

// TestAdvance: advancing the clock drains what an event ending there
// would have ripened, never moves the clock back, and is ignored once the
// processor is closed.
func TestAdvance(t *testing.T) {
	n := testnet.Build(t.Fatalf)
	p := New(n.View, miniGraph(t), 10*time.Minute)
	t0 := testnet.T0
	ifc, _ := n.Topo.InterfaceByName("chi-per1", "to-custB")
	adj := locus.Between(locus.RouterNeighbor, "chi-per1", ifc.PeerIP.String())
	for i := 0; i < 3; i++ {
		at := t0.Add(time.Duration(i) * 2 * time.Minute)
		p.Observe(event.Instance{Name: event.EBGPFlap, Start: at, End: at, Loc: adj})
	}
	// Due at t0+10m, t0+12m and t0+14m.
	if ds := p.Advance(t0.Add(13 * time.Minute)); len(ds) != 2 || pending(p) != 1 {
		t.Fatalf("Advance to the second's due drained %d, left %d pending; want 2 and 1", len(ds), pending(p))
	}
	if ds := p.Advance(t0); len(ds) != 0 || pending(p) != 1 {
		t.Fatalf("Advance into the past drained %d, left %d pending", len(ds), pending(p))
	}
	// The clock stayed at t0+13m: an event ending before t0+3m is late.
	if _, late := p.Observe(event.Instance{Name: "tick", Start: t0, End: t0.Add(2 * time.Minute),
		Loc: locus.At(locus.Router, "nyc-cr1")}); !late {
		t.Error("Advance into the past moved the clock back")
	}
	p.Close()
	if ds := p.Advance(t0.Add(time.Hour)); ds != nil {
		t.Errorf("Advance after Close drained %d", len(ds))
	}
}
