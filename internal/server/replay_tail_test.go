package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/realtime"
	"grca/internal/store"
)

// replayAllNames is the tail replay that re-observes every stored event
// of the window, whatever its name: the oracle of replayTail, which
// observes the root symptoms alone and then advances the clock.
func replayAllNames(st store.Store, proc *realtime.Processor, grace time.Duration) (clock time.Time) {
	_, last, ok := st.Span()
	if !ok {
		return clock
	}
	cut := last.Add(-grace - realtime.MaxEventDuration)
	var tail []*event.Instance
	for _, name := range st.Names() {
		tail = append(tail, st.Query(name, cut, last)...)
	}
	sort.SliceStable(tail, func(i, j int) bool { return tail[i].End.Before(tail[j].End) })
	for _, in := range tail {
		proc.ObserveStored(in)
		clock = in.End
	}
	return clock
}

// TestReplayTailRootsOnly: replaying only the root symptoms of the tail
// and then advancing the clock to the store's last End leaves every
// stream's pending symptoms, and the clock, where replaying every event of
// the tail leaves them — on the test bundle, with the streams' graces
// cutting between two pending symptoms, and on a store whose window holds
// no root symptom at all.
func TestReplayTailRootsOnly(t *testing.T) {
	_, b := testBundle(t)
	s := openServer(t, t.TempDir(), b)
	defer s.Shutdown(context.Background()) //nolint:errcheck // test teardown
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loadAndFinalize(t, ts, b)
	sv := s.serving.Load()

	graces := map[string]time.Duration{}
	var roots []string
	for _, a := range sv.apps {
		roots = append(roots, a.eng.Graph.Root)
	}
	var grace time.Duration
	newProc := func() *realtime.Processor {
		var streams []realtime.Stream
		for _, a := range sv.apps {
			g := realtime.GraceFor(a.eng.Graph, realtime.MaxEventDuration)
			graces[a.Name], grace = g, max(grace, g)
			streams = append(streams, realtime.Stream{Name: a.Name, Engine: a.eng, Grace: g})
		}
		return realtime.NewStreams(s.st, streams...)
	}
	pending := func(p *realtime.Processor) map[string][]int {
		out := map[string][]int{}
		for _, a := range sv.apps {
			for _, sym := range p.PendingSymptoms(a.Name) {
				out[a.Name] = append(out[a.Name], sym.ID)
			}
		}
		return out
	}
	check := func(what string) map[string][]int {
		t.Helper()
		got, want := newProc(), newProc()
		gotClock := replayTail(s.st, got, roots, grace)
		wantClock := replayAllNames(s.st, want, grace)
		if !gotClock.Equal(wantClock) {
			t.Fatalf("%s: the replay left the clock at %v, the all-names replay at %v", what, gotClock, wantClock)
		}
		g, w := pending(got), pending(want)
		for _, a := range sv.apps {
			if !slices.Equal(g[a.Name], w[a.Name]) {
				t.Fatalf("%s: %s pending %v after the replay, %v after the all-names replay", what, a.Name, g[a.Name], w[a.Name])
			}
		}
		return g
	}
	ingest := func(evs ...EventJSON) {
		t.Helper()
		if code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: evs}); code != http.StatusOK {
			t.Fatalf("event ingest: %d %s", code, body)
		}
	}

	check("the test bundle")

	// Two root symptoms, of applications whose graces differ, and a later
	// event that ripens the shorter-grace one alone.
	short, long := "pim", "bgpflap"
	if graces[short] >= graces[long] {
		t.Fatalf("grace %v (pim) is not shorter than %v (bgpflap)", graces[short], graces[long])
	}
	at := b.Start.Add(b.Duration).Add(time.Hour)
	end := at.Add(time.Minute)
	tick := end.Add((graces[short] + graces[long]) / 2)
	ingest(
		EventJSON{Name: event.EBGPFlap, Start: at, End: end,
			Loc: LocationJSON{Type: "router:neighbor", A: "pop00-per1", B: "10.99.0.1"}},
		EventJSON{Name: event.PIMAdjacencyChange, Start: at, End: end,
			Loc: LocationJSON{Type: "router:neighbor", A: "pop00-per1", B: "pop01-per1"}},
		EventJSON{Name: "synthetic tick", Start: tick, End: tick, Loc: LocationJSON{Type: "router", A: "pop00-per1"}},
	)
	if p := check("graces cutting between two symptoms"); len(p[long]) == 0 || len(p[short]) != 0 {
		t.Fatalf("pending %v: want the %s symptom alone", p, long)
	}

	// A window with no root symptom: nothing pending, the clock at the
	// last End.
	far := tick.Add(48 * time.Hour)
	ingest(EventJSON{Name: "synthetic tick", Start: far, End: far, Loc: LocationJSON{Type: "router", A: "pop00-per1"}})
	if p := check("a window without root symptoms"); len(p) != 0 {
		t.Fatalf("pending %v in a window without root symptoms", p)
	}
}
