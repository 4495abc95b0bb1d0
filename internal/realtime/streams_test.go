package realtime

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"grca/internal/apps"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/platform"
	"grca/internal/simnet"
	"grca/internal/store"
)

// corpus is one simulated dataset, its events in availability (End)
// order, a stream per application studied in it, and each of those
// applications' batch diagnoses over the whole store.
type corpus struct {
	sys     *platform.System
	streams []Stream // over sys.Store; rebuilt over a fresh store by streamsOver
	events  []event.Instance
	batch   map[string]map[string]string // app → symptom key → causes
}

// mixed is a dataset with all four packaged applications' studies in it.
func mixed(seed int64) simnet.Config {
	return simnet.Config{
		Seed: seed, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 4, MVPNFraction: 0.4,
		Duration:         4 * 24 * time.Hour,
		BGPFlapIncidents: 30, CDNIncidents: 20, PIMIncidents: 20, BackboneIncidents: 20,
	}
}

// newCorpus generates cfg and streams it for the named applications, all
// four packaged ones when none are named, in apps.All() order.
func newCorpus(t *testing.T, cfg simnet.Config, names ...string) *corpus {
	t.Helper()
	d, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.FromDataset(d, platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := &corpus{sys: sys, batch: map[string]map[string]string{}}
	for _, a := range apps.All() {
		if len(names) > 0 && !slices.Contains(names, a.Name) {
			continue
		}
		eng, err := a.NewEngine(sys.Store, sys.View)
		if err != nil {
			t.Fatal(err)
		}
		c.streams = append(c.streams, Stream{Name: a.Name, Engine: eng, Grace: GraceFor(eng.Graph, MaxEventDuration)})
		want := map[string]string{}
		for _, d := range eng.DiagnoseAll() {
			want[diagKey(d.Symptom)] = causesOf(d)
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: no %s symptom in the corpus", cfg.Seed, a.Name)
		}
		c.batch[a.Name] = want
	}
	for _, name := range sys.Store.Names() {
		for _, in := range sys.Store.All(name) {
			c.events = append(c.events, *in)
		}
	}
	sort.SliceStable(c.events, func(i, j int) bool { return c.events[i].End.Before(c.events[j].End) })
	return c
}

// streamsOver rebuilds the corpus's streams over st.
func (c *corpus) streamsOver(st store.Store) []Stream {
	out := make([]Stream, len(c.streams))
	for i, s := range c.streams {
		s.Engine = engine.New(st, c.sys.View, s.Engine.Graph)
		out[i] = s
	}
	return out
}

// appOf is the stream d belongs to: the one whose root its symptom is.
func (c *corpus) appOf(d engine.Diagnosis) string {
	for _, s := range c.streams {
		if s.Engine.Graph.Root == d.Symptom.Name {
			return s.Name
		}
	}
	return ""
}

// minGrace is the shortest of the streams' grace periods.
func (c *corpus) minGrace() time.Duration {
	g := c.streams[0].Grace
	for _, s := range c.streams[1:] {
		g = min(g, s.Grace)
	}
	return g
}

// arrivals reorders the corpus as a feed would deliver it: each event
// arrives delay after it became available, delay drawn uniformly from
// [0, maxDelay) by rng, or exactly maxDelay for every other event when
// rng is nil.
func (c *corpus) arrivals(rng *rand.Rand, maxDelay time.Duration) []event.Instance {
	type arrival struct {
		at time.Time
		in event.Instance
	}
	arr := make([]arrival, len(c.events))
	for i, in := range c.events {
		var delay time.Duration
		switch {
		case rng != nil && maxDelay > 0:
			delay = time.Duration(rng.Int63n(int64(maxDelay)))
		case rng == nil && i%2 == 1:
			delay = maxDelay
		}
		arr[i] = arrival{in.End.Add(delay), in}
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].at.Before(arr[j].at) })
	out := make([]event.Instance, len(arr))
	for i, a := range arr {
		out[i] = a.in
	}
	return out
}

// causesOf renders a diagnosis's full cause set: every maximum-priority
// cause with its chain and the set of its evidence instances, identified
// by content: the store IDs that order same-time instances depend on
// arrival order.
func causesOf(d engine.Diagnosis) string {
	var b strings.Builder
	for _, c := range d.Causes {
		evidence := make([]string, len(c.Instances))
		for i, in := range c.Instances {
			evidence[i] = in.Name + "@" + diagKey(in)
		}
		sort.Strings(evidence)
		fmt.Fprintf(&b, "%s/%d via %s: %s;", c.Event, c.Priority, strings.Join(c.Chain, ">"), strings.Join(evidence, " "))
	}
	return b.String()
}

// emission is one streamed diagnosis as a consumer sees it.
type emission struct{ app, key, causes string }

// realtimeCounters reads the package's counters and the grace-wait
// histogram's count and sum.
func realtimeCounters() [6]float64 {
	h := mGraceWait.Snapshot()
	return [6]float64{float64(mObserved.Value()), float64(mLate.Value()), float64(mDiagnosed.Value()),
		float64(mForced.Value()), float64(h.Count), h.Sum}
}

func sub(a, b [6]float64) [6]float64 {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// TestStreamsMatchOneStreamProcessors is the differential check behind
// serving every application from one processor: under delays up to 3×
// grace, where streamed and batch diagnoses legitimately differ, one
// processor with four streams and four one-stream processors fed the same
// sequence emit the same (application, diagnosis) sequence — per event,
// applications in stream order — report the same late counts, leave the
// same symptoms pending, and move every realtime counter by the same
// amount, Close included.
func TestStreamsMatchOneStreamProcessors(t *testing.T) {
	c := newCorpus(t, mixed(4))
	for _, tc := range []struct {
		name       string
		rng        *rand.Rand
		max        time.Duration
		maxPending int
	}{
		{"uniform3x", rand.New(rand.NewSource(4)), 3 * c.minGrace(), 0},
		{"alternate3x", nil, 3 * c.streams[0].Grace, 0},
		{"uniform3x/bounded", rand.New(rand.NewSource(5)), 3 * c.minGrace(), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := c.arrivals(tc.rng, tc.max)
			record := func(out *[]emission, app string, ds []engine.Diagnosis) {
				for _, d := range ds {
					*out = append(*out, emission{app, diagKey(d.Symptom), causesOf(d)})
				}
			}

			st := store.New()
			var singles []*Processor
			for _, s := range c.streams {
				p := NewOnStore(st, c.sys.View, s.Engine.Graph, s.Grace)
				p.MaxPending = tc.maxPending
				singles = append(singles, p)
			}
			// Close mid-stream, at the first event past the middle with a
			// symptom pending; what follows is ignored.
			closeAt := -1
			var want []emission
			wantLate := 0
			wantPending := map[string][]*event.Instance{}
			before := realtimeCounters()
			for j, in := range stream {
				if closeAt < 0 && j >= len(stream)/2 && pendingIn(singles) > 0 {
					closeAt = j
					for i, p := range singles {
						wantPending[c.streams[i].Name] = p.PendingSymptoms("")
						record(&want, c.streams[i].Name, p.Close())
					}
				}
				stored := st.Add(in)
				for i, p := range singles {
					ds, late := p.ObserveStored(stored)
					wantLate += late
					record(&want, c.streams[i].Name, ds)
				}
			}
			wantCounters := sub(realtimeCounters(), before)

			st = store.New()
			multi := NewStreams(st, c.streamsOver(st)...)
			multi.MaxPending = tc.maxPending
			var got []emission
			recordByRoot := func(ds []engine.Diagnosis) {
				for _, d := range ds {
					got = append(got, emission{c.appOf(d), diagKey(d.Symptom), causesOf(d)})
				}
			}
			gotLate := 0
			before = realtimeCounters()
			for j, in := range stream {
				if j == closeAt {
					for _, s := range c.streams {
						if g, w := keysOf(multi.PendingSymptoms(s.Name)), keysOf(wantPending[s.Name]); g != w {
							t.Errorf("%s pending: %s, one-stream processor %s", s.Name, g, w)
						}
					}
					recordByRoot(multi.Close())
				}
				ds, late := multi.ObserveStored(st.Add(in))
				gotLate += late
				recordByRoot(ds)
			}
			gotCounters := sub(realtimeCounters(), before)

			if wantLate == 0 || len(want) == 0 || wantCounters[3] == 0 {
				t.Fatalf("the sequence exercised %d late arrivals and %v forced drains; want both", wantLate, wantCounters[3])
			}
			if gotLate != wantLate {
				t.Errorf("late = %d, one-stream processors %d", gotLate, wantLate)
			}
			if len(got) != len(want) {
				t.Fatalf("%d diagnoses returned, one-stream processors %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("returned diagnosis %d: %+v, one-stream processors %+v", i, got[i], want[i])
				}
			}
			if gotCounters != wantCounters {
				t.Errorf("counter deltas (observed, late, diagnosed, forced, grace-wait count and sum) = %v, one-stream processors %v",
					gotCounters, wantCounters)
			}
		})
	}
}

func keysOf(syms []*event.Instance) string {
	keys := make([]string, len(syms))
	for i, sym := range syms {
		keys[i] = sym.Name + "@" + diagKey(sym)
	}
	return strings.Join(keys, " ")
}

func pendingIn(ps []*Processor) int {
	n := 0
	for _, p := range ps {
		n += pending(p)
	}
	return n
}

// pending counts the symptoms p holds, over all its streams.
func pending(p *Processor) int {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return p.pendingLocked()
}

// TestPendingReadsWhileObserving: the result browser reads a stream's
// pending symptoms from HTTP goroutines while the observer drives the
// processor (run with -race).
func TestPendingReadsWhileObserving(t *testing.T) {
	c := newCorpus(t, mixed(1))
	st := store.New()
	p := NewStreams(st, c.streamsOver(st)...)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			for _, s := range c.streams {
				for _, sym := range p.PendingSymptoms(s.Name) {
					if sym.Name != s.Engine.Graph.Root {
						t.Errorf("%s holds a pending %q", s.Name, sym.Name)
					}
				}
			}
			_ = p.Forced()
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for _, in := range c.events {
		p.Observe(in)
	}
	p.Close()
	close(done)
	<-exited
}
