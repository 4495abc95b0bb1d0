package chaos

import (
	"sort"
	"time"

	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/netstate"
	"grca/internal/realtime"
	"grca/internal/store"
)

// ReplayResult summarizes one delayed streaming replay.
type ReplayResult struct {
	Delivered int // instances fed to the processor
	Delayed   int // instances held back past their availability
	Late      int // arrivals the processor flagged beyond its grace window
	Forced    int // diagnoses forced out by the pending-queue bound
	Diagnoses []engine.Diagnosis
}

// Replay streams every instance of st through a fresh realtime.Processor
// for graph g, in availability order except that delayFraction of the
// instances are delivered up to delayMax after they became available —
// the delayed-feed fault class (FaultDelay) — into a pending queue of at
// most maxPending symptoms. The delivery schedule is a pure function of
// the injector seed and the instance set.
func (inj *Injector) Replay(view *netstate.View, g *dgraph.Graph, st store.Store, grace time.Duration) ReplayResult {
	type delivery struct {
		at time.Time
		in event.Instance
	}
	var sched []delivery
	rng := inj.rng("delay")
	// store.Names is sorted and All is ordered by start time, so the
	// pre-delay order — and with it every rng draw — is deterministic.
	for _, name := range st.Names() {
		for _, in := range st.All(name) {
			d := delivery{at: in.End, in: *in}
			if inj.has(FaultDelay) && rng.Float64() < delayFraction {
				// Delay by whole seconds up to delayMax, at least one.
				secs := 1 + rng.Int63n(int64(delayMax/time.Second))
				d.at = in.End.Add(time.Duration(secs) * time.Second)
			}
			sched = append(sched, d)
		}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].at.Before(sched[j].at) })

	proc := realtime.New(view, g, grace)
	proc.MaxPending = maxPending
	var res ReplayResult
	for _, d := range sched {
		out, late := proc.Observe(d.in)
		res.Delivered++
		if late {
			res.Late++
		}
		if !d.at.Equal(d.in.End) {
			res.Delayed++
		}
		res.Diagnoses = append(res.Diagnoses, out...)
	}
	res.Diagnoses = append(res.Diagnoses, proc.Flush()...)
	res.Forced = proc.Forced()
	return res
}
