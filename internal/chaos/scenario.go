package chaos

import (
	"fmt"
	"time"

	"grca/internal/apps"
	"grca/internal/netstate"
	"grca/internal/platform"
	"grca/internal/realtime"
	"grca/internal/store"
)

// StreamStats carries the delayed-replay counters of one app's delay
// scenario.
type StreamStats struct {
	Delivered int
	Delayed   int
	Late      int
	Forced    int
}

// AppScore is one application's accuracy under one scenario.
type AppScore struct {
	App      string
	Symptoms int // diagnoses produced
	Score    ScoreSummary
	// AccuracyDrop is the clean-run accuracy minus this scenario's
	// (positive = the fault cost accuracy); zero in the clean block.
	AccuracyDrop float64
	Stream       *StreamStats `json:",omitempty"`
}

// Scenario is the report block of one fault class.
type Scenario struct {
	Fault       string
	Malformed   int      `json:",omitempty"`
	Quarantined []string `json:",omitempty"`
	Dropped     []string `json:",omitempty"`
	// Crashes/Redelivered are set by the crash-restart scenario: the
	// images booted, and the events of the batches the crashes left in
	// flight, posted again. BetweenBatches and MidFrame split the cuts by
	// where they fell — between two acknowledged batches, or inside the
	// frame of the batch in flight — and LinkedCheckpoints counts the
	// images whose checkpoint holds a journal segment adopted as a run.
	Crashes           int `json:",omitempty"`
	Redelivered       int `json:",omitempty"`
	BetweenBatches    int `json:",omitempty"`
	MidFrame          int `json:",omitempty"`
	LinkedCheckpoints int `json:",omitempty"`
	// DigestMatch and BreakdownMatch are set by the three durability
	// scenarios: whether every rebooted node (crash-restart) or the healed
	// follower (replica-lag, partition) holds a store byte-identical to
	// the clean one, and answers /v1/breakdown for every application with
	// the bytes of the node that never crashed, or of its primary.
	DigestMatch    bool `json:",omitempty"`
	BreakdownMatch bool `json:",omitempty"`
	// StaleFrontier/Total/Reconnects/Torn are set by the replication
	// scenarios: the event count the follower served reads at when the
	// fault ended, the primary's, the stream connections the fault ended,
	// and those it ended mid-frame.
	StaleFrontier int `json:",omitempty"`
	Total         int `json:",omitempty"`
	Reconnects    int `json:",omitempty"`
	Torn          int `json:",omitempty"`
	Apps          []AppScore
}

// Report is the harness's machine-readable output. Every field is a pure
// function of the dataset and the seed — running the same matrix twice
// must produce byte-identical JSON (the scenario tests enforce this), so
// no wall-clock readings or map-ordered values belong here.
type Report struct {
	Seed             int64
	ToleranceSeconds int
	Clean            []AppScore
	Scenarios        []Scenario
}

// Options tunes RunMatrix.
type Options struct {
	// Apps restricts the matrix to the named applications (default all).
	Apps []string
	// Faults restricts the fault classes (default AllFaults).
	Faults []Fault
	// Tolerance is the truth-matching window (default 10m).
	Tolerance time.Duration
	// MaxPending bounds the streaming processor's pending queue in the
	// delay scenario (0 = unbounded).
	MaxPending int
}

// RunMatrix runs the scenario matrix over a dataset bundle: assemble and
// score the clean pipeline once per application, then for each fault
// class perturb the bundle with that single fault (at cfg's rates, under
// cfg.Seed) and score again. cfg.Faults is ignored — each scenario
// injects exactly one class, so a fault's accuracy cost is attributable.
func RunMatrix(b platform.Bundle, cfg Config, opts Options) (*Report, error) {
	if opts.Tolerance == 0 {
		opts.Tolerance = 10 * time.Minute
	}
	faults := opts.Faults
	if len(faults) == 0 {
		faults = AllFaults()
	}
	selected, err := selectApps(opts.Apps)
	if err != nil {
		return nil, err
	}

	rep := &Report{Seed: cfg.Seed, ToleranceSeconds: int(opts.Tolerance / time.Second)}

	cleanSys, err := b.Assemble(platform.Options{})
	if err != nil {
		return nil, fmt.Errorf("chaos: clean assemble: %v", err)
	}
	cleanAcc := map[string]float64{}
	for _, a := range selected {
		sc, err := scoreApp(a, cleanSys.Store, cleanSys.View, b, opts.Tolerance)
		if err != nil {
			return nil, err
		}
		cleanAcc[a.Name] = sc.Score.Accuracy
		rep.Clean = append(rep.Clean, sc)
	}

	for _, f := range faults {
		sCfg := cfg
		sCfg.Faults = []Fault{f}
		inj := New(sCfg)

		if f == FaultDelay {
			// Delay perturbs delivery into the streaming processor, not
			// the feed text: replay the clean corpus per application.
			scen := Scenario{Fault: string(f)}
			for _, a := range selected {
				_, g, err := a.Build()
				if err != nil {
					return nil, fmt.Errorf("chaos: %s graph: %v", a.Name, err)
				}
				grace := realtime.GraceFor(g, 15*time.Minute)
				res := inj.Replay(cleanSys.View, g, cleanSys.Store, grace, opts.MaxPending)
				sc := AppScore{
					App:      a.Name,
					Symptoms: len(res.Diagnoses),
					Score:    Score(b.Truth, a.Study, res.Diagnoses, opts.Tolerance),
					Stream: &StreamStats{
						Delivered: res.Delivered, Delayed: res.Delayed,
						Late: res.Late, Forced: res.Forced,
					},
				}
				sc.AccuracyDrop = cleanAcc[a.Name] - sc.Score.Accuracy
				scen.Apps = append(scen.Apps, sc)
			}
			rep.Scenarios = append(rep.Scenarios, scen)
			continue
		}

		// The durability classes perturb the service, not the feed text:
		// the clean corpus goes to server.Open nodes, and the store that
		// comes back is diagnosed in the clean view. It must be
		// byte-identical, so their bounds are zero.
		var scen Scenario
		st, view := cleanSys.Store, cleanSys.View
		switch f {
		case FaultCrashRestart:
			scen, st, err = inj.CrashReplay(b, cleanSys.Store)
		case FaultReplicaLag, FaultPartition:
			scen, st, err = inj.ReplicaReplay(b, cleanSys.Store, f)
		default:
			var sys *platform.System
			if sys, err = inj.Bundle(b).Assemble(platform.Options{}); err != nil {
				return nil, fmt.Errorf("chaos: %s assemble: %v", f, err)
			}
			sum := sys.Collector.Summary()
			scen = Scenario{Fault: string(f), Malformed: sum.Totals.Malformed, Quarantined: sum.Quarantined(), Dropped: inj.Dropped}
			st, view = sys.Store, sys.View
		}
		if err != nil {
			return nil, err
		}
		for _, a := range selected {
			sc, err := scoreApp(a, st, view, b, opts.Tolerance)
			if err != nil {
				return nil, err
			}
			sc.AccuracyDrop = cleanAcc[a.Name] - sc.Score.Accuracy
			scen.Apps = append(scen.Apps, sc)
		}
		rep.Scenarios = append(rep.Scenarios, scen)
	}
	return rep, nil
}

func selectApps(names []string) ([]apps.App, error) {
	if len(names) == 0 {
		return apps.All(), nil
	}
	var out []apps.App
	for _, name := range names {
		a, ok := apps.Get(name)
		if !ok {
			return nil, fmt.Errorf("chaos: unknown application %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func scoreApp(a apps.App, st store.Store, view *netstate.View, b platform.Bundle, tol time.Duration) (AppScore, error) {
	eng, err := a.NewEngine(st, view)
	if err != nil {
		return AppScore{}, fmt.Errorf("chaos: %s engine: %v", a.Name, err)
	}
	ds := eng.DiagnoseAll()
	return AppScore{App: a.Name, Symptoms: len(ds), Score: Score(b.Truth, a.Study, ds, tol)}, nil
}
