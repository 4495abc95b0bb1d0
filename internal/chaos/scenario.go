package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"grca/internal/apps"
	"grca/internal/browser"
	"grca/internal/platform"
	"grca/internal/realtime"
	"grca/internal/rollup"
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
	// Crashes/Redelivered/DigestMatch are set by the crash-restart
	// scenario: restart count, events lost-and-redelivered across all
	// crashes, and whether WAL recovery reproduced the store
	// byte-identically.
	Crashes     int  `json:",omitempty"`
	Redelivered int  `json:",omitempty"`
	DigestMatch bool `json:",omitempty"`
	// BreakdownMatch reports whether, over the recovered store, the
	// incremental rollup's per-cause breakdown is byte-identical to the
	// batch browser.Breakdown for every application. Combined with
	// DigestMatch this asserts the Result Browser aggregates survive a
	// kill -9 restart exactly.
	BreakdownMatch bool `json:",omitempty"`
	// StaleFrontier/Total/Reconnects/Torn are set by the replication
	// scenarios (replica-lag, partition): the record frontier the
	// lagging follower was serving reads at, the primary's record
	// count, stream re-establishments, and deliveries cut mid-frame.
	// DigestMatch then reports the post-heal follower-vs-primary
	// comparison.
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
		sc, err := scoreApp(a, cleanSys, b, opts.Tolerance)
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
		scen := Scenario{Fault: string(f)}

		if f == FaultDelay {
			// Delay perturbs delivery into the streaming processor, not
			// the feed text: replay the clean corpus per application.
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

		if f == FaultCrashRestart {
			// Crash-restart perturbs durability, not the feed text: replay
			// the clean corpus through a WAL with seeded kill -9 restarts
			// and diagnose over the recovered store.
			res, err := inj.CrashReplay(cleanSys.Store)
			if err != nil {
				return nil, err
			}
			scen.Crashes, scen.Redelivered, scen.DigestMatch =
				res.Crashes, res.Redelivered, res.DigestMatch
			scen.BreakdownMatch = true
			for _, a := range selected {
				eng, err := a.NewEngine(res.Store, cleanSys.View)
				if err != nil {
					return nil, fmt.Errorf("chaos: %s engine: %v", a.Name, err)
				}
				ds := eng.DiagnoseAll()
				// Rebuild the Result Browser rollup from the recovered
				// store the way the server does on restart and compare
				// its breakdown byte-for-byte with the batch path.
				roll := rollup.New(rollup.Config{})
				roll.SeedEvents(res.Store)
				for _, d := range ds {
					roll.CountDiagnosis(a.Name, d)
				}
				counts, total := roll.BreakdownCounts(a.Name, time.Time{}, nil)
				got, err := json.Marshal(browser.Rows(counts, total))
				if err != nil {
					return nil, fmt.Errorf("chaos: %s breakdown: %v", a.Name, err)
				}
				want, err := json.Marshal(browser.Breakdown(ds, nil))
				if err != nil {
					return nil, fmt.Errorf("chaos: %s breakdown: %v", a.Name, err)
				}
				if !bytes.Equal(got, want) {
					scen.BreakdownMatch = false
				}
				sc := AppScore{App: a.Name, Symptoms: len(ds),
					Score: Score(b.Truth, a.Study, ds, opts.Tolerance)}
				sc.AccuracyDrop = cleanAcc[a.Name] - sc.Score.Accuracy
				scen.Apps = append(scen.Apps, sc)
			}
			rep.Scenarios = append(rep.Scenarios, scen)
			continue
		}

		if f == FaultReplicaLag || f == FaultPartition {
			// Replication faults perturb the shipping stream, not the
			// feed text: replay the clean corpus through the real
			// protocol with seeded stalls/cuts, heal, and diagnose over
			// the recovered follower — which must be byte-identical, so
			// the bound is zero, like crash-restart.
			res, err := inj.ReplicaReplay(cleanSys.Store, f)
			if err != nil {
				return nil, err
			}
			scen.StaleFrontier, scen.Total = res.StaleFrontier, res.Total
			scen.Reconnects, scen.Torn = res.Reconnects, res.Torn
			scen.DigestMatch = res.DigestMatch
			for _, a := range selected {
				eng, err := a.NewEngine(res.Store, cleanSys.View)
				if err != nil {
					return nil, fmt.Errorf("chaos: %s engine: %v", a.Name, err)
				}
				ds := eng.DiagnoseAll()
				sc := AppScore{App: a.Name, Symptoms: len(ds),
					Score: Score(b.Truth, a.Study, ds, opts.Tolerance)}
				sc.AccuracyDrop = cleanAcc[a.Name] - sc.Score.Accuracy
				scen.Apps = append(scen.Apps, sc)
			}
			rep.Scenarios = append(rep.Scenarios, scen)
			continue
		}

		fb := inj.Bundle(b)
		sys, err := fb.Assemble(platform.Options{})
		if err != nil {
			return nil, fmt.Errorf("chaos: %s assemble: %v", f, err)
		}
		sum := sys.Collector.Summary()
		scen.Malformed = sum.Totals.Malformed
		scen.Quarantined = sum.Quarantined()
		scen.Dropped = inj.Dropped
		for _, a := range selected {
			sc, err := scoreApp(a, sys, b, opts.Tolerance)
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

func scoreApp(a apps.App, sys *platform.System, b platform.Bundle, tol time.Duration) (AppScore, error) {
	eng, err := a.NewEngine(sys.Store, sys.View)
	if err != nil {
		return AppScore{}, fmt.Errorf("chaos: %s engine: %v", a.Name, err)
	}
	ds := eng.DiagnoseAll()
	return AppScore{App: a.Name, Symptoms: len(ds), Score: Score(b.Truth, a.Study, ds, tol)}, nil
}
