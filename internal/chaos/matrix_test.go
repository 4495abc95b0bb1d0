package chaos_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"grca/internal/chaos"
	"grca/internal/platform"
	"grca/internal/simnet"
)

// matrixBundle generates the shared all-studies dataset for the scenario
// matrix. Incident counts are sized so one extra misdiagnosis moves an
// app's accuracy by well under the tightest documented bound.
func matrixBundle(t *testing.T) platform.Bundle {
	t.Helper()
	d, err := simnet.Generate(simnet.Config{
		Seed: 7, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 8,
		MVPNFraction: 0.4, Duration: 6 * 24 * time.Hour,
		BGPFlapIncidents: 120, CDNIncidents: 60, PIMIncidents: 60,
		BackboneIncidents: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	return platform.BundleFromDataset(d)
}

// TestScenarioMatrix is the harness's acceptance test: every fault class
// crossed with every packaged application, asserting (a) nothing panics,
// (b) the top-cause accuracy loss stays within the documented Bounds, and
// (c) the report is byte-identical across two runs of the same seed.
func TestScenarioMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario matrix assembles the pipeline once per fault class")
	}
	b := matrixBundle(t)
	cfg := chaos.Config{Seed: 99}
	opts := chaos.Options{MaxPending: 256}

	rep, err := chaos.RunMatrix(b, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := chaos.RunMatrix(b, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.MarshalIndent(rep2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("same seed produced different reports across two runs")
	}

	if len(rep.Clean) != 4 {
		t.Fatalf("clean block covers %d apps, want 4", len(rep.Clean))
	}
	for _, sc := range rep.Clean {
		if sc.Score.Truths == 0 {
			t.Fatalf("%s: no ground truth in matrix dataset", sc.App)
		}
		if sc.Score.Matched == 0 {
			t.Fatalf("%s: clean run matched no diagnoses", sc.App)
		}
		if sc.Score.Accuracy < 0.85 {
			t.Errorf("%s: clean accuracy %.3f below 0.85 — harness baseline is broken",
				sc.App, sc.Score.Accuracy)
		}
	}

	if len(rep.Scenarios) != len(chaos.AllFaults()) {
		t.Fatalf("matrix ran %d scenarios, want %d", len(rep.Scenarios), len(chaos.AllFaults()))
	}
	for _, scen := range rep.Scenarios {
		bound, ok := chaos.Bounds[chaos.Fault(scen.Fault)]
		if !ok {
			t.Fatalf("no documented accuracy bound for fault %q", scen.Fault)
		}
		for _, sc := range scen.Apps {
			if sc.AccuracyDrop > bound+1e-9 {
				t.Errorf("%s/%s: accuracy drop %.3f exceeds documented bound %.2f (clean %.3f → %.3f)",
					scen.Fault, sc.App, sc.AccuracyDrop, bound,
					sc.Score.Accuracy+sc.AccuracyDrop, sc.Score.Accuracy)
			}
		}
		switch chaos.Fault(scen.Fault) {
		case chaos.FaultTruncate:
			if scen.Malformed == 0 {
				t.Error("truncate scenario recorded no malformed lines")
			}
		case chaos.FaultDropSource:
			if len(scen.Dropped) == 0 {
				t.Error("drop-source scenario dropped nothing")
			}
		case chaos.FaultDelay:
			for _, sc := range scen.Apps {
				if sc.Stream == nil {
					t.Fatalf("delay scenario missing stream stats for %s", sc.App)
				}
				if sc.Stream.Delayed == 0 {
					t.Errorf("%s: delay scenario delayed no deliveries", sc.App)
				}
				if sc.Stream.Late == 0 {
					t.Errorf("%s: 4h delays never crossed the grace window", sc.App)
				}
			}
		case chaos.FaultCrashRestart:
			if scen.Crashes == 0 {
				t.Error("crash-restart scenario crashed nothing")
			}
			if !scen.DigestMatch {
				t.Error("crash-restart recovery was not byte-identical to the clean store")
			}
			if !scen.BreakdownMatch {
				t.Error("a rebooted node's /v1/breakdown diverged from the node that never crashed")
			}
			if scen.Redelivered == 0 {
				t.Error("crash-restart scenario lost (and redelivered) no uncommitted events")
			}
		case chaos.FaultReplicaLag:
			if scen.StaleFrontier <= 0 || scen.StaleFrontier >= scen.Total {
				t.Errorf("replica-lag stalled at frontier %d of %d — no stale window to serve from",
					scen.StaleFrontier, scen.Total)
			}
			if !scen.DigestMatch || !scen.BreakdownMatch {
				t.Errorf("healed replica diverged from the primary after lag: digest %v, breakdown %v", scen.DigestMatch, scen.BreakdownMatch)
			}
		case chaos.FaultPartition:
			if scen.Reconnects == 0 {
				t.Error("partition scenario severed no connections")
			}
			if !scen.DigestMatch || !scen.BreakdownMatch {
				t.Errorf("healed replica diverged from the primary after partitions: digest %v, breakdown %v", scen.DigestMatch, scen.BreakdownMatch)
			}
		}
	}
}

// TestMatrixSubsetSelection exercises the app/fault narrowing used by the
// CLI without paying for the full matrix.
func TestMatrixSubsetSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("assembles the pipeline twice")
	}
	d, err := simnet.Generate(simnet.Config{
		Seed: 5, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 6,
		Duration: 3 * 24 * time.Hour, BGPFlapIncidents: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := platform.BundleFromDataset(d)
	rep, err := chaos.RunMatrix(b, chaos.Config{Seed: 1}, chaos.Options{
		Apps:   []string{"bgpflap"},
		Faults: []chaos.Fault{chaos.FaultDuplicate},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Clean) != 1 || rep.Clean[0].App != "bgpflap" {
		t.Fatalf("clean block = %+v, want bgpflap only", rep.Clean)
	}
	if len(rep.Scenarios) != 1 || rep.Scenarios[0].Fault != string(chaos.FaultDuplicate) {
		t.Fatalf("scenarios = %+v, want duplicate only", rep.Scenarios)
	}

	if _, err := chaos.RunMatrix(b, chaos.Config{Seed: 1}, chaos.Options{Apps: []string{"nope"}}); err == nil {
		t.Fatal("unknown app name not rejected")
	}
}
