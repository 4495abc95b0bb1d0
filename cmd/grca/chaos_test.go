package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grca/internal/simnet"
)

func TestChaosCommandDeterministicReport(t *testing.T) {
	dir := writeBundle(t, simnet.Config{
		Seed: 61, PoPs: 2, PERsPerPoP: 1, SessionsPerPER: 6,
		Duration: 2 * 24 * time.Hour, BGPFlapIncidents: 40,
	})
	args := []string{"-data", dir, "-seed", "5", "-apps", "bgpflap", "-faults", "duplicate,truncate"}
	run := func(out string) string {
		t.Helper()
		if err := runChaos(append(args, "-o", out)); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	r1 := run(filepath.Join(t.TempDir(), "a.json"))
	r2 := run(filepath.Join(t.TempDir(), "b.json"))
	if r1 != r2 {
		t.Fatal("chaos report not byte-identical across two runs of the same seed")
	}
	sum := sha256.Sum256([]byte(r1))
	if got, want := hex.EncodeToString(sum[:]), "6c3a3ca74990cc568fb6afb9f375ae566c069ed9414930d85b502cd2d60b1bae"; got != want {
		t.Errorf("report sha256 = %s, want %s\n%s", got, want, r1)
	}

	var rep struct {
		Seed      int64
		Clean     []struct{ App string }
		Scenarios []struct{ Fault string }
	}
	if err := json.Unmarshal([]byte(r1), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Seed != 5 || len(rep.Clean) != 1 || rep.Clean[0].App != "bgpflap" || len(rep.Scenarios) != 2 {
		t.Fatalf("unexpected report shape: %s", r1[:200])
	}

	out := capture(t, func() error { return runChaos(args) })
	if !strings.Contains(out, "\"Fault\": \"duplicate\"") {
		t.Fatalf("stdout report missing duplicate scenario:\n%s", out)
	}
}

func TestChaosCommandRejectsBadInput(t *testing.T) {
	if err := runChaos([]string{}); err == nil {
		t.Fatal("missing -data not rejected")
	}
	dir := writeBundle(t, simnet.Config{
		Seed: 62, PoPs: 2, PERsPerPoP: 1, SessionsPerPER: 4,
		Duration: 24 * time.Hour, BGPFlapIncidents: 5,
	})
	if err := runChaos([]string{"-data", dir, "-faults", "meteor"}); err == nil {
		t.Fatal("unknown fault class not rejected")
	}
	if err := runChaos([]string{"-data", dir, "-apps", "nope"}); err == nil {
		t.Fatal("unknown app not rejected")
	}
}
