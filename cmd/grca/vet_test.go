package main

import (
	"path/filepath"
	"testing"
	"time"

	"grca/internal/grcavet"
	"grca/internal/simnet"
)

// TestRunVetBuiltinsClean pins the CI contract: vetting the compiled-in
// specs and catalogue succeeds (info findings do not fail the run).
func TestRunVetBuiltinsClean(t *testing.T) {
	if err := runVet(nil); err != nil {
		t.Errorf("vet over builtins failed: %v", err)
	}
}

// TestRunVetBrokenSpecFails pins the other half: a spec with an
// error-level defect makes runVet return an error, which main turns into
// a non-zero exit.
func TestRunVetBrokenSpecFails(t *testing.T) {
	broken := filepath.Join("..", "..", "internal", "grcavet", "testdata", "graph-cycle.grca")
	if err := runVet([]string{broken}); err == nil {
		t.Error("vet accepted a spec with a causal cycle")
	}
}

// TestRunVetExampleSpecs vets the on-disk copies of the specs.
func TestRunVetExampleSpecs(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.grca"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no example specs: %v", err)
	}
	if err := runVet(specs); err != nil {
		t.Errorf("vet over example specs failed: %v", err)
	}
}

// TestRunVetValidate chains the example spec into the Correlation Tester
// (§II-E) over a generated bundle: the rules are tested and the summary
// printed, and -validate without a bundle to test them on is refused.
func TestRunVetValidate(t *testing.T) {
	dir := writeBundle(t, simnet.Config{
		Seed: 67, PoPs: 2, PERsPerPoP: 1, SessionsPerPER: 8,
		Duration: 4 * 24 * time.Hour, BGPFlapIncidents: 120,
	})
	spec := filepath.Join("..", "..", "examples", "specs", "bgpflap.grca")
	out := capture(t, func() error {
		return runVet([]string{"-validate", "-data", dir, spec})
	})
	// The seed-67 corpus has no instances of a few rules' events, and
	// every rule it can test is correlated.
	if !containsStr(out, "(0 errors) across 1 specs") || !containsStr(out, grcavet.CheckUntestable) || containsStr(out, grcavet.CheckUncorrelated) {
		t.Errorf("vet -validate output:\n%s", out)
	}
	if err := runVet([]string{"-validate", spec}); err == nil {
		t.Error("-validate without -data accepted")
	}
}
