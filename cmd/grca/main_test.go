package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grca/internal/platform"
	"grca/internal/simnet"
)

// writeBundle generates a small corpus on disk for CLI tests.
func writeBundle(t *testing.T, cfg simnet.Config) string {
	t.Helper()
	d, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "corpus")
	if err := platform.Save(dir, platform.BundleFromDataset(d)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// capture redirects stdout around fn and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outc := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		outc <- string(data)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-outc
	r.Close()
	if runErr != nil {
		t.Fatalf("command failed: %v\noutput: %s", runErr, out)
	}
	return out
}

func TestRunBGPFlapCommand(t *testing.T) {
	dir := writeBundle(t, simnet.Config{
		Seed: 61, PoPs: 2, PERsPerPoP: 1, SessionsPerPER: 6,
		Duration: 2 * 24 * time.Hour, BGPFlapIncidents: 40,
	})
	out := capture(t, func() error {
		return runApp([]string{"bgpflap", "-data", dir, "-score", "-show", "1"})
	})
	for _, want := range []string{"Root Cause Breakdown of BGP Flaps", "symptoms diagnosed", "ground truth:", "root cause:"} {
		if !containsStr(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTraceFlag(t *testing.T) {
	dir := writeBundle(t, simnet.Config{
		Seed: 61, PoPs: 2, PERsPerPoP: 1, SessionsPerPER: 6,
		Duration: 2 * 24 * time.Hour, BGPFlapIncidents: 40,
	})
	out := capture(t, func() error {
		return runApp([]string{"bgpflap", "-data", dir, "-trace", "-slowest", "2"})
	})
	for _, want := range []string{"Slowest 2 diagnoses", "diagnose ", "rule ", "reason"} {
		if !containsStr(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestStatsCommand(t *testing.T) {
	dir := writeBundle(t, simnet.Config{
		Seed: 61, PoPs: 2, PERsPerPoP: 1, SessionsPerPER: 6,
		Duration: 2 * 24 * time.Hour, BGPFlapIncidents: 40,
	})
	out := capture(t, func() error {
		return runStats([]string{"bgpflap", "-data", dir})
	})
	for _, want := range []string{
		"symptoms diagnosed",
		"streaming processor",
		"collector.parsed",
		"store.queries",
		"engine.diagnose.seconds",
		"realtime.diagnosed",
		"p95",
	} {
		if !containsStr(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	if err := runStats(nil); err == nil {
		t.Error("stats without app accepted")
	}
	if err := runStats([]string{"bgpflap"}); err == nil {
		t.Error("stats without -data accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if err := runApp(nil); err == nil {
		t.Error("missing app accepted")
	}
	if err := runApp([]string{"nope", "-data", "x"}); err == nil {
		t.Error("unknown app accepted")
	}
	if err := runApp([]string{"bgpflap"}); err == nil {
		t.Error("missing -data accepted")
	}
	if err := runApp([]string{"bgpflap", "-data", t.TempDir()}); err == nil {
		t.Error("empty bundle dir accepted")
	}
	if err := runBayes(nil); err == nil {
		t.Error("bayes without -data accepted")
	}
	// The one value -shards still takes is 1; the refusal comes before the
	// bundle or the data dir is looked at, and says where to read why.
	dir := filepath.Join(t.TempDir(), "never-created")
	for _, n := range []string{"0", "2"} {
		err := runServe([]string{"-data-dir", dir, "-bundle", dir, "-shards", n})
		if err == nil || !containsStr(err.Error(), "DESIGN.md §15") {
			t.Errorf("serve -shards %s: err = %v, want a refusal naming DESIGN.md §15", n, err)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("a refused serve created its data dir")
	}
}

func TestListCommands(t *testing.T) {
	out := capture(t, listEvents)
	if !containsStr(out, "Link congestion alarm") || !containsStr(out, "Table I") {
		t.Errorf("events listing:\n%s", out)
	}
	out = capture(t, listRules)
	if !containsStr(out, "55 rules") {
		t.Errorf("rules listing:\n%s", out)
	}
}

func TestBayesCommand(t *testing.T) {
	dir := writeBundle(t, simnet.Config{
		Seed: 71, PoPs: 2, PERsPerPoP: 1, SessionsPerPER: 10,
		Duration: 2 * 24 * time.Hour, BGPFlapIncidents: 30, LineCardCrash: true,
	})
	out := capture(t, func() error {
		return runBayes([]string{"-data", dir})
	})
	if !containsStr(out, "Line-card Issue") || !containsStr(out, "1 groups flagged") {
		t.Errorf("bayes output:\n%s", out)
	}
}

func containsStr(haystack, needle string) bool { return strings.Contains(haystack, needle) }
