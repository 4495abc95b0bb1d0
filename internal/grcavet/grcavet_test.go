package grcavet

import (
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"grca/examples/specs"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// checkIDs lists every check the vetter can emit, in catalogue order
// (DESIGN.md §8).
var checkIDs = []string{
	CheckParseError, CheckUndefinedEvent, CheckRedefineUnknown,
	CheckShadowsLibrary, CheckDuplicateEvent, CheckUnknownUse,
	CheckDuplicateEdge, CheckShadowedEdge, CheckGraphCycle,
	CheckUnreachableRule, CheckJoinSymptom, CheckJoinDiagnostic,
	CheckEmptyWindow, CheckRetention, CheckSNMPMargin,
	CheckPriorityInverted, CheckNegativePriority, CheckUnusedEvent,
	CheckRootNoRules, CheckLabelUnknown, CheckUncorrelated, CheckUntestable,
}

// TestCorpus runs every deliberately broken spec in testdata/ through the
// vetter and compares the rendered findings against its .want golden. The
// corpus has one file per check ID, named after it (a second case of one
// check is <check>.<case>.grca), so the test also asserts that each file
// actually triggers its namesake check with full file:line provenance.
func TestCorpus(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("testdata", "*.grca"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no corpus specs found: %v", err)
	}
	ids := map[string]bool{}
	for _, id := range checkIDs {
		ids[id] = true
	}
	for _, path := range specs {
		name := strings.TrimSuffix(filepath.Base(path), ".grca")
		check, _, _ := strings.Cut(name, ".")
		t.Run(name, func(t *testing.T) {
			if !ids[check] {
				t.Fatalf("corpus file %q is not named after a check ID", path)
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			findings := CheckSource(filepath.Base(path), string(src), Options{})

			var hit bool
			for _, f := range findings {
				if f.File != filepath.Base(path) {
					t.Errorf("finding without file provenance: %+v", f)
				}
				if f.Line < 1 {
					t.Errorf("finding without line provenance: %+v", f)
				}
				if f.Check == check {
					hit = true
				}
			}
			if !hit {
				t.Errorf("spec %s did not trigger its namesake check; got %v", path, findings)
			}

			var b strings.Builder
			for _, f := range findings {
				b.WriteString(f.String())
				b.WriteString("\n")
			}
			golden := strings.TrimSuffix(path, ".grca") + ".want"
			if *update {
				if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("findings mismatch for %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestCorpusCoversChecks asserts the corpus exercises a broad slice of the
// catalogue: at least 8 distinct statically-reachable check IDs, per the
// vet design contract.
func TestCorpusCoversChecks(t *testing.T) {
	specs, _ := filepath.Glob(filepath.Join("testdata", "*.grca"))
	covered := map[string]bool{}
	for _, path := range specs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range CheckSource(filepath.Base(path), string(src), Options{}) {
			covered[f.Check] = true
		}
	}
	if len(covered) < 8 {
		t.Errorf("corpus covers only %d distinct check IDs: %v", len(covered), covered)
	}
}

// TestBuiltinsClean is the release gate: the shipped application specs —
// every file embedded from examples/specs, the bytes CI also vets on disk
// — and the Table II rule catalogue must produce no warnings or errors.
// (Info findings are tolerated — cdn deliberately defines the Table V
// throughput event its RTT graph does not reference.)
func TestBuiltinsClean(t *testing.T) {
	files, err := fs.Glob(specs.FS, "*.grca")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, b := range Builtins() {
		names = append(names, b.Name+".grca")
	}
	sort.Strings(names)
	if strings.Join(names, " ") != strings.Join(files, " ") {
		t.Errorf("builtins %v, embedded spec files %v", names, files)
	}
	findings := CheckCatalogue(Options{})
	for _, b := range Builtins() {
		findings = append(findings, CheckSource("builtin:"+b.Name, b.Src, Options{})...)
	}
	for _, f := range findings {
		if f.Severity >= Warning {
			t.Errorf("shipped spec is not vet-clean: %s", f)
		} else {
			t.Logf("info: %s", f)
		}
	}
}

// TestExamplesClean vets the standalone spec files shipped under
// examples/specs on disk — the same files CI feeds to `grca vet`.
func TestExamplesClean(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.grca"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("no example specs found under examples/specs")
	}
	for _, path := range specs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range CheckSource(path, string(src), Options{}) {
			if f.Severity >= Warning {
				t.Errorf("example spec is not vet-clean: %s", f)
			}
		}
	}
}

// TestSeverityAggregates pins the helper semantics the CLI's exit code
// depends on.
func TestSeverityAggregates(t *testing.T) {
	fs := []Finding{
		{Check: CheckUnusedEvent, Severity: Info},
		{Check: CheckRootNoRules, Severity: Warning},
		{Check: CheckGraphCycle, Severity: Error},
		{Check: CheckUndefinedEvent, Severity: Error},
	}
	if got := ErrorCount(fs); got != 2 {
		t.Errorf("ErrorCount = %d, want 2", got)
	}
	if got := MaxSeverity(fs); got != Error {
		t.Errorf("MaxSeverity = %v, want error", got)
	}
	if got := MaxSeverity(nil); got != Info {
		t.Errorf("MaxSeverity(nil) = %v, want info", got)
	}
	if Info.String() != "info" || Warning.String() != "warning" || Error.String() != "error" {
		t.Errorf("severity names wrong: %v %v %v", Info, Warning, Error)
	}
}
