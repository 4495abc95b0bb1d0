package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// concurrencyIDs are the five analyzers of the concurrency suite.
var concurrencyIDs = []string{"lockorder", "deferunlock", "atomicmix", "hookreentry", "goroutinelife"}

// loadBroken loads the deliberately-broken exemplar module under
// testdata/src as a Program. The allowlist sanctions one edge the
// exemplars exercise, so the goldens prove allowlisting works, and one
// they do not, so the goldens prove a stale edge is a finding.
func loadBroken(t *testing.T) *Program {
	t.Helper()
	l, err := NewLoader("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Walk()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 6 {
		t.Fatalf("Walk found %d packages in testdata/src, want ≥ 6: %v", len(paths), paths)
	}
	var passes []*Pass
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
		passes = append(passes, pkg.Pass(l.Fset))
	}
	prog := NewProgram(passes)
	prog.Allow, err = ParseAllowlist("testdata/src/lockorder.allow",
		"lockorder.A.mu -> lockorder.D.mu\nlockorder.D.mu -> lockorder.C.mu")
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// brokenDiagLines runs the full suite over the exemplars and renders the
// diagnostics with testdata/src-relative paths, grouped by analyzer.
func brokenDiagLines(t *testing.T) map[string][]string {
	t.Helper()
	diags := RunSuite(loadBroken(t), Analyzers())
	byID := map[string][]string{}
	for _, d := range diags {
		rel, err := filepath.Rel("testdata/src", d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		byID[d.Analyzer] = append(byID[d.Analyzer],
			fmt.Sprintf("%s:%d:%d: %s: %s", filepath.ToSlash(rel), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message))
	}
	return byID
}

// TestGoldens compares each analyzer's findings over the broken
// exemplars against its golden file. Run with -update to regenerate.
func TestGoldens(t *testing.T) {
	byID := brokenDiagLines(t)
	goldenIDs := append(append([]string{}, concurrencyIDs...), BadIgnore, "nakedtime", "instident", "rawmem", "deadcode")
	expected := map[string]bool{}
	for _, id := range goldenIDs {
		expected[id] = true
	}
	for id := range byID {
		if !expected[id] {
			t.Errorf("exemplars produced diagnostics for unexpected analyzer %q:\n%s",
				id, strings.Join(byID[id], "\n"))
		}
	}
	for _, id := range goldenIDs {
		got := strings.Join(byID[id], "\n") + "\n"
		path := filepath.Join("testdata", "golden", id+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run go test ./internal/lint -update to generate)", path, err)
		}
		if got != string(want) {
			t.Errorf("%s findings differ from %s:\n--- got ---\n%s--- want ---\n%s", id, path, got, want)
		}
	}
	for _, id := range concurrencyIDs {
		if len(byID[id]) < 2 {
			t.Errorf("%s has %d positive exemplars, want ≥ 2", id, len(byID[id]))
		}
	}
}

// TestSuppressedExemplars proves each concurrency analyzer (and
// nakedtime and deadcode) has a working //lint:ignore exemplar: the directive exists
// in testdata/src and no diagnostic for that ID survives on the
// directive's line or the line below it.
func TestSuppressedExemplars(t *testing.T) {
	diags := RunSuite(loadBroken(t), Analyzers())
	type dir struct {
		file string
		line int
	}
	directives := map[string][]dir{}
	re := regexp.MustCompile(`^//lint:ignore (\S+) \S`)
	err := filepath.WalkDir("testdata/src", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := re.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
				directives[m[1]] = append(directives[m[1]], dir{file: path, line: i + 1})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range append(append([]string{}, concurrencyIDs...), "nakedtime", "deadcode") {
		if len(directives[id]) == 0 {
			t.Errorf("no suppressed exemplar for %s in testdata/src", id)
			continue
		}
		for _, dd := range directives[id] {
			for _, diag := range diags {
				if diag.Analyzer != id {
					continue
				}
				if filepath.Clean(diag.Pos.Filename) == filepath.Clean(dd.file) &&
					(diag.Pos.Line == dd.line || diag.Pos.Line == dd.line+1) {
					t.Errorf("directive at %s:%d did not suppress %s", dd.file, dd.line, diag)
				}
			}
		}
	}
}

// TestSuiteCleanOnRepo is the zero-findings gate CI relies on: the full
// suite over the real module must be empty.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	l, paths := loadRepo(t)
	var passes []*Pass
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
		passes = append(passes, pkg.Pass(l.Fset))
	}
	diags := RunSuite(NewProgram(passes), Analyzers())
	for _, d := range diags {
		t.Errorf("repo finding: %s", d)
	}
}

// TestAllowlistMatchesDesign keeps lockorder.allow and the DESIGN.md §13
// lock-order table in lockstep.
func TestAllowlistMatchesDesign(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	i := strings.Index(doc, "## 13")
	if i < 0 {
		t.Fatal("DESIGN.md has no §13")
	}
	section := doc[i:]
	if j := strings.Index(section[3:], "\n## "); j >= 0 {
		section = section[:j+3]
	}
	re := regexp.MustCompile("(?m)^\\| `([^`]+)` +\\| `([^`]+)` +\\|")
	documented := map[[2]string]bool{}
	for _, m := range re.FindAllStringSubmatch(section, -1) {
		documented[[2]string{m[1], m[2]}] = true
	}
	allowed := DefaultAllowlist().Edges()
	for _, e := range allowed {
		if !documented[e] {
			t.Errorf("lockorder.allow edge %s -> %s is missing from the DESIGN.md §13 table", e[0], e[1])
		}
		delete(documented, e)
	}
	for e := range documented {
		t.Errorf("DESIGN.md §13 documents %s -> %s but lockorder.allow does not sanction it", e[0], e[1])
	}
	if len(allowed) == 0 {
		t.Error("embedded allowlist is empty")
	}
}
