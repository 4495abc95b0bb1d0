package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docs are the documents held against the tree. (bench/README.md joins
// them once the benchmark may change again; ROADMAP item 1.)
var docs = []string{"DESIGN.md", "README.md"}

var (
	codeSpan   = regexp.MustCompile("`([^`\n]+)`")
	testRef    = regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z]\w*)(\*?)`)
	flagRef    = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(?:=.*)?$`)
	testFunc   = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	flagDefine = regexp.MustCompile(`\b(?:flag|fs)\.(?:String|Int|Int64|Bool|Duration)(?:Var)?\((?:&[\w.]+, )?"([a-z][a-z0-9-]*)"`)
)

// toolFlags are the flags of tools outside this tree (go test, gofmt) that
// the documents name.
var toolFlags = map[string]bool{"benchmem": true, "l": true, "race": true, "run": true}

// sourcesUnder collects what re captures in every Go file under the given
// directories of the repository that keep names: test files, or all others.
func sourcesUnder(t *testing.T, re *regexp.Regexp, tests bool, dirs ...string) map[string]bool {
	t.Helper()
	found := map[string]bool{}
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join("../..", dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && (d.Name() == "testdata" || d.Name() == ".git") {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
				return nil
			}
			data, err := os.ReadFile(path)
			for _, m := range re.FindAllSubmatch(data, -1) {
				found[string(m[1])] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return found
}

// TestDocsNameWhatExists: every test, fuzz target or benchmark that
// DESIGN.md or README.md names in a code span exists in the tree (a
// trailing * makes the name a prefix), and so does every -flag: as a flag
// some command under cmd/ or bench/ defines, or one of toolFlags. A
// document that cites a deleted test as the holder of an invariant, or a
// flag that no longer parses, fails here instead of rotting.
func TestDocsNameWhatExists(t *testing.T) {
	tests := sourcesUnder(t, testFunc, true, ".")
	flags := sourcesUnder(t, flagDefine, false, "cmd", "bench")
	if len(tests) < 100 || !flags["data-dir"] {
		t.Fatalf("the tree scan found %d tests and %d flags: the patterns no longer match the sources", len(tests), len(flags))
	}
	for _, doc := range docs {
		data, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		refs := 0
		for _, span := range codeSpan.FindAllStringSubmatch(string(data), -1) {
			for _, m := range testRef.FindAllStringSubmatch(span[1], -1) {
				refs++
				ok := tests[m[1]]
				for name := range tests {
					ok = ok || (m[2] == "*" && strings.HasPrefix(name, m[1]))
				}
				if !ok {
					t.Errorf("%s names `%s%s`, which is not in the tree", doc, m[1], m[2])
				}
			}
			for _, tok := range strings.Fields(span[1]) {
				if m := flagRef.FindStringSubmatch(tok); m != nil && !flags[m[1]] && !toolFlags[m[1]] {
					t.Errorf("%s names the flag `%s`, which no command in the tree defines", doc, tok)
				}
			}
		}
		if refs == 0 {
			t.Errorf("%s names no test at all: the patterns no longer match the document", doc)
		}
	}
}
