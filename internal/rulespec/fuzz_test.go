package rulespec

import (
	"io/fs"
	"regexp"
	"strings"
	"testing"

	"grca/examples/specs"
)

// errLine matches the "line N" provenance every Parse error must carry.
var errLine = regexp.MustCompile(`line [0-9]+`)

// FuzzParse asserts the specification parser never panics, that any
// successfully parsed specification carries its declared header fields,
// and that every parse error names the source line it occurred on.
func FuzzParse(f *testing.F) {
	f.Add(`app "x" root "r"`)
	f.Add(bgpSpec)
	f.Add(`app "x" root "r" event "e" { loctype router source syslog desc "d" }`)
	f.Add(`app "x" root "r" rule "a" <- "b" { priority 1 join router symptom start/start expand 180s 5s }`)
	f.Add(`app "x" root "r" use "a" <- "b" priority 3`)
	f.Add("app \"x\" root \"r\" # comment\n<-{}\"")
	f.Add(`app "x" root "r" event "e" { desc "\t\n\\\"" loctype router }`)
	// Inputs that historically surfaced errors without line provenance:
	// semantic (Validate) failures after a syntactically valid statement.
	f.Add("app \"x\" root \"r\"\nevent \"e\" {\n}")                    // missing loctype
	f.Add("app \"x\" root \"r\"\nrule \"a\" <- \"a\" { priority 1 }")  // self-loop
	f.Add("app \"x\" root \"r\"\nredefine event \"e\" { desc \"d\" }") // invalid redefine
	// Line-accounting stress: comments, CRLF, negative durations, and
	// statements whose diagnostics must name the right line.
	f.Add("app \"x\" root \"r\"\r\n# c\r\nrule \"a\" <- \"b\" {\r\n    priority 1\r\n}")
	f.Add("app \"x\" root \"r\"\n\n\n\"unterminated")
	f.Add("app \"x\" root \"r\"\nrule \"a\" <- \"b\" { symptom start/start expand -10s -10s }")
	f.Add("app \"x\" root \"r\"\nevent \"e\" { loctype router } event \"e\" { loctype router }")
	// The shipped applications, title and label statements included.
	files, err := fs.Glob(specs.FS, "*.grca")
	if err != nil || len(files) == 0 {
		f.Fatalf("no embedded specs: %v", err)
	}
	for _, name := range files {
		src, err := specs.FS.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse(src)
		if err != nil {
			if !errLine.MatchString(err.Error()) {
				t.Errorf("parse error without line provenance: %v (input %q)", err, src)
			}
			return
		}
		if spec.Name == "" && spec.Root == "" && !strings.Contains(src, `""`) {
			t.Errorf("parsed spec with empty header from %q", src)
		}
		for _, r := range spec.Rules {
			if r.Symptom == "" || r.Diagnostic == "" || !r.JoinLevel.Valid() {
				t.Errorf("invalid rule survived parsing: %+v", r)
			}
			if r.Line < 1 {
				t.Errorf("rule without line provenance: %+v", r)
			}
		}
		for _, e := range spec.Events {
			if e.Validate() != nil {
				t.Errorf("invalid event survived parsing: %+v", e)
			}
			if e.Line < 1 {
				t.Errorf("event without line provenance: %+v", e)
			}
		}
		for _, u := range spec.Uses {
			if u.Line < 1 {
				t.Errorf("use without line provenance: %+v", u)
			}
		}
		raws := map[string]bool{}
		for _, l := range spec.Labels {
			if l.Line < 1 || raws[l.Raw] {
				t.Errorf("label without line provenance or repeated: %+v", l)
			}
			raws[l.Raw] = true
		}
	})
}
