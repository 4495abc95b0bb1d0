package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestServeFlagsMatchREADME holds README's "Serve flags" table to the
// flags serve registers, both ways, so a removed knob cannot linger in
// the docs and a new one cannot ship undocumented.
func TestServeFlagsMatchREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### Serve flags\n")
	if !ok {
		t.Fatal("README has no \"### Serve flags\" section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\|").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	serveFlags(new(serveOptions)).VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			t.Errorf("serve registers -%s but README's flag table does not name it", f.Name)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("README's flag table names -%s but serve does not register it", name)
	}
}
