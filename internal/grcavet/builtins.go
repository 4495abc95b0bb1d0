package grcavet

import "grca/examples/specs"

// Builtin is one compiled-in application specification.
type Builtin struct {
	Name string
	Src  string
}

// Builtins lists the application specs embedded from examples/specs, in
// the order the grca CLI exposes the applications. A file missing from the
// embed vets as a parse error of an empty spec.
func Builtins() []Builtin {
	var out []Builtin
	for _, name := range []string{"bgpflap", "cdn", "cdnthroughput", "pim", "backbone"} {
		src, _ := specs.FS.ReadFile(name + ".grca")
		out = append(out, Builtin{name, string(src)})
	}
	return out
}
