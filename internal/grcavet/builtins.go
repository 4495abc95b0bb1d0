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

// CheckBuiltins vets every compiled-in application spec plus the shipped
// rule catalogue — the pre-release gate run by `grca vet` with no
// arguments and by CI. Findings are attributed to "builtin:<name>" and
// "catalogue" pseudo-files.
func CheckBuiltins(opts Options) []Finding {
	var all []Finding
	for _, b := range Builtins() {
		all = append(all, CheckSource("builtin:"+b.Name, b.Src, opts)...)
	}
	all = append(all, CheckCatalogue(opts)...)
	return all
}
