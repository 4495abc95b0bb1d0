package lint

import (
	"encoding/json"
	"io"
	"sort"
)

// A Program presents every type-checked package of one module to the
// whole-program analyzers. The concurrency checks (lockorder, hookreentry)
// need the cross-package view: the lock-acquisition edges this codebase
// cares about span store → rollup, store → wal, server → realtime.
type Program struct {
	Passes []*Pass
	// Allow is the sanctioned lock-order allowlist consulted by the
	// lockorder analyzer. Defaults to the embedded lockorder.allow.
	Allow *Allowlist
	// Partial marks a program that holds only some of the module's
	// packages: deadcode, which needs every caller, does not run on it,
	// and a //lint:ignore that suppresses nothing is not reported.
	Partial bool

	facts *facts
}

// NewProgram wraps the passes for whole-program analysis.
func NewProgram(passes []*Pass) *Program {
	return &Program{Passes: passes, Allow: DefaultAllowlist()}
}

// Facts computes (once) the shared concurrency facts: per-function lock
// operations, the static call graph, transitive lock acquisitions, and
// hook-field bindings.
func (p *Program) Facts() *facts {
	if p.facts == nil {
		p.facts = computeFacts(p)
	}
	return p.facts
}

// RunSuite applies every analyzer — per-package and whole-program — to the
// program, applies //lint:ignore suppressions, reports malformed ignore
// directives (and, on a whole program, those that suppress nothing) as
// badignore diagnostics, and returns the survivors sorted by position.
func RunSuite(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		switch {
		case a.RunProgram != nil:
			out = append(out, a.RunProgram(prog)...)
		case a.Run != nil:
			for _, pass := range prog.Passes {
				out = append(out, a.Run(pass)...)
			}
		}
	}
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	dirs := collectDirectives(prog)
	out = applySuppressions(dirs, known, out, !prog.Partial)
	sortDiagnostics(out)
	return out
}

// Envelope is the JSON shape shared with `grca vet -json`
// (grcavet.Finding): downstream tooling can merge the two streams. The
// field set and tags are asserted identical by a cross-tool schema test.
type Envelope struct {
	Check   string `json:"check"`
	Level   string `json:"level"`
	File    string `json:"file"`
	Line    int    `json:"line,omitempty"`
	Subject string `json:"subject,omitempty"`
	Message string `json:"message"`
}

// Envelope converts the diagnostic to the shared JSON envelope. Every
// lint diagnostic gates CI, so the level is always "error".
func (d Diagnostic) Envelope() Envelope {
	return Envelope{
		Check:   d.Analyzer,
		Level:   "error",
		File:    d.Pos.Filename,
		Line:    d.Pos.Line,
		Message: d.Message,
	}
}

// WriteJSON writes the diagnostics as an indented JSON array of envelopes
// ("[]" when empty), mirroring `grca vet -json`.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	envs := make([]Envelope, 0, len(diags))
	for _, d := range diags {
		envs = append(envs, d.Envelope())
	}
	sort.SliceStable(envs, func(i, j int) bool {
		if envs[i].File != envs[j].File {
			return envs[i].File < envs[j].File
		}
		return envs[i].Line < envs[j].Line
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(envs)
}
