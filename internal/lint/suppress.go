package lint

// //lint:ignore handling. A directive of the form
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line immediately above it
// suppresses that analyzer's diagnostics there. The reason is mandatory
// and the analyzer ID must exist: a malformed directive suppresses
// nothing and is itself reported under the badignore ID, and so is a
// well-formed one with no finding of its analyzer to suppress, so dead or
// typo'd escape hatches cannot silently accumulate.

import (
	"go/token"
	"strconv"
	"strings"
)

// BadIgnore is the analyzer ID under which malformed //lint:ignore
// directives are reported. It is reserved: badignore diagnostics cannot
// themselves be suppressed.
const BadIgnore = "badignore"

type directive struct {
	pos    token.Position
	id     string
	reason string
}

// collectDirectives scans every file's comments for lint:ignore
// directives.
func collectDirectives(prog *Program) []directive {
	var dirs []directive
	for _, pass := range prog.Passes {
		for _, f := range pass.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					fields := strings.Fields(text)
					d := directive{pos: pass.Fset.Position(c.Pos())}
					if len(fields) > 0 {
						d.id = fields[0]
					}
					if len(fields) > 1 {
						d.reason = strings.Join(fields[1:], " ")
					}
					dirs = append(dirs, d)
				}
			}
		}
	}
	return dirs
}

// applySuppressions filters diagnostics matched by a well-formed
// directive and appends a badignore diagnostic for each malformed one,
// and, when stale is set, for each well-formed one that matched nothing.
// known maps valid analyzer IDs.
func applySuppressions(dirs []directive, known map[string]bool, diags []Diagnostic, stale bool) []Diagnostic {
	var good []directive
	var out []Diagnostic
	for _, d := range dirs {
		switch {
		case d.id == "":
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: BadIgnore,
				Message: "//lint:ignore needs an analyzer ID and a reason"})
		case d.id == BadIgnore || !known[d.id]:
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: BadIgnore,
				Message: "//lint:ignore names unknown analyzer " + strconv.Quote(d.id)})
		case d.reason == "":
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: BadIgnore,
				Message: "//lint:ignore " + d.id + " is missing a reason; say why the finding is safe"})
		default:
			good = append(good, d)
		}
	}
	used := make([]bool, len(good))
	for _, diag := range diags {
		if !suppressed(good, used, diag) {
			out = append(out, diag)
		}
	}
	for i, d := range good {
		if stale && !used[i] {
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: BadIgnore,
				Message: "//lint:ignore " + d.id + " suppresses nothing; delete it"})
		}
	}
	return out
}

// suppressed reports whether a directive covers d, marking each one that
// does in used.
func suppressed(dirs []directive, used []bool, d Diagnostic) bool {
	hit := false
	for i, dir := range dirs {
		if dir.id != d.Analyzer || dir.pos.Filename != d.Pos.Filename {
			continue
		}
		if d.Pos.Line == dir.pos.Line || d.Pos.Line == dir.pos.Line+1 {
			used[i], hit = true, true
		}
	}
	return hit
}
