// Package lint is a small, dependency-free static-analysis framework for
// this repository, plus the project's custom analyzers. It fills the role
// of golang.org/x/tools/go/analysis without the dependency: packages are
// parsed with go/parser, type-checked with go/types against a
// source-level importer (loader.go), and each Analyzer's Run inspects the
// typed syntax and reports Diagnostics.
//
// The analyzers encode project invariants that ordinary `go vet` cannot
// see:
//
//   - nakedtime: the pipeline reads wall time through obs.Now/obs.Since so
//     replays and tests can substitute a deterministic clock; a naked
//     time.Now() in internal/ silently escapes that control.
//   - utctime: every feed in the paper's Data Collector normalizes device
//     timestamps to UTC (router syslog arrives in four device-local
//     zones); constructing a time.Time in any other zone reintroduces the
//     exact class of correlation bug the normalizer exists to prevent.
//   - noprint: internal packages must not write to stdout behind the
//     report writers' backs; fmt.Print* belongs to package main.
//   - mapiter: report/emit paths that iterate a map while writing output
//     produce nondeterministically ordered reports — sort the keys first.
//   - instident: the store hands out copies, so two *event.Instance
//     pointers to one stored event differ; identity is the ID.
//   - rawmem: unsafe and syscall.Mmap/Munmap stay inside the store's page
//     allocator (grca/internal/store's pages*.go), the one owner of
//     memory the collector cannot see.
//
// On top of the style checks sits the concurrency-correctness suite
// (DESIGN.md §13): lockorder, deferunlock, atomicmix, hookreentry, and
// goroutinelife, built on whole-program facts (facts.go, lockgraph.go).
// Last comes deadcode (deadcode.go): a package-level declaration of an
// internal package that no non-test file of the module references is a
// finding. All of them are gated by the shared //lint:ignore suppression
// core (suppress.go), which also reports a directive that suppresses
// nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass presents one type-checked package to an analyzer.
type Pass struct {
	Fset *token.FileSet
	// Files are the package's non-test compilation units.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Path is the package's import path (e.g. "grca/internal/engine").
	Path string
}

func (p *Pass) diag(analyzer string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// An Analyzer is one named check. Per-package analyzers set Run; whole-
// program analyzers (those that need the cross-package lock and call-graph
// facts) set RunProgram instead. Exactly one of the two is non-nil.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass) []Diagnostic
	RunProgram func(*Program) []Diagnostic
}

// Analyzers returns the project's checks in stable order: the original
// style checks first, then the concurrency-correctness suite, then
// deadcode.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NakedTime, UTCTime, NoPrint, MapIter, InstIdent, RawMem,
		LockOrder, DeferUnlock, AtomicMix, HookReentry, GoroutineLife,
		DeadCode,
	}
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// stdPkgFunc reports whether the call expression invokes pkgPath.name —
// resolved through the type checker, so aliased imports and shadowed
// identifiers are handled correctly.
func stdPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return selectsPackage(info, sel, pkgPath)
}

// selectsPackage reports whether sel.X names the given package.
func selectsPackage(info *types.Info, sel *ast.SelectorExpr, pkgPath string) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// clockSanctioned reports whether the package may read the wall clock
// directly: package main (the CLIs and examples own the process) and the
// obs package, which defines the sanctioned clock.
func clockSanctioned(pass *Pass) bool {
	return pass.Pkg.Name() == "main" || pass.Path == "grca/internal/obs"
}

// NakedTime flags direct time.Now (and time.Since, its hidden twin)
// calls outside the sanctioned packages.
var NakedTime = &Analyzer{
	Name: "nakedtime",
	Doc:  "flags time.Now/time.Since outside package main and grca/internal/obs; use obs.Now/obs.Since",
	Run: func(pass *Pass) []Diagnostic {
		if clockSanctioned(pass) {
			return nil
		}
		var out []Diagnostic
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, fn := range []string{"Now", "Since"} {
					if stdPkgFunc(pass.Info, call, "time", fn) {
						out = append(out, pass.diag("nakedtime", call.Pos(),
							"naked time.%s: use obs.%s so tests and replays control the clock", fn, fn))
					}
				}
				return true
			})
		}
		return out
	},
}

// UTCTime flags time.Time construction in non-UTC zones: time.Date whose
// location argument is not time.UTC (unless the result is immediately
// converted with .UTC()), and any mention of time.Local.
var UTCTime = &Analyzer{
	Name: "utctime",
	Doc:  "flags time.Date in non-UTC zones and uses of time.Local; the pipeline normalizes all timestamps to UTC",
	Run: func(pass *Pass) []Diagnostic {
		var out []Diagnostic
		for _, f := range pass.Files {
			// A time.Date call is exempt when its value is immediately
			// normalized: time.Date(..., loc).UTC().
			exempt := map[*ast.CallExpr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "UTC" {
					if inner, ok := sel.X.(*ast.CallExpr); ok {
						exempt[inner] = true
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if stdPkgFunc(pass.Info, n, "time", "Date") && !exempt[n] && len(n.Args) == 8 {
						if sel, ok := n.Args[7].(*ast.SelectorExpr); !ok || sel.Sel.Name != "UTC" || !selectsPackage(pass.Info, sel, "time") {
							out = append(out, pass.diag("utctime", n.Pos(),
								"time.Date in a non-UTC zone: normalize with time.UTC or convert immediately with .UTC()"))
						}
					}
				case *ast.SelectorExpr:
					if n.Sel.Name == "Local" && selectsPackage(pass.Info, n, "time") {
						out = append(out, pass.diag("utctime", n.Pos(),
							"time.Local leaks the host zone into the pipeline; all timestamps are UTC"))
					}
				}
				return true
			})
		}
		return out
	},
}

// NoPrint flags fmt.Print/Printf/Println in internal packages: implicit
// stdout writes belong to package main and the report writers.
var NoPrint = &Analyzer{
	Name: "noprint",
	Doc:  "flags fmt.Print* in grca/internal/...; write through an io.Writer or the obs layer instead",
	Run: func(pass *Pass) []Diagnostic {
		if !strings.HasPrefix(pass.Path, "grca/internal/") || pass.Pkg.Name() == "main" {
			return nil
		}
		var out []Diagnostic
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, fn := range []string{"Print", "Printf", "Println"} {
					if stdPkgFunc(pass.Info, call, "fmt", fn) {
						out = append(out, pass.diag("noprint", call.Pos(),
							"fmt.%s writes to stdout from an internal package; take an io.Writer", fn))
					}
				}
				return true
			})
		}
		return out
	},
}

// emitCall reports whether the call looks like an output operation:
// Print/Fprint/Write families, resolved by method or function name.
func emitCall(call *ast.CallExpr) (string, bool) {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
	default:
		return "", false
	}
	for _, prefix := range []string{"Print", "Fprint", "Write"} {
		if strings.HasPrefix(name, prefix) {
			return name, true
		}
	}
	return "", false
}

// MapIter flags for-range loops over maps whose bodies emit output: map
// iteration order is randomized per run, so such loops produce
// nondeterministically ordered reports. Collect the keys, sort, then emit.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "flags range-over-map loops that write output in the loop body; iteration order is nondeterministic",
	Run: func(pass *Pass) []Diagnostic {
		var out []Diagnostic
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.Info.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				ast.Inspect(rng.Body, func(m ast.Node) bool {
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					if name, ok := emitCall(call); ok {
						out = append(out, pass.diag("mapiter", call.Pos(),
							"%s inside range over map: iteration order is nondeterministic; sort the keys first", name))
					}
					return true
				})
				return true
			})
		}
		return out
	},
}
