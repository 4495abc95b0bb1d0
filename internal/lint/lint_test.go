package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// check type-checks one synthetic file as the package at path and runs
// every per-package analyzer, returning the diagnostics sorted by
// position.
func check(t *testing.T, path, src string) []Diagnostic {
	t.Helper()
	return checkFile(t, path, "src.go", src)
}

// checkFile is check with the file's name given.
func checkFile(t *testing.T, path, name, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return runPackage(&Pass{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info, Path: path})
}

// runPackage applies every per-package analyzer to the pass and returns
// the merged diagnostics sorted by position.
func runPackage(pass *Pass) []Diagnostic {
	var out []Diagnostic
	for _, a := range Analyzers() {
		if a.Run != nil {
			out = append(out, a.Run(pass)...)
		}
	}
	sortDiagnostics(out)
	return out
}

func assertDiags(t *testing.T, got []Diagnostic, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		if !strings.Contains(got[i].String(), w) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, got[i], w)
		}
	}
}

func TestNakedTime(t *testing.T) {
	src := `package p
import "time"
var began = time.Now()
func elapsed() time.Duration { return time.Since(began) }
`
	assertDiags(t, check(t, "grca/internal/fake", src),
		"nakedtime: naked time.Now", "nakedtime: naked time.Since")

	// Sanctioned packages: main and the obs package itself.
	assertDiags(t, check(t, "grca/cmd/fake", strings.Replace(src, "package p", "package main", 1)))
	assertDiags(t, check(t, "grca/internal/obs", src))
}

func TestNakedTimeResolvesImports(t *testing.T) {
	// A local type named time must not fool the analyzer, and an aliased
	// std import must still be caught.
	clean := `package p
type clock struct{}
func (clock) Now() int { return 0 }
var time clock
var x = time.Now()
`
	assertDiags(t, check(t, "grca/internal/fake", clean))

	aliased := `package p
import tm "time"
var x = tm.Now()
`
	assertDiags(t, check(t, "grca/internal/fake", aliased), "nakedtime: naked time.Now")
}

func TestUTCTime(t *testing.T) {
	bad := `package p
import "time"
var loc = time.FixedZone("x", 3600)
var a = time.Date(2010, 1, 1, 0, 0, 0, 0, loc)
var b = time.Now().In(time.Local)
`
	// One utctime for the zoned Date, then (in line order) a nakedtime for
	// the time.Now and a utctime for time.Local.
	assertDiags(t, check(t, "grca/internal/fake", bad),
		"utctime: time.Date in a non-UTC zone", "nakedtime", "utctime: time.Local")

	good := `package p
import "time"
var loc = time.FixedZone("x", 3600)
var a = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
var b = time.Date(2010, 1, 1, 0, 0, 0, 0, loc).UTC()
`
	assertDiags(t, check(t, "grca/internal/fake", good))
}

func TestNoPrint(t *testing.T) {
	src := `package p
import "fmt"
func f() {
	fmt.Println("boo")
	fmt.Printf("%d", 1)
	_ = fmt.Sprintf("ok")
	fmt.Errorf("ok")
}
`
	assertDiags(t, check(t, "grca/internal/fake", src),
		"noprint: fmt.Println", "noprint: fmt.Printf")
	// Outside internal/ (and in package main) printing is fine.
	assertDiags(t, check(t, "grca/cmd/fake", strings.Replace(src, "package p", "package main", 1)))
}

// TestRawMem: unsafe and syscall.Mmap/Munmap are findings anywhere but
// in grca/internal/store's pages*.go — another file of the store, or a
// pages.go of another package, is no exception.
func TestRawMem(t *testing.T) {
	src := `package p
import (
	"syscall"
	"unsafe"
)
var _ = unsafe.Sizeof(0)
func f(b []byte) error { return syscall.Munmap(b) }
`
	assertDiags(t, checkFile(t, "grca/internal/store", "pages_linux.go", src))
	assertDiags(t, checkFile(t, "grca/internal/store", "store.go", src),
		"rawmem: import of unsafe", "rawmem: syscall.Munmap")
	assertDiags(t, checkFile(t, "grca/internal/wal", "pages.go", src),
		"rawmem: import of unsafe", "rawmem: syscall.Munmap")
}

func TestMapIter(t *testing.T) {
	bad := `package p
import "fmt"
import "os"
func f(m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(os.Stderr, "%s=%d", k, v)
	}
}
`
	assertDiags(t, check(t, "grca/internal/fake", bad),
		"mapiter: Fprintf inside range over map")

	good := `package p
import (
	"fmt"
	"os"
	"sort"
)
func f(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "%s=%d", k, m[k])
	}
}
`
	assertDiags(t, check(t, "grca/internal/fake", good))
}

// TestLoaderOnRepo loads a real module package through the source loader
// and checks the Walk discovery covers the well-known packages.
func TestLoaderOnRepo(t *testing.T) {
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	if l.Module != "grca" {
		t.Fatalf("module = %q, want grca", l.Module)
	}
	pkg, err := l.Load("grca/internal/locus")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Pkg.Name() != "locus" || len(pkg.Files) == 0 {
		t.Errorf("loaded %q with %d files", pkg.Pkg.Name(), len(pkg.Files))
	}
	if ds := runPackage(pkg.Pass(l.Fset)); len(ds) != 0 {
		t.Errorf("locus has diagnostics: %v", ds)
	}

	paths, err := l.Walk()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range paths {
		seen[p] = true
	}
	for _, want := range []string{"grca/internal/engine", "grca/cmd/grca", "grca/cmd/grcalint", "grca/internal/lint"} {
		if !seen[want] {
			t.Errorf("Walk missed %s (got %d paths)", want, len(paths))
		}
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("Walk descended into testdata: %s", p)
		}
	}
}
