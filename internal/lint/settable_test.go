package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagDefiners are the flag.FlagSet (and package flag) methods that
// register a flag, each with the index of its name argument.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "BoolFunc": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "UintVar": 1, "Uint64Var": 1, "TextVar": 1, "Var": 1,
}

// goFilesUnder parses every non-test Go file under dir of the repository,
// testdata excluded, and calls visit with its slash-separated directory
// relative to the repository root.
func goFilesUnder(t *testing.T, dir string, visit func(rel string, f *ast.File)) {
	t.Helper()
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		visit(filepath.ToSlash(rel), f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// settableFlags lists every flag a cmd/ program registers, as
// "<program> <function> -<flag>": a call to a flag-defining method whose
// name argument is a string literal.
func settableFlags(t *testing.T) []string {
	var out []string
	goFilesUnder(t, "cmd", func(rel string, f *ast.File) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				arg, ok := flagDefiners[sel.Sel.Name]
				if !ok || len(call.Args) <= arg {
					return true
				}
				lit, ok := call.Args[arg].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if name, err := strconv.Unquote(lit.Value); err == nil {
					out = append(out, rel+" "+fn.Name.Name+" -"+name)
				}
				return true
			})
		}
	})
	return out
}

// settableFields lists every exported field of every struct type named
// Config or Options under internal/, as "<package>.<type>.<field>".
func settableFields(t *testing.T) []string {
	var out []string
	goFilesUnder(t, "internal", func(rel string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || (ts.Name.Name != "Config" && ts.Name.Name != "Options") {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			for _, field := range st.Fields.List {
				names := field.Names
				if len(names) == 0 { // embedded: the field is named for its type
					typ := field.Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					switch x := typ.(type) {
					case *ast.Ident:
						names = []*ast.Ident{x}
					case *ast.SelectorExpr:
						names = []*ast.Ident{x.Sel}
					}
				}
				for _, name := range names {
					if name.IsExported() {
						out = append(out, rel+"."+ts.Name.Name+"."+name.Name)
					}
				}
			}
			return false
		})
	})
	return out
}

// TestSettableSurface pins every value an operator or a caller can set:
// the flags of the cmd/ programs and the exported fields of the internal
// Config and Options structs, one list in testdata/golden/settable.golden.
// A knob added or removed anywhere changes the list; run with -update to
// rewrite it, and say in the change why the surface grew.
func TestSettableSurface(t *testing.T) {
	flags, fields := settableFlags(t), settableFields(t)
	if len(flags) < 20 || len(fields) < 20 {
		t.Fatalf("found %d flags and %d fields: the scan no longer matches the sources", len(flags), len(fields))
	}
	sort.Strings(flags)
	sort.Strings(fields)
	got := "# flags\n" + strings.Join(flags, "\n") + "\n\n# Config and Options fields\n" + strings.Join(fields, "\n") + "\n"
	path := filepath.Join("testdata", "golden", "settable.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run go test ./internal/lint -run TestSettableSurface -update to generate)", path, err)
	}
	if got != string(want) {
		t.Errorf("the settable surface differs from %s (run with -update after saying why it changed):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
