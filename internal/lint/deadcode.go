package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadCode flags package-level declarations of internal packages — funcs,
// methods, types, vars and consts, exported or not — that no non-test
// file of the module references. An internal package (one under an
// "internal" path element) is the kind whose every possible caller the
// module holds, so an unreferenced declaration there is proof of dead
// code; the roots (package main under cmd/, examples/ and bench/) are
// checked as callers only. A reference through an instantiation of a
// generic type or function counts for its origin. A method whose name is
// a method of any interface type in the program (the module's own, or
// those of the packages it imports: sort.Interface, io.Writer, error, ...)
// is exempt: it may be reached only through the interface. A
// declaration's references to itself, and a method's to its receiver
// type, do not make it live. A declaration a test needs as a seam carries
// //lint:ignore deadcode <the test or benchmark that needs it>.
// The finding needs the whole module: a Program that holds only some of
// its packages (Partial) is not checked.
var DeadCode = &Analyzer{
	Name:       "deadcode",
	Doc:        "flags package-level funcs, methods, types, vars and consts of internal packages that no non-test file of the module references",
	RunProgram: runDeadCode,
}

func runDeadCode(prog *Program) []Diagnostic {
	if prog.Partial {
		return nil
	}
	used := map[types.Object]bool{}
	ifaceMethods := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if t == nil {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var scanPkg func(*types.Package)
	scanPkg = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			scanPkg(imp)
		}
	}
	mark := func(info *types.Info, self map[types.Object]bool, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := origin(info.Uses[n]); obj != nil && !self[obj] {
					used[obj] = true
				}
			case *ast.InterfaceType:
				addIface(info.TypeOf(n))
			}
			return true
		})
	}
	type decl struct {
		pass *Pass
		id   *ast.Ident
		kind string
	}
	var decls []decl
	for _, pass := range prog.Passes {
		scanPkg(pass.Pkg)
		internal := strings.Contains("/"+pass.Path+"/", "/internal/")
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					// A method's receiver names its own type; the
					// signature and body are what it references.
					self := map[types.Object]bool{pass.Info.Defs[d.Name]: true}
					kind := "func"
					if d.Recv != nil {
						self[receiverType(pass.Info.TypeOf(d.Recv.List[0].Type))] = true
						kind = "method"
					}
					mark(pass.Info, self, d.Type)
					if d.Body != nil {
						mark(pass.Info, self, d.Body)
					}
					if internal && (d.Recv != nil || d.Name.Name != "init") {
						decls = append(decls, decl{pass, d.Name, kind})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						self := map[types.Object]bool{}
						for _, id := range specNames(spec) {
							self[pass.Info.Defs[id]] = true
							if internal && id.Name != "_" {
								decls = append(decls, decl{pass, id, d.Tok.String()})
							}
						}
						mark(pass.Info, self, spec)
					}
				}
			}
		}
	}
	var out []Diagnostic
	for _, d := range decls {
		if used[d.pass.Info.Defs[d.id]] || (d.kind == "method" && ifaceMethods[d.id.Name]) {
			continue
		}
		out = append(out, d.pass.diag("deadcode", d.id.Pos(),
			"%s %s is referenced by no non-test file; delete it, or name the test that needs it with //lint:ignore deadcode <test>", d.kind, d.id.Name))
	}
	return out
}

// specNames returns the names a type, var or const spec declares.
func specNames(spec ast.Spec) []*ast.Ident {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	case *ast.ValueSpec:
		return s.Names
	}
	return nil
}

// receiverType returns the declared type of a method receiver (T or *T).
func receiverType(t types.Type) types.Object {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// origin maps a reference through an instantiation to the declared object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
