package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// InstIdent flags == and != between two *event.Instance operands. Every
// store read hands out a fresh copy (DESIGN.md §3), so two pointers to
// the same stored event are almost never equal: a pointer comparison
// silently stops matching. The store assigns each event a unique ID, and
// identity is that ID.
var InstIdent = &Analyzer{
	Name: "instident",
	Doc:  "flags ==/!= between two *event.Instance values; store reads are copies, so compare .ID",
	Run: func(pass *Pass) []Diagnostic {
		var out []Diagnostic
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if instancePtr(pass.Info.TypeOf(be.X)) && instancePtr(pass.Info.TypeOf(be.Y)) {
					out = append(out, pass.diag("instident", be.OpPos,
						"*event.Instance compared with %s: store reads are copies, so compare the IDs", be.Op))
				}
				return true
			})
		}
		return out
	},
}

// instancePtr reports whether t is a pointer to the Instance type of a
// package named event.
func instancePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Instance" && obj.Pkg() != nil && obj.Pkg().Name() == "event"
}
