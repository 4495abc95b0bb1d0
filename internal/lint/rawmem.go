package lint

import (
	"go/ast"
	"path/filepath"
	"strconv"
	"strings"
)

// RawMem confines raw memory to one place: the store's page allocator
// (grca/internal/store's pages*.go), which maps the pointer-free rows
// outside the Go heap and hands out nothing but copies (DESIGN.md §3).
// Anywhere else a non-test import of unsafe, or a call to syscall.Mmap or
// syscall.Munmap, is a finding: memory the collector cannot see is safe
// only where one file owns its whole lifecycle.
var RawMem = &Analyzer{
	Name: "rawmem",
	Doc:  "flags unsafe imports and syscall.Mmap/Munmap calls outside grca/internal/store's pages*.go",
	Run: func(pass *Pass) []Diagnostic {
		var out []Diagnostic
		for _, f := range pass.Files {
			name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
			if pass.Path == "grca/internal/store" && strings.HasPrefix(name, "pages") {
				continue
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "unsafe" {
					out = append(out, pass.diag("rawmem", imp.Pos(),
						"import of unsafe: raw memory belongs to the store's page allocator alone"))
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, fn := range []string{"Mmap", "Munmap"} {
					if stdPkgFunc(pass.Info, call, "syscall", fn) {
						out = append(out, pass.diag("rawmem", call.Pos(),
							"syscall.%s: mapped memory belongs to the store's page allocator alone", fn))
					}
				}
				return true
			})
		}
		return out
	},
}
