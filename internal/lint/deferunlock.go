package lint

import (
	"go/ast"
	"go/types"
)

// DeferUnlock checks critical-section shape inside a single function:
//
//   - return-while-held: a Lock/RLock whose enclosing block can reach a
//     return statement before the matching unlock (and with no defer
//     unlock in force) leaks the lock on that path — the classic bug in
//     functions with multiple returns;
//   - body-end leak: the function ends with the lock still held;
//   - upgrade-resume: RUnlock immediately followed by Lock, with an RLock
//     taken again afterwards — the PR 3 store race. Dropping the read
//     lock, writing, then resuming reading silently invalidates every
//     conclusion reached under the original read lock; redo the read
//     under the write lock instead (DESIGN.md §13).
//
// The plain RUnlock→Lock upgrade with a re-check and no RLock resume is
// idiomatic (obs.Registry, netstate's expand cache) and is not flagged.
var DeferUnlock = &Analyzer{
	Name: "deferunlock",
	Doc:  "flags returns and function ends that leak a held mutex, and RLock→Lock upgrades that resume reading",
	Run: func(pass *Pass) []Diagnostic {
		var out []Diagnostic
		for _, f := range pass.Files {
			for fn := range functionBodies(f) {
				out = append(out, checkBody(pass, fn)...)
			}
		}
		return out
	},
}

// functionBodies yields every function-shaped body in the file: declared
// functions and (outermost) function literals, each analyzed as its own
// scope.
func functionBodies(f *ast.File) map[*ast.BlockStmt]bool {
	bodies := map[*ast.BlockStmt]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				bodies[n.Body] = true
			}
		case *ast.FuncLit:
			bodies[n.Body] = true
		}
		return true
	})
	return bodies
}

func checkBody(pass *Pass, body *ast.BlockStmt) []Diagnostic {
	var out []Diagnostic
	out = append(out, checkUpgradeResume(pass, body)...)
	// Scan every block in this body (but not nested function literals)
	// for lock statements and their release discipline.
	var walkBlocks func(b *ast.BlockStmt, isFuncBody bool)
	seen := map[*ast.BlockStmt]bool{}
	walkBlocks = func(b *ast.BlockStmt, isFuncBody bool) {
		if seen[b] {
			return
		}
		seen[b] = true
		out = append(out, scanBlock(pass, b, isFuncBody)...)
		for _, stmt := range b.List {
			ast.Inspect(stmt, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false // its own scope
				case *ast.BlockStmt:
					walkBlocks(n, false)
					return false
				}
				return true
			})
		}
	}
	walkBlocks(body, true)
	return out
}

// exprLockOp unwraps an ExprStmt to a mutex operation.
func exprLockOp(info *types.Info, stmt ast.Stmt) (lockOp, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return lockOp{}, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return lockOp{}, false
	}
	return resolveLockOp(info, call)
}

// scanBlock checks each top-level Lock/RLock in the block: every return
// reachable after it (before release) is a leak; reaching the end of a
// function body unreleased is a leak.
func scanBlock(pass *Pass, b *ast.BlockStmt, isFuncBody bool) []Diagnostic {
	var out []Diagnostic
	for i, stmt := range b.List {
		op, ok := exprLockOp(pass.Info, stmt)
		if !ok || !op.kind.acquires() {
			continue
		}
		released := false
		for _, later := range b.List[i+1:] {
			if d, ok := later.(*ast.DeferStmt); ok {
				if unlockIn(pass.Info, d, op.v) {
					released = true
					break
				}
				continue
			}
			if lop, ok := exprLockOp(pass.Info, later); ok && lop.v == op.v && !lop.kind.acquires() {
				released = true
				break
			}
			if ret, ok := later.(*ast.ReturnStmt); ok {
				out = append(out, pass.diag("deferunlock", ret.Pos(),
					"return while %s is held (locked at line %d); unlock first or defer the unlock",
					op.name, pass.Fset.Position(op.pos).Line))
				released = true // report once per lock statement
				break
			}
			// A nested statement: returns inside it must be preceded (in
			// source order within the statement) by a release; any release
			// inside makes the lock state ambiguous beyond it, so stop.
			if stmtReleases(pass, later, op, &out) {
				released = true
				break
			}
		}
		if !released && isFuncBody {
			out = append(out, pass.diag("deferunlock", op.pos,
				"%s is still held when the function returns; add defer %s", op.name, "Unlock/RUnlock"))
		}
	}
	return out
}

// unlockIn reports whether the defer statement releases v, either
// directly (defer mu.Unlock()) or inside a deferred closure.
func unlockIn(info *types.Info, d *ast.DeferStmt, v *types.Var) bool {
	if op, ok := resolveLockOp(info, d.Call); ok {
		return op.v == v && !op.kind.acquires()
	}
	found := false
	ast.Inspect(d.Call, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op, ok := resolveLockOp(info, call); ok && op.v == v && !op.kind.acquires() {
				found = true
			}
		}
		return !found
	})
	return found
}

// stmtReleases inspects a nested statement (if/for/switch/...) while the
// lock is held. It appends a diagnostic for every return not preceded
// within the statement by a release of op.v, and reports whether the
// statement contains any release (after which the caller stops tracking —
// conditional releases make the linear scan ambiguous).
func stmtReleases(pass *Pass, stmt ast.Stmt, op lockOp, out *[]Diagnostic) bool {
	type point struct {
		pos    int
		isRet  bool
		retPos ast.Node
	}
	var points []point
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			points = append(points, point{pos: int(n.Pos()), isRet: true, retPos: n})
		case *ast.DeferStmt:
			if unlockIn(pass.Info, n, op.v) {
				points = append(points, point{pos: int(n.Pos())})
			}
			return false
		case *ast.CallExpr:
			if lop, ok := resolveLockOp(pass.Info, n); ok && lop.v == op.v && !lop.kind.acquires() {
				points = append(points, point{pos: int(n.Pos())})
			}
		}
		return true
	})
	releases := false
	releasedBefore := func(p int) bool {
		for _, pt := range points {
			if !pt.isRet && pt.pos < p {
				return true
			}
		}
		return false
	}
	for _, pt := range points {
		if !pt.isRet {
			releases = true
			continue
		}
		if !releasedBefore(pt.pos) {
			*out = append(*out, pass.diag("deferunlock", pt.retPos.Pos(),
				"return while %s is held (locked at line %d); unlock first or defer the unlock",
				op.name, pass.Fset.Position(op.pos).Line))
		}
	}
	return releases
}

// checkUpgradeResume flags the RUnlock→Lock→...→RLock shape on one mutex
// within one function body.
func checkUpgradeResume(pass *Pass, body *ast.BlockStmt) []Diagnostic {
	ops := map[*types.Var][]lockOp{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its own scope, scanned separately
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if op, ok := resolveLockOp(pass.Info, call); ok {
				ops[op.v] = append(ops[op.v], op)
			}
		}
		return true
	})
	var out []Diagnostic
	for _, seq := range ops {
		for i := 0; i+1 < len(seq); i++ {
			if seq[i].kind != opRUnlock || seq[i+1].kind != opLock {
				continue
			}
			for _, later := range seq[i+2:] {
				if later.kind == opRLock {
					out = append(out, pass.diag("deferunlock", seq[i+1].pos,
						"%s: RLock→Lock upgrade resumes reading with RLock afterwards; state observed before the upgrade is stale — redo the read under the write lock (PR 3 store race)",
						seq[i+1].name))
					break
				}
			}
		}
	}
	// Deterministic order: ops map iteration is random, sort by position.
	sortDiagnostics(out)
	return out
}
