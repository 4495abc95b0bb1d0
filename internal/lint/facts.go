package lint

// Shared concurrency facts. computeFacts walks every function body in the
// program once and extracts, per function: the linear sequence of mutex
// operations, the statically resolvable calls, and the hook-field
// registrations/invocations (the store's OnAppend/OnEvict pattern). From
// those it derives the transitive lock-acquisition sets (which locks a
// call may take, directly or through callees and hook callbacks) used by
// the lockorder and hookreentry analyzers.
//
// The walk deliberately does not descend into function literals: a
// closure's lock operations belong to the context that eventually invokes
// it, not to the function that happens to contain its text. Literals
// re-enter the analysis where their invocation point is known — hook
// registrations (the literal is bound to a hook field and runs at that
// field's invocation sites) and `go` statements (goroutinelife inspects
// the body directly).

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// opKind classifies a mutex operation.
type opKind uint8

const (
	opLock opKind = iota
	opRLock
	opUnlock
	opRUnlock
)

func (k opKind) String() string {
	return [...]string{"Lock", "RLock", "Unlock", "RUnlock"}[k]
}

func (k opKind) acquires() bool { return k == opLock || k == opRLock }
func (k opKind) write() bool    { return k == opLock || k == opUnlock }

// A lockOp is one mutex method call in a function body.
type lockOp struct {
	v        *types.Var // the mutex variable (field or package/local var)
	name     string     // display ID, e.g. "store.Store.mu"
	kind     opKind
	deferred bool
	pos      token.Pos
}

// A callSite is one statically resolved call to a module-local function.
type callSite struct {
	callee *types.Func
	pos    token.Pos
}

// A hookInvoke marks a call through a hook field's elements (directly,
// via range, or via a local alias of the field).
type hookInvoke struct {
	field *types.Var
	pos   token.Pos
}

// A binding records a callback registered onto a hook field.
type binding struct {
	field *types.Var
	fn    *types.Func  // named function/method, or nil when lit != nil
	lit   *ast.FuncLit // literal callback
	pass  *Pass
	pos   token.Pos // registration callsite
}

// funcFacts are the extracted facts for one declared function.
type funcFacts struct {
	fn    *types.Func
	pass  *Pass
	decl  *ast.FuncDecl
	ops   []lockOp
	calls []callSite
	hooks []hookInvoke
}

// acquire is one entry of a transitive acquisition set: the lock, the
// strongest mode seen, and a human-readable witness path.
type acquire struct {
	write bool
	via   string // call path, "" for a direct acquisition
}

type facts struct {
	prog  *Program
	funcs map[*types.Func]*funcFacts
	// ordered lists every funcFacts in deterministic (package, position)
	// order; all whole-program iteration goes through it so diagnostics
	// and witness paths are stable across runs.
	ordered []*funcFacts
	// lockNames memoizes display IDs per mutex variable.
	lockNames map[*types.Var]string
	// hookFields maps a func-slice field to the registration methods that
	// append to it; presence marks the field as a hook.
	hookFields map[*types.Var]bool
	// regMethods maps a registration method to the hook field it appends
	// its parameter to.
	regMethods map[*types.Func]*types.Var
	bindings   []binding
	// trans memoizes transitive acquisition sets for declared functions.
	trans map[*types.Func]map[*types.Var]acquire
	// litTrans holds the same for registered literal callbacks.
	litTrans map[*ast.FuncLit]map[*types.Var]acquire
	// litFacts holds extracted facts for registered literal callbacks.
	litFacts map[*ast.FuncLit]*funcFacts
	// graph memoizes the lock-graph collection pass (lockgraph.go).
	graph *lockGraph
}

func computeFacts(prog *Program) *facts {
	fs := &facts{
		prog:       prog,
		funcs:      map[*types.Func]*funcFacts{},
		lockNames:  map[*types.Var]string{},
		hookFields: map[*types.Var]bool{},
		regMethods: map[*types.Func]*types.Var{},
		trans:      map[*types.Func]map[*types.Var]acquire{},
		litTrans:   map[*ast.FuncLit]map[*types.Var]acquire{},
		litFacts:   map[*ast.FuncLit]*funcFacts{},
	}
	// Pass 1: extract per-function ops/calls.
	for _, pass := range prog.Passes {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ff := &funcFacts{fn: obj, pass: pass, decl: fd}
				fs.extract(pass, fd.Body, ff)
				fs.funcs[obj] = ff
				fs.ordered = append(fs.ordered, ff)
			}
		}
	}
	sort.Slice(fs.ordered, func(i, j int) bool {
		a, b := fs.ordered[i], fs.ordered[j]
		if a.pass.Path != b.pass.Path {
			return a.pass.Path < b.pass.Path
		}
		ap := a.pass.Fset.Position(a.decl.Pos())
		bp := b.pass.Fset.Position(b.decl.Pos())
		if ap.Filename != bp.Filename {
			return ap.Filename < bp.Filename
		}
		return ap.Line < bp.Line
	})
	// Find the registration methods. One that hands its callback on to
	// another is found the round after its target, so iterate.
	for changed := true; changed; {
		changed = false
		for _, ff := range fs.ordered {
			if _, known := fs.regMethods[ff.fn]; known {
				continue
			}
			if field := fs.registrationField(ff.pass, ff.decl); field != nil {
				fs.regMethods[ff.fn] = field
				fs.hookFields[field] = true
				changed = true
			}
		}
	}
	// Pass 2: hook invocations and registration callsites need the full
	// hook-field set, so resolve them after pass 1.
	for _, ff := range fs.ordered {
		fs.resolveHooks(ff)
	}
	// Extract facts for literal callbacks now that bindings are known.
	for _, b := range fs.bindings {
		if b.lit != nil && fs.litFacts[b.lit] == nil {
			lf := &funcFacts{pass: b.pass}
			fs.extract(b.pass, b.lit.Body, lf)
			fs.litFacts[b.lit] = lf
		}
	}
	return fs
}

// extract walks body in source order, recording mutex ops and calls.
// Function literals are skipped (see the package comment above).
func (fs *facts) extract(pass *Pass, body *ast.BlockStmt, ff *funcFacts) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if op, ok := fs.lockCall(pass, n.Call); ok {
				op.deferred = true
				ff.ops = append(ff.ops, op)
				return false
			}
		case *ast.CallExpr:
			if op, ok := fs.lockCall(pass, n); ok {
				ff.ops = append(ff.ops, op)
				return true
			}
			if callee := calleeFunc(pass.Info, n); callee != nil && fs.moduleLocal(callee) {
				ff.calls = append(ff.calls, callSite{callee: callee, pos: n.Pos()})
			}
		}
		return true
	})
	sort.Slice(ff.ops, func(i, j int) bool { return ff.ops[i].pos < ff.ops[j].pos })
	sort.Slice(ff.calls, func(i, j int) bool { return ff.calls[i].pos < ff.calls[j].pos })
}

// moduleLocal reports whether the function belongs to a package in the
// program (we only have syntax for those).
func (fs *facts) moduleLocal(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	for _, pass := range fs.prog.Passes {
		if pass.Pkg == fn.Pkg() {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression to its static callee, handling
// plain functions, package-qualified functions, method calls and explicit
// instantiations (f[T](…), pkg.F[T, U](…)). A generic callee resolves to
// its declaration: the instantiated object go/types records at a call
// site has no facts of its own, so the locks its body takes would be
// invisible to the caller.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// lockCall recognizes a mutex operation and memoizes the lock's display
// name for whole-program messages.
func (fs *facts) lockCall(pass *Pass, call *ast.CallExpr) (lockOp, bool) {
	op, ok := resolveLockOp(pass.Info, call)
	if ok {
		fs.lockNames[op.v] = op.name
	}
	return op, ok
}

// resolveLockOp recognizes x.Lock/RLock/Unlock/RUnlock on sync.Mutex or
// sync.RWMutex and resolves the mutex variable plus a stable display ID:
// "pkg.Type.field" for struct fields, "pkg.var" for package-level
// mutexes, the bare identifier for locals.
func resolveLockOp(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var kind opKind
	switch sel.Sel.Name {
	case "Lock":
		kind = opLock
	case "RLock":
		kind = opRLock
	case "Unlock":
		kind = opUnlock
	case "RUnlock":
		kind = opRUnlock
	default:
		return lockOp{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	v, name := lockVar(info, sel.X)
	if v == nil {
		return lockOp{}, false
	}
	return lockOp{v: v, name: name, kind: kind, pos: call.Pos()}, true
}

func lockVar(info *types.Info, x ast.Expr) (*types.Var, string) {
	switch x := x.(type) {
	case *ast.Ident:
		v, ok := info.Uses[x].(*types.Var)
		if !ok {
			return nil, ""
		}
		if v.Pkg() != nil && !v.IsField() {
			return v, v.Pkg().Name() + "." + v.Name()
		}
		return v, v.Name()
	case *ast.SelectorExpr:
		selInfo, ok := info.Selections[x]
		if !ok {
			return nil, ""
		}
		v, ok := selInfo.Obj().(*types.Var)
		if !ok {
			return nil, ""
		}
		t := selInfo.Recv()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return v, named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + v.Name()
		}
		if v.Pkg() != nil {
			return v, v.Pkg().Name() + "." + v.Name()
		}
		return v, v.Name()
	}
	return nil, ""
}

// registrationField detects the hook-registration shapes: a method whose
// body appends one of its function-typed parameters to a func-slice field
// of the receiver, e.g.
//
//	func (s *Store) OnAppend(fn func(*event.Instance)) {
//	    s.onAppend = append(s.onAppend, fn)
//	}
//
// or passes it on to a method already known to register, which makes it
// a registration on the same field:
//
//	func (f *Fanout) OnAppend(fn func(*event.Instance)) {
//	    for _, s := range f.stores { s.OnAppend(fn) }
//	}
func (fs *facts) registrationField(pass *Pass, fd *ast.FuncDecl) *types.Var {
	if fd.Recv == nil || fd.Type.Params == nil {
		return nil
	}
	params := map[types.Object]bool{}
	for _, p := range fd.Type.Params.List {
		if _, ok := p.Type.(*ast.FuncType); !ok {
			continue
		}
		for _, n := range p.Names {
			if obj := pass.Info.Defs[n]; obj != nil {
				params[obj] = true
			}
		}
	}
	if len(params) == 0 {
		return nil
	}
	var field *types.Var
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && len(call.Args) >= 1 {
			arg, ok := call.Args[0].(*ast.Ident)
			if f := fs.regMethods[calleeFunc(pass.Info, call)]; f != nil && ok && params[pass.Info.Uses[arg]] {
				field = f
				return false
			}
		}
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 || len(asg.Lhs) != 1 {
			return true
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
			return true
		}
		arg, ok := call.Args[len(call.Args)-1].(*ast.Ident)
		if !ok || !params[pass.Info.Uses[arg]] {
			return true
		}
		if sel, ok := asg.Lhs[0].(*ast.SelectorExpr); ok {
			if si, ok := pass.Info.Selections[sel]; ok {
				if v, ok := si.Obj().(*types.Var); ok && v.IsField() {
					field = v
					return false
				}
			}
		}
		return true
	})
	return field
}

// resolveHooks finds, inside one function, (a) calls to registration
// methods — recording what callback was bound — and (b) invocations of
// hook-field elements: direct indexing, range over the field, or range
// over a local alias assigned from the field.
func (fs *facts) resolveHooks(ff *funcFacts) {
	if ff.decl == nil {
		return
	}
	pass := ff.pass
	// aliases maps local variables assigned (only) from a hook field.
	aliases := map[types.Object]*types.Var{}
	ast.Inspect(ff.decl.Body, func(n ast.Node) bool {
		if asg, ok := n.(*ast.AssignStmt); ok && len(asg.Lhs) == len(asg.Rhs) {
			for i, lhs := range asg.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if f := fs.hookFieldOf(pass, asg.Rhs[i]); f != nil {
					if obj := pass.Info.Defs[id]; obj != nil {
						aliases[obj] = f
					} else if obj := pass.Info.Uses[id]; obj != nil {
						aliases[obj] = f
					}
				}
			}
		}
		return true
	})
	ast.Inspect(ff.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			// Registration callsite?
			if callee := calleeFunc(pass.Info, n); callee != nil {
				if field, ok := fs.regMethods[callee]; ok && len(n.Args) >= 1 {
					fs.bind(pass, field, n.Args[0], n.Pos())
					return true
				}
			}
			// Direct element invocation: x.hooks[i](...) .
			if idx, ok := n.Fun.(*ast.IndexExpr); ok {
				if f := fs.hookFieldOf(pass, idx.X); f != nil {
					ff.hooks = append(ff.hooks, hookInvoke{field: f, pos: n.Pos()})
				}
			}
		case *ast.RangeStmt:
			// for _, fn := range x.hooks { fn(...) }  — also via alias.
			f := fs.hookFieldOf(pass, n.X)
			if f == nil {
				if id, ok := n.X.(*ast.Ident); ok {
					f = aliases[pass.Info.Uses[id]]
				}
			}
			if f == nil {
				return true
			}
			val, ok := n.Value.(*ast.Ident)
			if !ok {
				return true
			}
			valObj := pass.Info.Defs[val]
			ast.Inspect(n.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && pass.Info.Uses[id] == valObj && valObj != nil {
					ff.hooks = append(ff.hooks, hookInvoke{field: f, pos: call.Pos()})
				}
				return true
			})
		}
		return true
	})
	sort.Slice(ff.hooks, func(i, j int) bool { return ff.hooks[i].pos < ff.hooks[j].pos })
}

// hookFieldOf resolves an expression to a known hook field, or nil.
func (fs *facts) hookFieldOf(pass *Pass, x ast.Expr) *types.Var {
	sel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	si, ok := pass.Info.Selections[sel]
	if !ok {
		return nil
	}
	v, ok := si.Obj().(*types.Var)
	if !ok || !fs.hookFields[v] {
		return nil
	}
	return v
}

// bind records a callback registered at a callsite.
func (fs *facts) bind(pass *Pass, field *types.Var, arg ast.Expr, pos token.Pos) {
	b := binding{field: field, pass: pass, pos: pos}
	switch arg := arg.(type) {
	case *ast.FuncLit:
		b.lit = arg
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[arg].(*types.Func); ok {
			b.fn = fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.Info.Uses[arg.Sel].(*types.Func); ok {
			b.fn = fn
		}
	}
	if b.fn != nil || b.lit != nil {
		fs.bindings = append(fs.bindings, b)
	}
}

// transAcquires returns the set of locks fn may acquire, directly or
// through module-local callees and hook callbacks, with witness paths.
func (fs *facts) transAcquires(fn *types.Func) map[*types.Var]acquire {
	if got, ok := fs.trans[fn]; ok {
		return got // nil during in-progress recursion: cycle-safe
	}
	fs.trans[fn] = nil
	ff := fs.funcs[fn]
	if ff == nil {
		fs.trans[fn] = map[*types.Var]acquire{}
		return fs.trans[fn]
	}
	out := fs.transOf(ff)
	fs.trans[fn] = out
	return out
}

// litAcquires is transAcquires for a registered literal callback.
func (fs *facts) litAcquires(lit *ast.FuncLit) map[*types.Var]acquire {
	if got, ok := fs.litTrans[lit]; ok {
		return got
	}
	fs.litTrans[lit] = nil
	ff := fs.litFacts[lit]
	if ff == nil {
		fs.litTrans[lit] = map[*types.Var]acquire{}
		return fs.litTrans[lit]
	}
	out := fs.transOf(ff)
	fs.litTrans[lit] = out
	return out
}

// transOf unions a function's direct acquisitions with its callees' and
// invoked hook callbacks' transitive sets.
func (fs *facts) transOf(ff *funcFacts) map[*types.Var]acquire {
	out := map[*types.Var]acquire{}
	add := func(v *types.Var, a acquire) {
		if prev, ok := out[v]; ok {
			if a.write && !prev.write {
				prev.write = true
				out[v] = prev
			}
			return
		}
		out[v] = a
	}
	for _, op := range ff.ops {
		if op.kind.acquires() {
			add(op.v, acquire{write: op.kind.write()})
		}
	}
	for _, cs := range ff.calls {
		for v, a := range fs.transAcquires(cs.callee) {
			via := funcLabel(cs.callee)
			if a.via != "" {
				via += " → " + a.via
			}
			add(v, acquire{write: a.write, via: via})
		}
	}
	for _, hi := range ff.hooks {
		for _, b := range fs.bindings {
			if b.field != hi.field {
				continue
			}
			var sub map[*types.Var]acquire
			var blabel string
			if b.fn != nil {
				sub = fs.transAcquires(b.fn)
				blabel = funcLabel(b.fn)
			} else {
				sub = fs.litAcquires(b.lit)
				blabel = "registered func literal"
			}
			for v, a := range sub {
				via := "hook " + blabel
				if a.via != "" {
					via += " → " + a.via
				}
				add(v, acquire{write: a.write, via: via})
			}
		}
	}
	return out
}

// funcLabel renders a function as pkg.Name or pkg.(Type).Method.
func funcLabel(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// mutexFieldsOf returns the sync.Mutex/RWMutex fields declared on the
// struct that owns the given field (used to tie hook fields to their
// guarding locks).
func mutexFieldsOf(field *types.Var) []*types.Var {
	st := owningStruct(field)
	if st == nil {
		return nil
	}
	var out []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isMutexType(f.Type()) {
			out = append(out, f)
		}
	}
	return out
}

// owningStruct finds the struct type containing the field by scanning the
// field's package scope for a named struct declaring it.
func owningStruct(field *types.Var) *types.Struct {
	pkg := field.Pkg()
	if pkg == nil {
		return nil
	}
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return st
			}
		}
	}
	return nil
}

func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
