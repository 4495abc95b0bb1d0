package lint

import (
	"bufio"
	_ "embed"
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Allowlist is the sanctioned lock-nesting order: an edge "A -> B" means
// code may acquire B while holding A. Any observed nesting outside the
// list, any listed edge no code exercises, and any cycle among observed
// nestings, is a lockorder diagnostic. The canonical list lives in
// internal/lint/lockorder.allow and is documented as the lock-order graph
// in DESIGN.md §13 — the two are kept in sync by a test.
type Allowlist struct {
	file  string            // where findings about the list itself point
	edges map[[2]string]int // edge → the line that declares it
}

//go:embed lockorder.allow
var defaultAllow string

// DefaultAllowlist parses the embedded lockorder.allow.
func DefaultAllowlist() *Allowlist {
	a, err := ParseAllowlist("internal/lint/lockorder.allow", defaultAllow)
	if err != nil {
		// The embedded file is validated by tests; a parse failure here is
		// a build defect, not a runtime condition.
		panic("lint: embedded lockorder.allow: " + err.Error())
	}
	return a
}

// EmptyAllowlist sanctions nothing; test programs use it.
func EmptyAllowlist() *Allowlist { return &Allowlist{edges: map[[2]string]int{}} }

// ParseAllowlist reads "from -> to" lines from src, the contents of
// file; '#' starts a comment.
func ParseAllowlist(file, src string) (*Allowlist, error) {
	a := &Allowlist{file: file, edges: map[[2]string]int{}}
	sc := bufio.NewScanner(strings.NewReader(src))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		from, to, ok := strings.Cut(line, "->")
		if !ok {
			return nil, fmt.Errorf("line %d: want \"from -> to\", got %q", n, line)
		}
		a.edges[[2]string{strings.TrimSpace(from), strings.TrimSpace(to)}] = n
	}
	return a, sc.Err()
}

// Edges lists the sanctioned pairs, sorted, for the docs-sync test.
func (a *Allowlist) Edges() [][2]string {
	out := make([][2]string, 0, len(a.edges))
	for e := range a.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func (a *Allowlist) allows(from, to string) bool {
	_, ok := a.edges[[2]string{from, to}]
	return ok
}

// LockOrder builds the whole-program mutex acquisition graph and flags
// (a) a mutex acquired while already held — sync mutexes are not
// reentrant, so that is a guaranteed or writer-pending deadlock; (b) any
// nesting edge absent from the sanctioned allowlist; (c) any allowlist
// edge with no observed nesting, so a deleted lock takes its permission
// with it; and (d) cycles among the observed edges, the classic AB/BA
// deadlock.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "flags mutex self-acquisition, lock nestings outside lockorder.allow, stale allowlist edges, and acquisition-order cycles",
	RunProgram: func(prog *Program) []Diagnostic {
		g := prog.Facts().lockGraph()
		allow := prog.Allow
		if allow == nil {
			allow = EmptyAllowlist()
		}
		var out []Diagnostic
		for _, s := range g.selfs {
			msg := fmt.Sprintf("%s acquired in %s while already held; sync mutexes are not reentrant", s.name, s.fn)
			if s.via != "" {
				msg += " (via " + s.via + ")"
			}
			out = append(out, Diagnostic{Pos: s.pos, Analyzer: "lockorder", Message: msg})
		}
		observed := map[[2]string]bool{}
		for _, e := range g.edges {
			observed[[2]string{e.fromName, e.toName}] = true
			if allow.allows(e.fromName, e.toName) {
				continue
			}
			msg := fmt.Sprintf("%s acquired while holding %s in %s", e.toName, e.fromName, e.fn)
			if e.via != "" {
				msg += " (via " + e.via + ")"
			}
			msg += "; undocumented lock nesting — add to lockorder.allow and DESIGN.md §13 if sanctioned"
			out = append(out, Diagnostic{Pos: e.pos, Analyzer: "lockorder", Message: msg})
		}
		// A run over part of the module sees part of the nestings: an edge
		// is judged only when both its locks' packages were analyzed.
		analyzed := map[string]bool{}
		for _, pass := range prog.Passes {
			analyzed[pass.Pkg.Name()] = true
		}
		for _, e := range allow.Edges() {
			fromPkg, _, _ := strings.Cut(e[0], ".")
			toPkg, _, _ := strings.Cut(e[1], ".")
			if observed[e] || !analyzed[fromPkg] || !analyzed[toPkg] {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      token.Position{Filename: allow.file, Line: allow.edges[e]},
				Analyzer: "lockorder",
				Message: fmt.Sprintf("%s -> %s is sanctioned but no code acquires %s while holding %s; delete the stale edge here and from DESIGN.md §13",
					e[0], e[1], e[1], e[0]),
			})
		}
		out = append(out, lockCycles(g.edges)...)
		return out
	},
}

// lockCycles reports each cycle in the observed nesting graph once, at
// the lexically first edge on the cycle.
func lockCycles(edges []lockEdge) []Diagnostic {
	adj := map[*types.Var][]lockEdge{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[*types.Var]int{}
	var out []Diagnostic
	var stack []lockEdge
	var visit func(v *types.Var)
	visit = func(v *types.Var) {
		color[v] = gray
		for _, e := range adj[v] {
			switch color[e.to] {
			case white:
				stack = append(stack, e)
				visit(e.to)
				stack = stack[:len(stack)-1]
			case gray:
				cycle := append(append([]lockEdge{}, stackSince(stack, e.to)...), e)
				out = append(out, cycleDiag(cycle))
			}
		}
		color[v] = black
	}
	// Deterministic start order: edges are already in discovery order.
	for _, e := range edges {
		if color[e.from] == white {
			visit(e.from)
		}
	}
	return out
}

// stackSince returns the suffix of the DFS stack starting at the edge
// leaving v (the cycle entry point).
func stackSince(stack []lockEdge, v *types.Var) []lockEdge {
	for i, e := range stack {
		if e.from == v {
			return stack[i:]
		}
	}
	return stack
}

func cycleDiag(cycle []lockEdge) Diagnostic {
	names := make([]string, 0, len(cycle)+1)
	for _, e := range cycle {
		names = append(names, e.fromName)
	}
	names = append(names, cycle[len(cycle)-1].toName)
	first := cycle[0]
	return Diagnostic{
		Pos:      first.pos,
		Analyzer: "lockorder",
		Message: fmt.Sprintf("lock-order cycle %s: inconsistent nesting can deadlock",
			strings.Join(names, " → ")),
	}
}
