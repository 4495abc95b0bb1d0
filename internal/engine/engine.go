// Package engine implements the Generic RCA Engine (paper Fig. 1): for a
// symptom event instance it evaluates the application's diagnosis graph —
// querying the event store for diagnostic signatures within the temporal
// search window of each rule and testing the spatial join against the
// reconstructed network condition — and then applies rule-based reasoning
// to name the most likely root cause(s).
//
// Rule-based reasoning follows §II-D.1: after correlation, the symptom sits
// at the root of the diagnosis graph and joined diagnostic instances
// populate its nodes; the engine searches the evidence tree and identifies
// the leaf with the maximum edge priority as the root cause, reporting all
// tied leaves as joint root causes.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"grca/internal/dgraph"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/netstate"
	"grca/internal/obs"
	"grca/internal/store"
)

// Engine metrics (see internal/obs): the diagnosis-latency histogram is
// the repo's measurement of the paper's §III per-event latency claims
// (<5 s/event for BGP and PIM, <3 min/event for CDN). The spatial work
// is memoized by the view (netstate.View.Expand).
var (
	mDiagnoses       = obs.GetCounter("engine.diagnoses")
	mDiagnoseLatency = obs.GetHistogram("engine.diagnose.seconds", obs.LatencyBuckets)
	mRulesEvaluated  = obs.GetCounter("engine.rules.evaluated")
	mEvidenceNodes   = obs.GetCounter("engine.evidence.nodes")
	mWarnings        = obs.GetCounter("engine.warnings")
	mUnknowns        = obs.GetCounter("engine.unknown")
)

// Unknown is the root-cause label for symptoms with no joined evidence.
const Unknown = "Unknown"

// Engine binds one diagnosis graph to a data store and network view. An
// Engine is cheap; build one per application.
type Engine struct {
	Store store.Store
	View  *netstate.View
	Graph *dgraph.Graph

	// MaxDepth bounds evidence-chain recursion as a backstop against
	// pathological graphs; the default (8) exceeds any graph in the paper.
	MaxDepth int

	// Tracing attaches an obs.Trace to every Diagnosis: one span per rule
	// evaluation carrying its store-query and spatial-join timings,
	// nested along the evidence chain. Off by default; the aggregate
	// latency histograms are recorded either way. It is Diagnose's
	// default; DiagnoseTraced traces one call whatever it says.
	Tracing bool
}

// New returns an engine over the given substrates.
func New(st store.Store, view *netstate.View, g *dgraph.Graph) *Engine {
	return &Engine{Store: st, View: view, Graph: g, MaxDepth: 8}
}

// Node is one vertex of the correlated evidence tree. The root node holds
// the symptom instance; every other node holds a diagnostic instance that
// joined its parent under Rule.
type Node struct {
	Event    string
	Instance *event.Instance
	Rule     dgraph.Rule // edge from parent; zero value at the root
	Children []*Node
}

// Leaf reports whether no deeper evidence was found under the node.
func (n *Node) Leaf() bool { return len(n.Children) == 0 }

// Walk visits the tree pre-order.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Cause is one diagnosed root cause.
type Cause struct {
	// Event names the root-cause signature.
	Event string
	// Instances lists the evidence instances supporting it.
	Instances []*event.Instance
	// Priority is the edge priority that selected it.
	Priority int
	// Chain is the event-name path from the symptom to the cause.
	Chain []string
}

// Diagnosis is the result of diagnosing one symptom instance.
type Diagnosis struct {
	Symptom *event.Instance
	// Root is the full evidence tree (the symptom at its root).
	Root *Node
	// Causes holds the maximum-priority leaf causes; empty means Unknown.
	Causes []Cause
	// Warnings records evidence lookups that could not be evaluated
	// (unmodeled locations, unroutable spans); they did not contribute
	// evidence but did not abort the diagnosis.
	Warnings []string
	// Elapsed is the wall-clock diagnosis time, the paper's per-event
	// latency metric.
	Elapsed time.Duration
	// Trace is the staged timeline of this diagnosis (per-rule store
	// query and spatial join timings); nil unless Engine.Tracing is on.
	Trace *obs.Trace
}

// Label returns the root-cause label: the joint cause events joined by
// " + ", or Unknown.
func (d Diagnosis) Label() string {
	if len(d.Causes) == 0 {
		return Unknown
	}
	s := d.Causes[0].Event
	for _, c := range d.Causes[1:] {
		s += " + " + c.Event
	}
	return s
}

// Primary returns the first (highest-priority, earliest-added) cause event
// name, or Unknown.
func (d Diagnosis) Primary() string {
	if len(d.Causes) == 0 {
		return Unknown
	}
	return d.Causes[0].Event
}

// Diagnose correlates and reasons about one symptom instance.
func (e *Engine) Diagnose(sym *event.Instance) Diagnosis { return e.diagnose(sym, e.Tracing) }

// DiagnoseTraced is Diagnose with a Trace attached for this call only.
// It expands through the same view cache as the untraced calls beside
// it.
func (e *Engine) DiagnoseTraced(sym *event.Instance) Diagnosis { return e.diagnose(sym, true) }

func (e *Engine) diagnose(sym *event.Instance, tracing bool) Diagnosis {
	began := obs.Now()
	d := Diagnosis{Symptom: sym}
	var tr *obs.Trace
	if tracing {
		tr = obs.StartTrace("diagnose " + sym.Name + " @ " + sym.Loc.String())
		d.Trace = tr
	}
	root := &Node{Event: sym.Name, Instance: sym}
	visited := map[string]bool{sym.Name: true}
	e.correlate(root, visited, 0, &d, tr)
	d.Root = root
	rs := tr.StartSpan("reason")
	d.Causes = e.reason(root)
	rs.End()
	d.Elapsed = obs.Since(began)
	tr.Finish()
	mDiagnoses.Inc()
	mDiagnoseLatency.ObserveDuration(d.Elapsed)
	if len(d.Causes) == 0 {
		mUnknowns.Inc()
	}
	if len(d.Warnings) > 0 {
		mWarnings.Add(int64(len(d.Warnings)))
	}
	return d
}

// correlate populates n.Children with joined diagnostic instances,
// recursively. With tracing on, each rule evaluation opens a span (so
// deeper evidence nests under the rule that admitted it) annotated with
// its expand, store-query, and spatial-join timings.
func (e *Engine) correlate(n *Node, visited map[string]bool, depth int, d *Diagnosis, tr *obs.Trace) {
	if depth >= e.MaxDepth {
		return
	}
	for _, rule := range e.Graph.RulesFor(n.Event) {
		if visited[rule.Diagnostic] {
			continue
		}
		mRulesEvaluated.Inc()
		var sp *obs.Span
		if tr != nil {
			sp = tr.StartSpan("rule " + rule.Key())
		}
		in := n.Instance
		// The network condition is reconstructed at the symptom time —
		// and additionally at the start of the temporal search window.
		// Routing-change diagnostics (a costed-out link, a withdrawn
		// route) remove themselves from the service's path by the time
		// the symptom fires, so the elements supporting the service just
		// *before* the symptom matter as much as those at the symptom
		// instant.
		at := in.Start
		lo, hi := rule.Temporal.SearchWindow(in.Start, in.End)
		times := []time.Time{at}
		if !lo.Equal(at) {
			times = append(times, lo)
		}
		var stamp time.Time
		if sp != nil {
			stamp = obs.Now()
		}
		symSet := map[locus.Location]bool{}
		expanded := false
		for _, when := range times {
			locs, err := e.View.Expand(in.Loc, rule.JoinLevel, when)
			if err != nil {
				continue
			}
			expanded = true
			for _, l := range locs {
				symSet[l] = true
			}
		}
		if sp != nil {
			sp.AnnotateDuration("expand", obs.Since(stamp))
		}
		if !expanded {
			d.Warnings = append(d.Warnings,
				fmt.Sprintf("rule %q: symptom location %s unexpandable at %v", rule.Key(), in.Loc, at))
			sp.Annotate("outcome", "unexpandable")
			sp.End()
			continue
		}
		if len(symSet) == 0 {
			sp.Annotate("outcome", "no-footprint")
			sp.End()
			continue
		}
		if sp != nil {
			stamp = obs.Now()
		}
		cands := e.Store.Query(rule.Diagnostic, lo, hi)
		if sp != nil {
			sp.AnnotateDuration("query", obs.Since(stamp))
			sp.AnnotateInt("candidates", len(cands))
		}
		joined := 0
		var joinDur time.Duration
		for _, cand := range cands {
			if cand.ID == in.ID {
				continue
			}
			if sp != nil {
				stamp = obs.Now()
			}
			ok := rule.Temporal.Joined(in.Start, in.End, cand.Start, cand.End)
			if ok {
				candLocs, err := e.View.Expand(cand.Loc, rule.JoinLevel, at)
				if err != nil {
					d.Warnings = append(d.Warnings,
						fmt.Sprintf("rule %q: diagnostic location %s: %v", rule.Key(), cand.Loc, err))
					ok = false
				} else {
					ok = false
					for _, l := range candLocs {
						if symSet[l] {
							ok = true
							break
						}
					}
				}
			}
			if sp != nil {
				joinDur += obs.Since(stamp)
			}
			if !ok {
				continue
			}
			joined++
			mEvidenceNodes.Inc()
			child := &Node{Event: rule.Diagnostic, Instance: cand, Rule: rule}
			n.Children = append(n.Children, child)
			visited[rule.Diagnostic] = true
			e.correlate(child, visited, depth+1, d, tr)
			delete(visited, rule.Diagnostic)
		}
		if sp != nil {
			sp.AnnotateDuration("join", joinDur)
			sp.AnnotateInt("joined", joined)
		}
		sp.End()
	}
}

// reason implements the rule-based reasoning of §II-D.1 over the evidence
// tree: collect every leaf evidence node, take the maximum incoming-edge
// priority, and return all events tied at that priority as joint causes.
func (e *Engine) reason(root *Node) []Cause {
	type leafInfo struct {
		node  *Node
		chain []string
	}
	var leaves []leafInfo
	var walk func(n *Node, chain []string)
	walk = func(n *Node, chain []string) {
		if n != root {
			chain = append(chain, n.Event)
			if n.Leaf() {
				leaves = append(leaves, leafInfo{node: n, chain: append([]string(nil), chain...)})
			}
		}
		for _, c := range n.Children {
			walk(c, chain)
		}
	}
	walk(root, nil)
	if len(leaves) == 0 {
		return nil
	}
	best := leaves[0].node.Rule.Priority
	for _, l := range leaves[1:] {
		if p := l.node.Rule.Priority; p > best {
			best = p
		}
	}
	// Group tied leaves by event name, preserving evidence instances.
	byEvent := map[string]*Cause{}
	var order []string
	for _, l := range leaves {
		if l.node.Rule.Priority != best {
			continue
		}
		c := byEvent[l.node.Event]
		if c == nil {
			c = &Cause{Event: l.node.Event, Priority: best, Chain: l.chain}
			byEvent[l.node.Event] = c
			order = append(order, l.node.Event)
		}
		dup := false
		for _, in := range c.Instances {
			if in.ID == l.node.Instance.ID {
				dup = true
				break
			}
		}
		if !dup {
			c.Instances = append(c.Instances, l.node.Instance)
		}
	}
	out := make([]Cause, 0, len(order))
	for _, name := range order {
		out = append(out, *byEvent[name])
	}
	return out
}

// DiagnoseAll diagnoses every stored instance of the graph's root symptom,
// ordered by start time.
func (e *Engine) DiagnoseAll() []Diagnosis {
	syms := e.Store.All(e.Graph.Root)
	out := make([]Diagnosis, 0, len(syms))
	for _, s := range syms {
		out = append(out, e.Diagnose(s))
	}
	return out
}

// DiagnoseAllParallel is DiagnoseAll fanned out over workers goroutines.
// Diagnosis is read-only over the store and network view, so symptoms are
// independent; results keep start-time order. workers < 1 selects
// GOMAXPROCS.
func (e *Engine) DiagnoseAllParallel(workers int) []Diagnosis {
	syms := e.Store.All(e.Graph.Root)
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(syms) {
		workers = len(syms)
	}
	if workers <= 1 {
		return e.DiagnoseAll()
	}
	out := make([]Diagnosis, len(syms))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(syms) {
					return
				}
				out[i] = e.Diagnose(syms[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// Breakdown aggregates diagnoses into the Result Browser's root-cause
// breakdown: label → fraction of symptoms (the shape of Tables IV, VI,
// and VIII). Labels are the Primary cause per diagnosis.
func Breakdown(ds []Diagnosis) map[string]float64 {
	if len(ds) == 0 {
		return nil
	}
	counts := map[string]int{}
	for _, d := range ds {
		counts[d.Primary()]++
	}
	out := make(map[string]float64, len(counts))
	for k, v := range counts {
		out[k] = 100 * float64(v) / float64(len(ds))
	}
	return out
}
