// Package ospf implements the intradomain routing simulation used by the
// G-RCA service dependency model. Given the network-wide link weights
// observed by a route-monitoring tool such as OSPFMon (which listens to
// flooded OSPF messages), it reconstructs the logical-link and router-level
// path between any ingress/egress router pair at any historical time,
// considering all paths under Equal Cost Multipath (ECMP) — paper §II-B
// item 3.
//
// Link weights are time-varying: a weight timeline per link records every
// cost change (operator cost in/out, link failures flooding MaxLinkMetric).
// All path queries take an explicit timestamp and answer against the
// network condition at that time.
package ospf

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"grca/internal/epoch"
	"grca/internal/netmodel"
	"grca/internal/obs"
)

// SPF-memo metrics: the Dijkstra runs behind Distance/Elements
// dominate routed expansions (§III-B.2), so the hit ratio here is the
// first read on whether the routing-epoch cache is doing its job.
var (
	mSPFHits   = obs.GetCounter("ospf.spf.cache.hits")
	mSPFMisses = obs.GetCounter("ospf.spf.cache.misses")
)

// Infinity is the link metric representing a costed-out or down link
// (OSPF's LSInfinity). Links at or above this weight never carry traffic.
const Infinity = 1 << 24

// WeightChange is one observed link-weight update from the OSPF monitor
// feed. Old is the weight before the change.
type WeightChange struct {
	At     time.Time
	LinkID string
	Old    int
	New    int
}

type weightPoint struct {
	at time.Time
	w  int
}

// Sim is the OSPF routing simulator. It is safe for concurrent readers
// once all weight changes have been recorded; the SPF memo below makes the
// read path cheap enough to share across every diagnosis in the process.
type Sim struct {
	topo *netmodel.Topology
	base map[string]int                     // link → weight at the beginning of time
	hist map[string][]weightPoint           // link → sorted weight timeline
	log  []WeightChange                     // global ordered change feed
	adj  map[string][]*netmodel.LogicalLink // router → incident internal links

	// clock numbers the routing epochs of the weight-change log: within
	// one epoch every SPF answer is provably constant (see EpochAt).
	clock epoch.Clock
	// spf memoizes Dijkstra distance maps per (src, epoch) for the clock's
	// current generation.
	spf *epoch.Memo[int64, spfKey, map[string]int]
}

// spfKey identifies one memoized single-source shortest-path run.
type spfKey struct {
	src   string
	epoch int
}

// EpochAt returns the routing epoch of time t: the number of recorded
// weight-change instants at or before t. Every link weight — and
// therefore every Distance/Elements answer — is identical for any
// two instants in the same epoch, which is what lets SPF results and
// spatial expansions be shared across diagnoses keyed by epoch instead of
// by timestamp.
func (s *Sim) EpochAt(t time.Time) int { return s.clock.At(t) }

// Clock returns the epoch clock of the weight-change log. Caches keyed by
// its epochs compare its generation to detect a change recorded after
// they were filled.
func (s *Sim) Clock() *epoch.Clock { return &s.clock }

// New creates a simulator over topo with the given initial link weights.
// Links not present in weights default to a metric of DefaultMetric.
func New(topo *netmodel.Topology, weights map[string]int) *Sim {
	s := &Sim{
		topo: topo,
		base: map[string]int{},
		hist: map[string][]weightPoint{},
		adj:  map[string][]*netmodel.LogicalLink{},
		spf:  epoch.NewMemo[int64, spfKey, map[string]int](mSPFHits, mSPFMisses),
	}
	for id := range topo.Links {
		w, ok := weights[id]
		if !ok {
			w = DefaultMetric
		}
		s.base[id] = w
	}
	for _, id := range topo.LinkIDs() {
		l := topo.Links[id]
		s.adj[l.A.Router.Name] = append(s.adj[l.A.Router.Name], l)
		s.adj[l.B.Router.Name] = append(s.adj[l.B.Router.Name], l)
	}
	return s
}

// DefaultMetric is the weight assumed for links without an explicit metric.
const DefaultMetric = 10

// SetWeight records a weight change for link id at time at. Changes must be
// recorded in nondecreasing time order per link; out-of-order records are
// rejected so that a corrupted monitor feed is surfaced rather than
// silently reordered.
func (s *Sim) SetWeight(at time.Time, id string, w int) error {
	if _, ok := s.base[id]; !ok {
		return fmt.Errorf("ospf: weight change for unknown link %q", id)
	}
	tl := s.hist[id]
	if n := len(tl); n > 0 && tl[n-1].at.After(at) {
		return fmt.Errorf("ospf: out-of-order weight change for link %q at %v", id, at)
	}
	old := s.WeightAt(id, at)
	if old == w {
		return nil // no-op refresh; OSPF re-floods identical LSAs periodically
	}
	s.hist[id] = append(tl, weightPoint{at: at, w: w})
	s.log = append(s.log, WeightChange{At: at, LinkID: id, Old: old, New: w})
	s.clock.Record(at)
	return nil
}

// WeightAt returns the weight of link id at time t. Unknown links are
// treated as unusable.
func (s *Sim) WeightAt(id string, t time.Time) int {
	tl, ok := s.hist[id]
	if !ok || len(tl) == 0 || t.Before(tl[0].at) {
		if w, ok := s.base[id]; ok {
			return w
		}
		return Infinity
	}
	// Binary search for the last change at or before t.
	i := sort.Search(len(tl), func(i int) bool { return tl[i].at.After(t) })
	return tl[i-1].w
}

// priority queue for Dijkstra

type pqItem struct {
	node string
	dist int
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// distances returns the Dijkstra distance map from src at time t, memoized
// per (src, epoch): within one routing epoch every weight is constant, so
// the first caller computes and every other query — across goroutines,
// diagnoses, and the BGP hot-potato tie-break — shares the result. The
// returned map is shared and must be treated as read-only.
func (s *Sim) distances(src string, t time.Time) map[string]int {
	d, _ := s.spf.Get(s.clock.Generation(), spfKey{src: src, epoch: s.EpochAt(t)},
		func() (map[string]int, error) { return s.computeDistances(src, t), nil })
	return d
}

// computeDistances runs Dijkstra from src over the internal topology at
// time t and returns the distance map. Customer routers do not participate
// in the IGP.
func (s *Sim) computeDistances(src string, t time.Time) map[string]int {
	dist := map[string]int{src: 0}
	q := &pq{{node: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		for _, l := range s.adj[it.node] {
			w := s.WeightAt(l.ID, t)
			if w >= Infinity {
				continue
			}
			far := l.Other(it.node)
			if far == nil || far.Router.Role == netmodel.RoleCustomer {
				continue
			}
			nd := it.dist + w
			if cur, ok := dist[far.Router.Name]; !ok || nd < cur {
				dist[far.Router.Name] = nd
				heap.Push(q, pqItem{node: far.Router.Name, dist: nd})
			}
		}
	}
	return dist
}

// Distance returns the IGP distance between two routers at time t, or
// math.MaxInt if dst is unreachable. This is the hot-potato input to the
// BGP decision process.
func (s *Sim) Distance(src, dst string, t time.Time) int {
	if src == dst {
		return 0
	}
	d, ok := s.distances(src, t)[dst]
	if !ok {
		return math.MaxInt
	}
	return d
}

// PathElements holds every network element lying on at least one shortest
// path between a router pair, the expansion the spatial model needs when
// joining an end-to-end symptom with element-level diagnostics. Under ECMP
// all equal-cost paths contribute (paper §II-B item 3).
type PathElements struct {
	Src, Dst string
	Dist     int
	Routers  map[string]bool
	Links    map[string]bool
}

// Elements computes the routers and links on all shortest paths from src to
// dst at time t. A node v is on some shortest path iff
// d(src,v) + d(v,dst) == d(src,dst); a link likewise with its weight.
func (s *Sim) Elements(src, dst string, t time.Time) (PathElements, error) {
	pe := PathElements{Src: src, Dst: dst, Routers: map[string]bool{}, Links: map[string]bool{}}
	if _, ok := s.topo.Routers[src]; !ok {
		return pe, fmt.Errorf("ospf: unknown source router %q", src)
	}
	if _, ok := s.topo.Routers[dst]; !ok {
		return pe, fmt.Errorf("ospf: unknown destination router %q", dst)
	}
	if src == dst {
		pe.Routers[src] = true
		return pe, nil
	}
	df := s.distances(src, t)
	total, ok := df[dst]
	if !ok {
		return pe, fmt.Errorf("ospf: %s unreachable from %s", dst, src)
	}
	db := s.distances(dst, t) // topology is symmetric (point-to-point links)
	pe.Dist = total
	for r, d := range df {
		if bd, ok := db[r]; ok && d+bd == total {
			pe.Routers[r] = true
		}
	}
	for id, l := range s.topo.Links {
		w := s.WeightAt(id, t)
		if w >= Infinity {
			continue
		}
		a, b := l.A.Router.Name, l.B.Router.Name
		da, oka := df[a]
		db2, okb := db[b]
		if oka && okb && da+w+db2 == total {
			pe.Links[id] = true
			continue
		}
		da, oka = df[b]
		db2, okb = db[a]
		if oka && okb && da+w+db2 == total {
			pe.Links[id] = true
		}
	}
	return pe, nil
}
