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
// first read on whether the routing-epoch cache is doing its job, and
// the entries gauge counts the trees it holds.
var (
	mSPFHits    = obs.GetCounter("ospf.spf.cache.hits")
	mSPFMisses  = obs.GetCounter("ospf.spf.cache.misses")
	mSPFEntries = obs.GetGauge("ospf.spf.cache.entries")
)

// Infinity is the link metric representing a costed-out or down link
// (OSPF's LSInfinity). Links at or above this weight never carry traffic.
const Infinity = 1 << 24

// unreachable is a shortest-path tree's distance to a router no usable
// path reaches; it is also what Distance answers for one.
const unreachable = math.MaxInt

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
//
// The topology is fixed by the time a Sim is built, so New numbers its
// routers and links once and everything on the SPF path indexes slices
// by those numbers: the routers that run the IGP are 0..igp-1, customer
// routers follow, and a shortest-path tree is one distance per IGP router.
type Sim struct {
	topo *netmodel.Topology

	num   map[string]int32 // router name → number
	names []string         // router number → name
	igp   int              // routers numbered below igp run the IGP
	adj   [][]arc          // router number → incident links

	linkNum map[string]int32 // link ID → number
	links   []linkEnds       // link number → ID and endpoint router numbers
	base    []int            // link number → weight at the beginning of time
	hist    [][]weightPoint  // link number → sorted weight timeline

	// clock numbers the routing epochs of the weight-change log: within
	// one epoch every SPF answer is provably constant (see EpochAt).
	clock epoch.Clock
	// spf memoizes shortest-path trees per (source, epoch) for the clock's
	// current generation.
	spf *epoch.Memo[int64, spfKey, []int]
}

// arc is one incident link of a router, seen from that router.
type arc struct {
	link int32 // link number
	far  int32 // router number of the other end
}

// linkEnds is one logical link by numbers.
type linkEnds struct {
	id   string
	a, b int32
}

// spfKey identifies one memoized single-source shortest-path run.
type spfKey struct {
	src   int32
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
// Routers and links added to topo afterwards are not routed.
func New(topo *netmodel.Topology, weights map[string]int) *Sim {
	s := &Sim{
		topo:    topo,
		num:     map[string]int32{},
		linkNum: map[string]int32{},
		spf:     epoch.NewMemo[int64, spfKey, []int](mSPFHits, mSPFMisses, mSPFEntries),
	}
	ids := topo.LinkIDs()
	// Every router a link names is routed, whether or not the inventory
	// lists it; IGP routers are numbered first, each group by name.
	customer := map[string]bool{}
	for name, r := range topo.Routers {
		customer[name] = r.Role == netmodel.RoleCustomer
	}
	for _, id := range ids {
		for _, ifc := range []*netmodel.Interface{topo.Links[id].A, topo.Links[id].B} {
			if _, ok := customer[ifc.Router.Name]; !ok {
				customer[ifc.Router.Name] = ifc.Router.Role == netmodel.RoleCustomer
			}
		}
	}
	for name := range customer {
		s.names = append(s.names, name)
	}
	sort.Slice(s.names, func(i, j int) bool {
		ci, cj := customer[s.names[i]], customer[s.names[j]]
		if ci != cj {
			return cj
		}
		return s.names[i] < s.names[j]
	})
	for i, name := range s.names {
		s.num[name] = int32(i)
		if !customer[name] {
			s.igp++
		}
	}
	s.adj = make([][]arc, len(s.names))
	s.links = make([]linkEnds, len(ids))
	s.base = make([]int, len(ids))
	s.hist = make([][]weightPoint, len(ids))
	for i, id := range ids {
		l := topo.Links[id]
		a, b := s.num[l.A.Router.Name], s.num[l.B.Router.Name]
		s.linkNum[id] = int32(i)
		s.links[i] = linkEnds{id: id, a: a, b: b}
		s.adj[a] = append(s.adj[a], arc{link: int32(i), far: b})
		s.adj[b] = append(s.adj[b], arc{link: int32(i), far: a})
		w, ok := weights[id]
		if !ok {
			w = DefaultMetric
		}
		s.base[i] = w
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
	i, ok := s.linkNum[id]
	if !ok {
		return fmt.Errorf("ospf: weight change for unknown link %q", id)
	}
	tl := s.hist[i]
	if n := len(tl); n > 0 && tl[n-1].at.After(at) {
		return fmt.Errorf("ospf: out-of-order weight change for link %q at %v", id, at)
	}
	old := s.weightAt(i, at)
	if old == w {
		return nil // no-op refresh; OSPF re-floods identical LSAs periodically
	}
	s.hist[i] = append(tl, weightPoint{at: at, w: w})
	s.clock.Record(at)
	return nil
}

// WeightAt returns the weight of link id at time t. Unknown links are
// treated as unusable.
func (s *Sim) WeightAt(id string, t time.Time) int {
	i, ok := s.linkNum[id]
	if !ok {
		return Infinity
	}
	return s.weightAt(i, t)
}

// weightAt returns the weight of link number i at time t.
func (s *Sim) weightAt(i int32, t time.Time) int {
	tl := s.hist[i]
	if len(tl) == 0 || t.Before(tl[0].at) {
		return s.base[i]
	}
	// Binary search for the last change at or before t.
	j := sort.Search(len(tl), func(j int) bool { return tl[j].at.After(t) })
	return tl[j-1].w
}

// distances returns the shortest-path tree from router number src at time
// t, memoized per (src, epoch): within one routing epoch every weight is
// constant, so the first caller computes and every other query — across
// goroutines, diagnoses, and the BGP hot-potato tie-break — shares the
// result. The returned slice is shared and must be treated as read-only.
func (s *Sim) distances(src int32, t time.Time) []int {
	d, _ := s.spf.Get(s.clock.Generation(), spfKey{src: src, epoch: s.EpochAt(t)},
		func() ([]int, error) { return s.computeDistances(src, t), nil })
	return d
}

// computeDistances runs Dijkstra from router number src over the internal
// topology at time t and returns the distance of every IGP router,
// unreachable where no usable path leads. Customer routers do not
// participate in the IGP: a customer source reaches its attachments, but
// no path enters a customer router.
func (s *Sim) computeDistances(src int32, t time.Time) []int {
	dist := make([]int, s.igp)
	for i := range dist {
		dist[i] = unreachable
	}
	if int(src) < s.igp {
		dist[src] = 0
	}
	q := spfQueue{{node: src}}
	for len(q) > 0 {
		it := q.pop()
		if int(it.node) < s.igp && it.dist > dist[it.node] {
			continue // stale entry
		}
		for _, a := range s.adj[it.node] {
			if int(a.far) >= s.igp {
				continue
			}
			w := s.weightAt(a.link, t)
			if w >= Infinity {
				continue
			}
			if nd := it.dist + w; nd < dist[a.far] {
				dist[a.far] = nd
				q.push(spfItem{node: a.far, dist: nd})
			}
		}
	}
	return dist
}

// spfItem is one tentative distance in Dijkstra's queue.
type spfItem struct {
	dist int
	node int32
}

// spfQueue is a binary min-heap of tentative distances.
type spfQueue []spfItem

func (q *spfQueue) push(it spfItem) {
	*q = append(*q, it)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (q *spfQueue) pop() spfItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && h[l].dist < h[m].dist {
			m = l
		}
		if r < n && h[r].dist < h[m].dist {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// reach returns the distance to router number r in the tree rooted at
// router number root: 0 for the root itself, which a customer root is
// not in the tree to say.
func (s *Sim) reach(tree []int, root, r int32) int {
	switch {
	case r == root:
		return 0
	case int(r) < s.igp:
		return tree[r]
	}
	return unreachable
}

// Distance returns the IGP distance between two routers at time t, or
// math.MaxInt if dst is unreachable. This is the hot-potato input to the
// BGP decision process.
func (s *Sim) Distance(src, dst string, t time.Time) int {
	if src == dst {
		return 0
	}
	si, ok := s.num[src]
	if !ok {
		return unreachable
	}
	di, ok := s.num[dst]
	if !ok {
		return unreachable
	}
	return s.reach(s.distances(si, t), si, di)
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
	si, sok := s.num[src]
	di, dok := s.num[dst]
	if !sok || !dok {
		return pe, fmt.Errorf("ospf: %s unreachable from %s", dst, src)
	}
	df := s.distances(si, t)
	total := s.reach(df, si, di)
	if total == unreachable {
		return pe, fmt.Errorf("ospf: %s unreachable from %s", dst, src)
	}
	db := s.distances(di, t) // topology is symmetric (point-to-point links)
	pe.Dist = total
	for r := int32(0); int(r) < s.igp; r++ {
		if d, bd := df[r], db[r]; d != unreachable && bd != unreachable && d+bd == total {
			pe.Routers[s.names[r]] = true
		}
	}
	// on reports whether a shortest path runs x, the link of weight w, y.
	on := func(x, y int32, w int) bool {
		dx, dy := s.reach(df, si, x), s.reach(db, di, y)
		return dx != unreachable && dy != unreachable && dx+w+dy == total
	}
	for i, l := range s.links {
		w := s.weightAt(int32(i), t)
		if w >= Infinity {
			continue
		}
		if on(l.a, l.b, w) || on(l.b, l.a, w) {
			pe.Links[l.id] = true
		}
	}
	return pe, nil
}
