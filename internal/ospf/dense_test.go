package ospf

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"grca/internal/netmodel"
)

// The dense SPF (router numbers, one distance slice per tree) must answer
// exactly as the map-based Dijkstra it replaced. refSim below is that
// Dijkstra, kept only here: it owns its own weight timeline and ranges
// the topology's link map, so it shares nothing with Sim but the
// topology.

// refSim is the reference model: per-link weight timelines over a
// topology, with names for keys throughout.
type refSim struct {
	topo    *netmodel.Topology
	base    map[string]int
	changes map[string][]weightPoint
	adj     map[string][]*netmodel.LogicalLink
}

func newRefSim(topo *netmodel.Topology, weights map[string]int) *refSim {
	r := &refSim{topo: topo, base: weights, changes: map[string][]weightPoint{},
		adj: map[string][]*netmodel.LogicalLink{}}
	for _, l := range topo.Links {
		r.adj[l.A.Router.Name] = append(r.adj[l.A.Router.Name], l)
		r.adj[l.B.Router.Name] = append(r.adj[l.B.Router.Name], l)
	}
	return r
}

func (r *refSim) weightAt(id string, t time.Time) int {
	w := r.base[id]
	for _, c := range r.changes[id] {
		if c.at.After(t) {
			break
		}
		w = c.w
	}
	return w
}

type refItem struct {
	node string
	dist int
}

type refQueue []refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// distances is Dijkstra from src into a map; customer routers are never
// entered, but a customer source has distance 0.
func (r *refSim) distances(src string, t time.Time) map[string]int {
	dist := map[string]int{src: 0}
	q := &refQueue{{node: src}}
	for q.Len() > 0 {
		it := heap.Pop(q).(refItem)
		if it.dist > dist[it.node] {
			continue
		}
		for _, l := range r.adj[it.node] {
			w := r.weightAt(l.ID, t)
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
				heap.Push(q, refItem{node: far.Router.Name, dist: nd})
			}
		}
	}
	return dist
}

func (r *refSim) distance(src, dst string, t time.Time) int {
	if src == dst {
		return 0
	}
	d, ok := r.distances(src, t)[dst]
	if !ok {
		return math.MaxInt
	}
	return d
}

func (r *refSim) elements(src, dst string, t time.Time) (PathElements, error) {
	pe := PathElements{Src: src, Dst: dst, Routers: map[string]bool{}, Links: map[string]bool{}}
	if _, ok := r.topo.Routers[src]; !ok {
		return pe, fmt.Errorf("ospf: unknown source router %q", src)
	}
	if _, ok := r.topo.Routers[dst]; !ok {
		return pe, fmt.Errorf("ospf: unknown destination router %q", dst)
	}
	if src == dst {
		pe.Routers[src] = true
		return pe, nil
	}
	df := r.distances(src, t)
	total, ok := df[dst]
	if !ok {
		return pe, fmt.Errorf("ospf: %s unreachable from %s", dst, src)
	}
	db := r.distances(dst, t)
	pe.Dist = total
	for v, d := range df {
		if bd, ok := db[v]; ok && d+bd == total {
			pe.Routers[v] = true
		}
	}
	for id, l := range r.topo.Links {
		w := r.weightAt(id, t)
		if w >= Infinity {
			continue
		}
		for _, ends := range [][2]string{{l.A.Router.Name, l.B.Router.Name}, {l.B.Router.Name, l.A.Router.Name}} {
			da, oka := df[ends[0]]
			dz, okz := db[ends[1]]
			if oka && okz && da+w+dz == total {
				pe.Links[id] = true
			}
		}
	}
	return pe, nil
}

// spfCase is one generated differential case: a topology, a Sim and the
// reference over it, and the instants worth asking at.
type spfCase struct {
	sim      *Sim
	ref      *refSim
	routers  []string // every router, customers included, plus a name no router has
	instants []time.Time
}

// byteSource draws small integers from fuzz input, then zeros once it
// runs dry, so every input decodes to some topology.
type byteSource []byte

func (b *byteSource) next(n int) int {
	if len(*b) == 0 || n <= 1 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// weightOf maps a drawn value to a link weight; one value in eight is
// Infinity (costed out).
func weightOf(v int) int {
	if v%8 == 7 {
		return Infinity
	}
	return 1 + v%40
}

// buildSPFCase decodes a topology of 2–9 IGP routers and 0–3 customer
// routers, 1–16 links between random pairs (a customer may attach to
// anything, another customer included), initial weights, and up to 8
// weight changes at increasing instants.
func buildSPFCase(t testing.TB, data []byte) *spfCase {
	src := byteSource(data)
	topo := netmodel.NewTopology()
	nIGP, nCust := 2+src.next(8), src.next(4)
	var names []string
	for i := 0; i < nIGP+nCust; i++ {
		r := &netmodel.Router{Name: fmt.Sprintf("r%d", i), Role: netmodel.RoleCore}
		if i >= nIGP {
			r.Name, r.Role = fmt.Sprintf("c%d", i-nIGP), netmodel.RoleCustomer
		}
		if err := topo.AddRouter(r); err != nil {
			t.Fatal(err)
		}
		topo.AddCard(r)
		names = append(names, r.Name)
	}
	weights := map[string]int{}
	nLinks := 1 + src.next(16)
	for i := 0; i < nLinks; i++ {
		x, y := names[src.next(len(names))], names[src.next(len(names))]
		if x == y {
			y = names[(src.next(len(names)-1)+1+indexOf(names, x))%len(names)]
		}
		base := netip.AddrFrom4([4]byte{10, 0, byte(i >> 6), byte(i << 2)})
		pfx := netip.PrefixFrom(base, 30)
		id := fmt.Sprintf("l%d", i)
		ix, err := topo.AddInterface(topo.Routers[x].Cards[0], id+"-"+y, pfx, base.Next())
		if err != nil {
			t.Fatal(err)
		}
		iy, err := topo.AddInterface(topo.Routers[y].Cards[0], id+"-"+x, pfx, base.Next().Next())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := topo.Connect(id, ix, iy); err != nil {
			t.Fatal(err)
		}
		weights[id] = weightOf(src.next(256))
	}
	c := &spfCase{
		sim:      New(topo, weights),
		ref:      newRefSim(topo, weights),
		routers:  append(names, "nowhere"),
		instants: []time.Time{t0},
	}
	at := t0
	for i, n := 0, src.next(9); i < n; i++ {
		at = at.Add(time.Duration(1+src.next(3)) * time.Minute)
		id := fmt.Sprintf("l%d", src.next(nLinks))
		w := weightOf(src.next(256))
		if err := c.sim.SetWeight(at, id, w); err != nil {
			t.Fatal(err)
		}
		c.ref.changes[id] = append(c.ref.changes[id], weightPoint{at: at, w: w})
		c.instants = append(c.instants, at.Add(-time.Second), at, at.Add(30*time.Second))
	}
	return c
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func setOf(m map[string]bool) string {
	var out []string
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// check compares Sim with the reference on every ordered pair of routers
// at every instant of the case, each instant asked twice so the second
// answer comes from the memo.
func (c *spfCase) check(t *testing.T) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for _, at := range c.instants {
			for _, src := range c.routers {
				for _, dst := range c.routers {
					if got, want := c.sim.Distance(src, dst, at), c.ref.distance(src, dst, at); got != want {
						t.Fatalf("Distance(%s, %s, %v) = %d, reference %d", src, dst, at, got, want)
					}
					got, gerr := c.sim.Elements(src, dst, at)
					want, werr := c.ref.elements(src, dst, at)
					if fmt.Sprint(gerr) != fmt.Sprint(werr) {
						t.Fatalf("Elements(%s, %s, %v) error %v, reference %v", src, dst, at, gerr, werr)
					}
					if got.Src != want.Src || got.Dst != want.Dst || got.Dist != want.Dist ||
						setOf(got.Routers) != setOf(want.Routers) || setOf(got.Links) != setOf(want.Links) {
						t.Fatalf("Elements(%s, %s, %v) = %d {%s} {%s}, reference %d {%s} {%s}",
							src, dst, at, got.Dist, setOf(got.Routers), setOf(got.Links),
							want.Dist, setOf(want.Routers), setOf(want.Links))
					}
				}
			}
		}
	}
}

// TestDenseSPFMatchesReference runs the differential check over seeded
// random topologies: customer routers as source and destination, links
// costed out to Infinity, unreachable pairs, and weight changes across
// epochs. It also checks the seeds exercised each of those.
func TestDenseSPFMatchesReference(t *testing.T) {
	var customerPaths, unreachablePairs, costedOut, epochs int
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 96)
		rng.Read(data)
		c := buildSPFCase(t, data)
		c.check(t)
		epochs += c.sim.Clock().Len()
		for id := range c.sim.linkNum {
			if c.sim.WeightAt(id, t0) >= Infinity {
				costedOut++
			}
		}
		for _, src := range c.routers {
			for _, dst := range c.routers {
				d := c.sim.Distance(src, dst, t0)
				switch {
				case d == math.MaxInt:
					unreachablePairs++
				case src != dst && c.ref.topo.Routers[src].Role == netmodel.RoleCustomer:
					customerPaths++
				}
			}
		}
	}
	if customerPaths == 0 || unreachablePairs == 0 || costedOut == 0 || epochs == 0 {
		t.Fatalf("seeds exercised customer-sourced paths %d, unreachable pairs %d, costed-out links %d, epochs %d; want each > 0",
			customerPaths, unreachablePairs, costedOut, epochs)
	}
}

// FuzzSPF is the differential check on arbitrary topologies.
func FuzzSPF(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 6, 0, 1, 10, 1, 2, 20, 2, 0, 7, 0, 3, 5, 2, 1, 1, 15})
	f.Add([]byte{7, 3, 15, 0, 8, 9, 1, 8, 17, 2, 9, 1, 3, 10, 7, 5, 6, 3, 4, 6, 8, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		buildSPFCase(t, data).check(t)
	})
}
