// Package bgp emulates the interdomain routing view the G-RCA service
// dependency model needs: given the historical BGP route changes collected
// at the route reflectors, it answers "which egress router carried traffic
// from this ingress router toward this destination at time T?" (paper
// §II-B item 1).
//
// As in the paper, per-ingress BGP state is not directly observed; the BGP
// decision process at an ingress router is emulated from the reflector-
// learned candidate routes plus the OSPF distance to the available egress
// routers (hot-potato routing), and one best egress is picked per the BGP
// best-path selection rules.
package bgp

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"grca/internal/epoch"
	"grca/internal/obs"
	"grca/internal/ospf"
)

// Best-path-memo metrics: decision-process emulation is the interdomain
// half of the route computation that dominates CDN diagnosis latency
// (§III-B.2); the hit ratios show how much of it the routing-epoch cache
// absorbs, and the entries gauges what they hold.
var (
	mLookupHits    = obs.GetCounter("bgp.lookup.cache.hits")
	mLookupMisses  = obs.GetCounter("bgp.lookup.cache.misses")
	mLookupEntries = obs.GetGauge("bgp.lookup.cache.entries")
	mBestHits      = obs.GetCounter("bgp.bestpath.cache.hits")
	mBestMisses    = obs.GetCounter("bgp.bestpath.cache.misses")
	mBestEntries   = obs.GetGauge("bgp.bestpath.cache.entries")
)

// Route is one reflector-learned path to an external prefix, already
// resolved to the ISP egress router that announced it.
type Route struct {
	Prefix    netip.Prefix
	Egress    string // egress router (the next hop's attachment point)
	LocalPref int    // higher preferred
	ASPathLen int    // shorter preferred
	Origin    int    // lower preferred (IGP=0 < EGP=1 < incomplete=2)
	MED       int    // lower preferred
}

type ribEntry struct {
	at        time.Time
	withdrawn bool
	route     Route
}

type timeline struct {
	egress  string
	entries []ribEntry // time-ordered
}

func (tl *timeline) at(t time.Time) (Route, bool) {
	i := sort.Search(len(tl.entries), func(i int) bool { return tl.entries[i].at.After(t) })
	if i == 0 {
		return Route{}, false
	}
	e := tl.entries[i-1]
	if e.withdrawn {
		return Route{}, false
	}
	return e.route, true
}

// Sim is the BGP route-history simulator. Like ospf.Sim it is safe for
// concurrent readers once all updates have been recorded, and memoizes its
// two expensive read paths — longest-prefix lookup and best-path selection
// — per routing epoch so the work is shared across diagnoses.
type Sim struct {
	ospf     *ospf.Sim
	prefixes map[netip.Prefix]map[string]*timeline // prefix → egress → timeline
	updates  []Update                              // global ordered update feed

	// clock numbers the interdomain routing epochs: between two
	// consecutive update instants the RIB — and thus Lookup and
	// Candidates — is constant. Best-path selection additionally depends
	// on the OSPF epoch through the hot-potato tie-break, so bestKey
	// carries both.
	clock epoch.Clock
	// lookup and best are the two memos, each for one pair of (BGP, OSPF)
	// clock generations: either change log growing drops both.
	lookup *epoch.Memo[[2]int64, lookupKey, netip.Prefix]
	best   *epoch.Memo[[2]int64, bestKey, Route]
}

// lookupKey identifies one memoized longest-prefix match.
type lookupKey struct {
	addr  netip.Addr
	epoch int
}

// bestKey identifies one memoized decision-process emulation. The OSPF
// epoch is part of the key because an intradomain weight change can move
// the hot-potato tie-break without any BGP update.
type bestKey struct {
	ingress   string
	prefix    netip.Prefix
	epoch     int // BGP epoch
	ospfEpoch int
}

// gens returns the generations the memos are valid for.
func (s *Sim) gens() [2]int64 {
	return [2]int64{s.clock.Generation(), s.ospf.Clock().Generation()}
}

// EpochAt returns the interdomain routing epoch of time t: the number of
// recorded update instants at or before t. The RIB is identical for any
// two instants in the same epoch.
func (s *Sim) EpochAt(t time.Time) int { return s.clock.At(t) }

// Clock returns the epoch clock of the update feed; see ospf.Sim.Clock.
func (s *Sim) Clock() *epoch.Clock { return &s.clock }

// Update is one observed reflector update, the unit of the BGP monitor feed.
type Update struct {
	At       time.Time
	Withdraw bool
	Route    Route
}

// New creates a simulator whose hot-potato tie-break consults o.
func New(o *ospf.Sim) *Sim {
	return &Sim{
		ospf:     o,
		prefixes: map[netip.Prefix]map[string]*timeline{},
		lookup:   epoch.NewMemo[[2]int64, lookupKey, netip.Prefix](mLookupHits, mLookupMisses, mLookupEntries),
		best:     epoch.NewMemo[[2]int64, bestKey, Route](mBestHits, mBestMisses, mBestEntries),
	}
}

// Announce records that egress r.Egress offered r for r.Prefix from time at.
// Updates per (prefix, egress) must be time-ordered.
func (s *Sim) Announce(at time.Time, r Route) error {
	return s.record(at, r, false)
}

// Withdraw records that the named egress stopped offering prefix at time at.
func (s *Sim) Withdraw(at time.Time, prefix netip.Prefix, egress string) error {
	return s.record(at, Route{Prefix: prefix, Egress: egress}, true)
}

func (s *Sim) record(at time.Time, r Route, withdraw bool) error {
	if !r.Prefix.IsValid() {
		return fmt.Errorf("bgp: invalid prefix in update")
	}
	if r.Egress == "" {
		return fmt.Errorf("bgp: update without egress router")
	}
	m := s.prefixes[r.Prefix.Masked()]
	if m == nil {
		m = map[string]*timeline{}
		s.prefixes[r.Prefix.Masked()] = m
	}
	tl := m[r.Egress]
	if tl == nil {
		tl = &timeline{egress: r.Egress}
		m[r.Egress] = tl
	}
	if n := len(tl.entries); n > 0 && tl.entries[n-1].at.After(at) {
		return fmt.Errorf("bgp: out-of-order update for %v via %s", r.Prefix, r.Egress)
	}
	tl.entries = append(tl.entries, ribEntry{at: at, withdrawn: withdraw, route: r})
	s.updates = append(s.updates, Update{At: at, Withdraw: withdraw, Route: r})
	s.clock.Record(at)
	return nil
}

// Lookup performs the longest-prefix match over all prefixes that have at
// least one active route at time t, as the paper does against historical
// BGP table data. The scan over the prefix table is memoized per
// (address, epoch).
func (s *Sim) Lookup(ip netip.Addr, t time.Time) (netip.Prefix, bool) {
	pfx, _ := s.lookup.Get(s.gens(), lookupKey{addr: ip, epoch: s.EpochAt(t)},
		func() (netip.Prefix, error) { return s.longestMatch(ip, t), nil })
	return pfx, pfx.IsValid()
}

// longestMatch is Lookup's uncached scan. The zero Prefix, whose Bits is
// -1, means no match: every recorded prefix is valid.
func (s *Sim) longestMatch(ip netip.Addr, t time.Time) netip.Prefix {
	var best netip.Prefix
	for pfx, egresses := range s.prefixes {
		if !pfx.Contains(ip) {
			continue
		}
		active := false
		for _, tl := range egresses {
			if _, ok := tl.at(t); ok {
				active = true
				break
			}
		}
		if !active {
			continue
		}
		if pfx.Bits() > best.Bits() {
			best = pfx
		}
	}
	return best
}

// Candidates returns the active routes for an exact prefix at time t,
// sorted by egress name for determinism.
func (s *Sim) Candidates(prefix netip.Prefix, t time.Time) []Route {
	var out []Route
	for _, tl := range s.prefixes[prefix.Masked()] {
		if r, ok := tl.at(t); ok {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Egress < out[j].Egress })
	return out
}

// better reports whether a beats b in the emulated BGP decision process at
// the given ingress router and time: highest local preference, shortest AS
// path, lowest origin, lowest MED, lowest IGP distance to the egress
// (hot-potato), then lowest egress identifier as the final deterministic
// tie-break (standing in for lowest router ID).
func (s *Sim) better(a, b Route, ingress string, t time.Time) bool {
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if a.ASPathLen != b.ASPathLen {
		return a.ASPathLen < b.ASPathLen
	}
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	if a.MED != b.MED {
		return a.MED < b.MED
	}
	da := s.ospf.Distance(ingress, a.Egress, t)
	db := s.ospf.Distance(ingress, b.Egress, t)
	if da != db {
		return da < db
	}
	return a.Egress < b.Egress
}

// BestEgress emulates the decision process at ingress for traffic to ip at
// time t and returns the selected route. The selection is memoized per
// (ingress, prefix, BGP epoch, OSPF epoch): candidates are fixed within a
// BGP epoch and the hot-potato distances within an OSPF epoch, so the
// emulation runs once per epoch pair no matter how many diagnoses ask.
// A memoized error is returned verbatim, so its message names the first
// instant queried in the epoch rather than t.
func (s *Sim) BestEgress(ingress string, ip netip.Addr, t time.Time) (Route, error) {
	pfx, ok := s.Lookup(ip, t)
	if !ok {
		return Route{}, fmt.Errorf("bgp: no route to %v at %v", ip, t)
	}
	k := bestKey{ingress: ingress, prefix: pfx, epoch: s.EpochAt(t), ospfEpoch: s.ospf.EpochAt(t)}
	return s.best.Get(s.gens(), k, func() (Route, error) { return s.bestEgress(ingress, pfx, t) })
}

func (s *Sim) bestEgress(ingress string, pfx netip.Prefix, t time.Time) (Route, error) {
	cands := s.Candidates(pfx, t)
	if len(cands) == 0 {
		return Route{}, fmt.Errorf("bgp: prefix %v has no active route at %v", pfx, t)
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if s.better(c, best, ingress, t) {
			best = c
		}
	}
	return best, nil
}

// EgressChange records that the best egress from Ingress toward the
// destination prefix changed at At.
type EgressChange struct {
	At      time.Time
	Ingress string
	Prefix  netip.Prefix
	Old     string
	New     string
}

// EgressChanges replays the update feed between from and to and reports
// every instant at which the emulated best egress from ingress toward dst
// changed. This drives the "BGP egress change" event of Table I.
func (s *Sim) EgressChanges(ingress string, dst netip.Addr, from, to time.Time) []EgressChange {
	var times []time.Time
	for _, u := range s.updates {
		if u.At.Before(from) || u.At.After(to) {
			continue
		}
		if u.Route.Prefix.Masked().Contains(dst) {
			times = append(times, u.At)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })

	var out []EgressChange
	prev := ""
	if r, err := s.BestEgress(ingress, dst, from); err == nil {
		prev = r.Egress
	}
	for _, at := range times {
		cur := ""
		var pfx netip.Prefix
		if r, err := s.BestEgress(ingress, dst, at); err == nil {
			cur, pfx = r.Egress, r.Prefix
		}
		if cur != prev {
			out = append(out, EgressChange{At: at, Ingress: ingress, Prefix: pfx, Old: prev, New: cur})
			prev = cur
		}
	}
	return out
}
