// Package simnet synthesizes the operational substrate the paper's G-RCA
// deployment consumed from a live tier-1 ISP: a realistic multi-PoP
// topology (rendered as router configuration snapshots plus a layer-1
// inventory), and raw monitoring feeds — syslog, SNMP, OSPF monitor, BGP
// monitor, TACACS, workflow logs, layer-1 device logs, performance and CDN
// measurements — produced by a seeded ground-truth scenario engine.
//
// Every injected incident follows the causal cascades described in the
// paper (an interface flap escalates to a line-protocol flap and an eBGP
// flap after the hold timer; a SONET restoration rides below an interface
// flap; a CPU spike expires BGP hold timers; a costed-out router disturbs
// PIM adjacencies between PEs whose path crossed it), and the generator
// records the true root cause of every symptom so that diagnosis accuracy
// can be scored — something the paper's operators could not do.
//
// The root-cause mix of each scenario defaults to the published breakdowns
// (Tables IV, VI, and VIII), so regenerating the paper's tables is a
// matter of running the corresponding RCA application over the dataset.
package simnet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"grca/internal/conf"
	"grca/internal/netmodel"
	"grca/internal/ospf"
)

// Config parameterizes dataset generation. The zero value of every field
// takes the documented default; Seed 0 means seed 1.
type Config struct {
	Seed int64

	// Topology scale.
	PoPs           int // default 4
	PERsPerPoP     int // default 2
	SessionsPerPER int // eBGP customer sessions per PER, default 12

	// MVPNFraction of customers attach at two PoPs and run PIM between
	// their PEs (default 0.25).
	MVPNFraction float64

	// Start and Duration bound the simulated observation window
	// (defaults: 2010-01-01 UTC, 7 days).
	Start    time.Time
	Duration time.Duration

	// Scenario sizes: how many symptom incidents to inject per study.
	// Zero disables a study.
	BGPFlapIncidents  int
	CDNIncidents      int
	PIMIncidents      int
	BackboneIncidents int // in-network loss study (§I motivating scenario)

	// LineCardCrash injects the §IV-C scenario: one line card crash
	// flapping every session it carries within three minutes.
	LineCardCrash bool
	// ProvisioningBug injects the §IV-B hidden vendor bug: provisioning
	// activity on a PER that flaps customer BGP sessions via CPU, with no
	// link-layer evidence.
	ProvisioningBugIncidents int

	// RelaxRouterSpacing lets plain flap incidents (interface, line
	// protocol, unknown) of the BGP study collide on the same router —
	// only per-session separation is kept. The default strict spacing
	// keeps ground-truth attribution unambiguous; the relaxed mode exists
	// for ablations that quantify how much the fine-grained spatial model
	// buys when concurrent failures share a router.
	RelaxRouterSpacing bool

	// NoiseSyslogKinds and NoiseWorkflowKinds control how many unrelated
	// signature series the feeds carry (the §IV-B study tested 2533
	// syslog and 831 workflow series; defaults 40 and 15 at laptop scale).
	NoiseSyslogKinds   int
	NoiseWorkflowKinds int
	// NoiseEventsPerKind is the number of occurrences per noise series
	// (default 40).
	NoiseEventsPerKind int
}

func (c *Config) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PoPs == 0 {
		c.PoPs = 4
	}
	if c.PERsPerPoP == 0 {
		c.PERsPerPoP = 2
	}
	if c.SessionsPerPER == 0 {
		c.SessionsPerPER = 12
	}
	if c.MVPNFraction == 0 {
		c.MVPNFraction = 0.25
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.Duration == 0 {
		c.Duration = 7 * 24 * time.Hour
	}
	if c.NoiseSyslogKinds == 0 {
		c.NoiseSyslogKinds = 40
	}
	if c.NoiseWorkflowKinds == 0 {
		c.NoiseWorkflowKinds = 15
	}
	if c.NoiseEventsPerKind == 0 {
		c.NoiseEventsPerKind = 40
	}
}

// Truth is the ground-truth label for one injected symptom incident.
type Truth struct {
	// ID numbers the incident in injection order — a stable handle for
	// accuracy scorers and chaos reports to reference individual
	// incidents deterministically.
	ID int
	// Study is "bgp", "cdn", or "pim".
	Study string
	// Kind is the injected root cause label (e.g. "interface flap",
	// "external", "line-card crash").
	Kind string
	// At is the incident's anchor time.
	At time.Time
	// Where describes the affected element (session, agent, PE pair).
	Where string
}

// Session is one customer eBGP attachment.
type Session struct {
	PER        string
	Interface  string // customer-facing interface name
	NeighborIP netip.Addr
	Customer   string
	MVPN       string // VRF name when the customer is multi-site, else ""
}

// MVPN is one multi-site customer: the set of PEs carrying its VRF.
type MVPN struct {
	VRF string
	PEs []string
}

// Dataset is a generated corpus: parsed topology, its rendered
// configuration archive, the raw feeds keyed by collector source name, and
// the ground truth.
type Dataset struct {
	Config    Config
	Topo      *netmodel.Topology
	Configs   []conf.DeviceConfig
	Inventory string
	// Feeds maps collector source names to raw feed text, each sorted by
	// record time.
	Feeds map[string]string
	Truth []Truth

	Sessions []Session
	MVPNs    []MVPN
	// CDN layout: one node at the first PoP.
	CDNNode     string
	CDNServer   string
	CDNRouter   string
	Agents      []string
	AgentPrefix map[string]netip.Prefix
	AgentAddr   map[string]netip.Addr
	// PeerEgresses are the PERs announcing the agent prefixes.
	PeerEgresses []string

	rng     *rand.Rand
	feeds   map[string]*feed
	buf     []byte // the line an emitter is rendering
	err     error  // a feed outgrew its arena's offsets
	zones   map[string]*time.Location
	weights map[string]int // internal link → IGP metric
	planner *ospf.Sim      // static routing view used for incident placement

	// Listings of the finished topology, computed once: the IGP links,
	// the PERs, and the routers SNMP polls (all but customers), each in
	// name order.
	igpLinks []*netmodel.LogicalLink
	pers     []string
	polled   []string

	// ProbePairs are the (ingress, egress) router pairs the in-network
	// performance monitor measures.
	ProbePairs [][2]string

	// Per-bin measurement overrides applied by scenarios before the
	// steady-state series are rendered.
	keynoteRTT map[string]map[int]float64 // agent → bin → RTT (ms)
	perfLoss   map[string]map[int]float64 // "a|b" → bin → loss percent
	busy       map[string][]int64         // spacing ledger per element, Unix ns
}

// Generate builds a dataset for cfg.
func Generate(cfg Config) (*Dataset, error) {
	cfg.defaults()
	d := &Dataset{
		Config:      cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		feeds:       map[string]*feed{},
		zones:       map[string]*time.Location{},
		AgentPrefix: map[string]netip.Prefix{},
		AgentAddr:   map[string]netip.Addr{},
		weights:     map[string]int{},
		keynoteRTT:  map[string]map[int]float64{},
		perfLoss:    map[string]map[int]float64{},
		busy:        map[string][]int64{},
	}
	if err := d.buildTopology(); err != nil {
		return nil, err
	}
	d.igpLinks = d.internalLinks()
	d.pers = d.routersWhere(func(r *netmodel.Router) bool { return r.Role == netmodel.RoleProviderEdge })
	d.polled = d.routersWhere(func(r *netmodel.Router) bool { return r.Role != netmodel.RoleCustomer })
	// The configuration archive and inventory read the topology alone,
	// which nothing changes from here on: they render while the rest runs.
	var archive sync.WaitGroup
	archive.Add(1)
	go func() {
		defer archive.Done()
		d.Configs = conf.Render(d.Topo)
		d.Inventory = conf.RenderInventory(d.Topo)
	}()
	defer archive.Wait()

	d.planner = ospf.New(d.Topo, d.weights)
	d.ProbePairs = d.probePairs()
	d.emitRoutingBaseline()

	if cfg.BGPFlapIncidents > 0 {
		if err := d.runBGPScenario(cfg.BGPFlapIncidents); err != nil {
			return nil, err
		}
	}
	if cfg.ProvisioningBugIncidents > 0 {
		d.runProvisioningBug(cfg.ProvisioningBugIncidents)
	}
	if cfg.LineCardCrash {
		if err := d.runLineCardCrash(); err != nil {
			return nil, err
		}
	}
	if cfg.CDNIncidents > 0 {
		if err := d.runCDNScenario(cfg.CDNIncidents); err != nil {
			return nil, err
		}
	}
	if cfg.PIMIncidents > 0 {
		if err := d.runPIMScenario(cfg.PIMIncidents); err != nil {
			return nil, err
		}
	}
	if cfg.BackboneIncidents > 0 {
		if err := d.runBackboneScenario(cfg.BackboneIncidents); err != nil {
			return nil, err
		}
	}

	d.emitSteadyState()
	d.emitNoise()

	if d.err != nil {
		for _, f := range d.feeds {
			f.early.Wait()
		}
		return nil, d.err
	}
	d.finishFeeds()
	return d, nil
}

// finishFeeds sorts every feed into d.Feeds, the feeds on up to
// GOMAXPROCS goroutines, largest first, and those sorted early
// (sortEarly) as they finish.
func (d *Dataset) finishFeeds() {
	type finished struct {
		f    *feed
		src  string
		text string
	}
	out := make([]finished, 0, len(d.feeds))
	for src, f := range d.feeds {
		out = append(out, finished{f: f, src: src})
	}
	// The most work first: a feed sorted early is only waited for.
	work := func(f *feed) int {
		if f.started {
			return 0
		}
		return f.size
	}
	slices.SortFunc(out, func(a, b finished) int { return work(b.f) - work(a.f) })
	parallel(len(out), func(i int) { out[i].text = out[i].f.final() })
	d.Feeds = make(map[string]string, len(out))
	for _, r := range out {
		d.Feeds[r.src] = r.text
	}
	d.feeds = nil
}

// parallel calls do(0), …, do(n-1) on up to GOMAXPROCS goroutines, the
// calling one among them, and returns once every call has returned.
func parallel(n int, do func(i int)) {
	c := &calls{n: n, do: do}
	helpers := min(runtime.GOMAXPROCS(0), n) - 1
	for range helpers {
		c.wg.Add(1)
		go c.help()
	}
	c.work()
	c.wg.Wait()
}

// calls is the state parallel's goroutines share.
type calls struct {
	n    int
	do   func(i int)
	next atomic.Int64 // the next call to make
	wg   sync.WaitGroup
}

// work makes calls until none is left.
func (c *calls) work() {
	for i := int(c.next.Add(1) - 1); i < c.n; i = int(c.next.Add(1) - 1) {
		c.do(i)
	}
}

// help makes calls on a helper goroutine.
func (c *calls) help() {
	defer c.wg.Done()
	c.work()
}

// feedOf returns source's feed, making it on first use.
func (d *Dataset) feedOf(source string) *feed {
	f := d.feeds[source]
	if f == nil {
		f = &feed{}
		d.feeds[source] = f
	}
	return f
}

// overflow records that source's feed outgrew its arena's offsets.
func (d *Dataset) overflow(source string) {
	if d.err == nil {
		d.err = fmt.Errorf("simnet: the %s feed exceeds 4 GiB (shorten Duration)", source)
	}
}

// emit appends a rendered line to a source's feed, stamped with its record
// time for ordering, and takes the line's buffer back as d.buf.
func (d *Dataset) emit(source string, at time.Time, line []byte) {
	// at.Sub would be the same offset, at twice the cost per line.
	start := d.Config.Start
	off := time.Duration(at.Unix()-start.Unix())*time.Second + time.Duration(at.Nanosecond()-start.Nanosecond())
	if !d.feedOf(source).add(off, line) {
		d.overflow(source)
	}
	d.buf = line[:0]
}

// TruthBreakdown tallies the ground truth of one study as percentages.
func (d *Dataset) TruthBreakdown(study string) map[string]float64 {
	counts := map[string]int{}
	total := 0
	for _, t := range d.Truth {
		if t.Study == study {
			counts[t.Kind]++
			total++
		}
	}
	if total == 0 {
		return nil
	}
	out := map[string]float64{}
	for k, v := range counts {
		out[k] = 100 * float64(v) / float64(total)
	}
	return out
}

func (d *Dataset) popName(i int) string { return fmt.Sprintf("pop%02d", i) }
