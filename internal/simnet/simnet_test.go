package simnet

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"grca/internal/collector"
	"grca/internal/conf"
	"grca/internal/event"
	"grca/internal/netmodel"
	"grca/internal/store"
)

func smallConfig() Config {
	return Config{
		Seed:             7,
		PoPs:             3,
		PERsPerPoP:       2,
		SessionsPerPER:   8,
		Duration:         4 * 24 * time.Hour,
		BGPFlapIncidents: 120,
		CDNIncidents:     60,
		PIMIncidents:     60,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for src, text := range a.Feeds {
		if b.Feeds[src] != text {
			t.Errorf("feed %s differs between runs with identical seed", src)
		}
	}
	if len(a.Truth) != len(b.Truth) {
		t.Error("truth differs between runs")
	}
	c, err := Generate(Config{Seed: 8, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 8,
		Duration: 4 * 24 * time.Hour, BGPFlapIncidents: 120})
	if err != nil {
		t.Fatal(err)
	}
	if c.Feeds[collector.SourceSyslog] == a.Feeds[collector.SourceSyslog] {
		t.Error("different seeds produced identical syslog")
	}
}

// TestGenerateConcurrent runs eight Generates at once: a Dataset shares no
// mutable state with another, so the race detector stays quiet (with a
// package-level zone cache it reports a race in most -race runs), and each
// renders the golden bytes.
func TestGenerateConcurrent(t *testing.T) {
	g := goldenConfigs[0]
	var digests [8]string
	var wg sync.WaitGroup
	for i := range digests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := Generate(g.cfg)
			if err != nil {
				t.Error(err)
				return
			}
			digests[i] = datasetDigest(d)
		}(i)
	}
	wg.Wait()
	for i, got := range digests {
		if got != g.digest {
			t.Errorf("run %d: digest = %s, want %s", i, got, g.digest)
		}
	}
}

// TestGenerateBytesIndependentOfProcs: the heap Generate allocates for
// the small corpus at GOMAXPROCS 64 is within a chunk (64 KiB) per
// rendered block of what it allocates at GOMAXPROCS 1, so more cores cost
// short-lived goroutines and no more feed memory.
func TestGenerateBytesIndependentOfProcs(t *testing.T) {
	g := goldenConfigs[0]
	allocated := func(procs int) (bytes uint64, blocks int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		if _, err := Generate(g.cfg); err != nil { // the runtime's own per-P and goroutine set-up
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := Generate(g.cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{"snmp", "perfmon", "keynote"} {
			blocks += (strings.Count(d.Feeds[src], "\n") + rowBlock - 1) / rowBlock
		}
		return after.TotalAlloc - before.TotalAlloc, blocks
	}
	one, blocks := allocated(1)
	many, _ := allocated(64)
	if diff := max(one, many) - min(one, many); diff > uint64(blocks)<<chunkBits {
		t.Errorf("Generate allocated %d bytes at GOMAXPROCS 1 and %d at 64: %d apart, more than %d blocks' chunk", one, many, diff, blocks)
	}
}

func TestTopologyShape(t *testing.T) {
	d, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cores, pers, custs := 0, 0, 0
	for _, r := range d.Topo.Routers {
		switch r.Role {
		case netmodel.RoleCore:
			cores++
		case netmodel.RoleProviderEdge:
			pers++
		case netmodel.RoleCustomer:
			custs++
		}
	}
	if cores != 6 || pers != 6 || custs != 48 {
		t.Errorf("topology: cores=%d pers=%d custs=%d", cores, pers, custs)
	}
	if len(d.Sessions) != 48 {
		t.Errorf("sessions = %d", len(d.Sessions))
	}
	if len(d.MVPNs) == 0 {
		t.Error("no MVPNs generated")
	}
	if len(d.PeerEgresses) != 2 || d.PeerEgresses[0] == d.PeerEgresses[1] {
		t.Errorf("peer egresses = %v", d.PeerEgresses)
	}
	// Rendered configs parse back into an equivalent topology.
	topo, err := conf.Parse(d.Configs, d.Inventory)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Routers) != len(d.Topo.Routers) || len(topo.Links) != len(d.Topo.Links) {
		t.Errorf("config round trip: %d/%d routers, %d/%d links",
			len(topo.Routers), len(d.Topo.Routers), len(topo.Links), len(d.Topo.Links))
	}
}

func TestTruthMixMatchesTables(t *testing.T) {
	cfg := smallConfig()
	cfg.BGPFlapIncidents = 2000
	cfg.CDNIncidents = 0
	cfg.PIMIncidents = 0
	cfg.Duration = 28 * 24 * time.Hour
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := d.TruthBreakdown("bgp")
	// Shape checks against Table IV.
	if math.Abs(b[event.InterfaceFlap]-63.94) > 3 {
		t.Errorf("interface flap share = %.2f, want ≈63.94", b[event.InterfaceFlap])
	}
	if math.Abs(b[event.LineProtoFlap]-11.15) > 2 {
		t.Errorf("line proto share = %.2f", b[event.LineProtoFlap])
	}
	if math.Abs(b["Unknown"]-10.95) > 2 {
		t.Errorf("unknown share = %.2f", b["Unknown"])
	}
	if b[event.CPUHighSpike] < 3 || b[event.CPUHighSpike] > 10 {
		t.Errorf("cpu spike share = %.2f", b[event.CPUHighSpike])
	}
	if d.TruthBreakdown("nope") != nil {
		t.Error("unknown study breakdown should be nil")
	}
}

func TestFeedsParseCleanly(t *testing.T) {
	d, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	topo, err := conf.Parse(d.Configs, d.Inventory)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	c := collector.New(topo, st, d.Config.Start.Year())
	for _, src := range []string{
		collector.SourceSyslog, collector.SourceSNMP, collector.SourceOSPFMon,
		collector.SourceBGPMon, collector.SourceTACACS, collector.SourceWorkflow,
		collector.SourceLayer1, collector.SourcePerfMon, collector.SourceKeynote,
		collector.SourceServer,
	} {
		if err := c.Ingest(src, strings.NewReader(d.Feeds[src])); err != nil {
			t.Fatalf("ingest %s: %v", src, err)
		}
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if c.Malformed.Count != 0 {
		t.Fatalf("malformed lines: %d, samples %v", c.Malformed.Count, c.Malformed.Samples)
	}

	// Symptom volumes roughly match the injected incident counts. The PIM
	// study's customer-facing flaps (≈69% of 60 incidents) also flap the
	// eBGP session, on top of the 120 BGP-study incidents.
	flaps := st.Count(event.EBGPFlap)
	if flaps < 120 || flaps > 200 {
		t.Errorf("eBGP flaps = %d, want ≈120+41", flaps)
	}
	pim := st.Count(event.PIMAdjacencyChange)
	if pim < 40 {
		t.Errorf("PIM adjacency changes = %d, want ≥ 40", pim)
	}
	rtt := st.Count(event.CDNRTTIncrease)
	if rtt < 45 || rtt > 90 {
		t.Errorf("CDN RTT increases = %d, want ≈60", rtt)
	}
	// Diagnostic signatures from the cascades are present.
	for _, name := range []string{
		event.InterfaceFlap, event.LineProtoFlap, event.EBGPHoldTimerExpired,
		event.CPUHighSpike, event.OSPFReconvergence, event.LinkCostOutDown,
		event.RouterCostInOut, event.PIMConfigChange, event.CDNPolicyChange,
		event.LinkCongestion, event.CustomerResetSession,
	} {
		if st.Count(name) == 0 {
			t.Errorf("no %q events materialized", name)
		}
	}
}

func TestLineCardCrashScenario(t *testing.T) {
	cfg := Config{Seed: 3, PoPs: 2, PERsPerPoP: 1, SessionsPerPER: 10,
		Duration: 2 * 24 * time.Hour, LineCardCrash: true}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var crash []Truth
	for _, tr := range d.Truth {
		if tr.Kind == "line-card crash" {
			crash = append(crash, tr)
		}
	}
	if len(crash) < 4 {
		t.Fatalf("line-card crash flaps = %d, want several", len(crash))
	}
	// All within three minutes, all on one router.
	lo, hi := crash[0].At, crash[0].At
	for _, tr := range crash {
		if tr.At.Before(lo) {
			lo = tr.At
		}
		if tr.At.After(hi) {
			hi = tr.At
		}
		if !strings.HasPrefix(tr.Where, strings.SplitN(crash[0].Where, ":", 2)[0]) {
			t.Errorf("crash truth on unexpected router: %s", tr.Where)
		}
	}
	if hi.Sub(lo) > 3*time.Minute {
		t.Errorf("crash spread = %v, want ≤ 3m", hi.Sub(lo))
	}
}

func TestProvisioningBugScenario(t *testing.T) {
	cfg := Config{Seed: 5, PoPs: 2, PERsPerPoP: 1, SessionsPerPER: 10,
		Duration: 7 * 24 * time.Hour, ProvisioningBugIncidents: 20}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, tr := range d.Truth {
		if tr.Kind == "provisioning bug" {
			n++
		}
	}
	if n < 15 {
		t.Errorf("provisioning bug incidents = %d, want ≈20", n)
	}
	if !strings.Contains(d.Feeds[collector.SourceWorkflow], "provision-customer") {
		t.Error("workflow feed missing provisioning records")
	}
}

func TestSchedulingExhaustion(t *testing.T) {
	// An impossible density must fail loudly, not hang or silently drop.
	cfg := Config{Seed: 1, PoPs: 2, PERsPerPoP: 1, SessionsPerPER: 2,
		Duration: 12 * time.Hour, BGPFlapIncidents: 5000}
	if _, err := Generate(cfg); err == nil {
		t.Error("over-dense scenario accepted")
	}
	// A too-short window fails in schedule.
	cfg = Config{Seed: 1, PoPs: 2, PERsPerPoP: 1, SessionsPerPER: 2,
		Duration: time.Hour, BGPFlapIncidents: 10}
	if _, err := Generate(cfg); err == nil {
		t.Error("too-short duration accepted")
	}
}

func TestAllocate(t *testing.T) {
	counts := allocate(100, []float64{0.5, 0.3, 0.2})
	if counts[0] != 50 || counts[1] != 30 || counts[2] != 20 {
		t.Errorf("allocate = %v", counts)
	}
	counts = allocate(7, []float64{0.5, 0.5})
	if counts[0]+counts[1] != 7 {
		t.Errorf("allocate sum = %v", counts)
	}
	counts = allocate(0, []float64{1})
	if counts[0] != 0 {
		t.Errorf("allocate(0) = %v", counts)
	}
}
