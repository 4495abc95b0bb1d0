package dgraph

import (
	"fmt"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/temporal"
)

// Standard temporal margins used by the catalogue defaults.
const (
	// SyslogFuzz models timestamp inaccuracy of syslog messages (the
	// paper's ±5 s).
	SyslogFuzz = 5 * time.Second
	// SNMPBin is the 5-minute aggregation interval of SNMP measurements; a
	// condition reported in a bin may have occurred anywhere within it.
	SNMPBin = 5 * time.Minute
	// RestorationLag bounds how long after a layer-1 restoration event the
	// layer-3 consequences (interface flaps) are still attributable to it.
	RestorationLag = 30 * time.Second
	// CommandLag bounds the delay between an operator command and the
	// routing events it triggers.
	CommandLag = 60 * time.Second
)

// Syslog5 is the default expansion for instantaneous syslog-derived
// events: pad the raw interval by the syslog timestamp fuzz.
var Syslog5 = temporal.Expansion{Option: temporal.StartEnd, Left: SyslogFuzz, Right: SyslogFuzz}

// SNMP5m is the default expansion for 5-minute-binned SNMP events.
var SNMP5m = temporal.Expansion{Option: temporal.StartEnd, Left: SNMPBin, Right: SNMPBin}

// Catalogue is the Knowledge Library's set of common diagnosis rules.
type Catalogue struct {
	rules []Rule
	byKey map[string]int
}

// Find returns the catalogue rule for the (symptom, diagnostic) pair.
func (c *Catalogue) Find(symptom, diagnostic string) (Rule, bool) {
	i, ok := c.byKey[symptom+" <- "+diagnostic]
	if !ok {
		return Rule{}, false
	}
	return c.rules[i], true
}

// All returns every catalogue rule. The slice is freshly allocated.
func (c *Catalogue) All() []Rule { return append([]Rule(nil), c.rules...) }

// Len returns the number of catalogue rules.
func (c *Catalogue) Len() int { return len(c.rules) }

// MustFind is Find for statically known pairs; it panics when the pair is
// absent, which indicates a programming error in an application package.
//
//lint:ignore deadcode TestGraphAddAndQuery builds its graphs from catalogue rows
func (c *Catalogue) MustFind(symptom, diagnostic string) Rule {
	r, ok := c.Find(symptom, diagnostic)
	if !ok {
		panic(fmt.Sprintf("dgraph: catalogue has no rule %q <- %q", symptom, diagnostic))
	}
	return r
}

// Knowledge builds the common diagnosis-rule catalogue of Table II. Rows
// written "down/up/flap" in the paper are expanded into their variants:
// state-matched for layer-2/layer-3 escalation (line protocol down is
// explained by interface down, not by interface up), full cross product
// where the paper's row genuinely covers all variants (any restoration
// event can explain any interface transition).
//
// Catalogue rules carry Priority 0: priorities encode application-specific
// preference and are assigned when a rule is added to a graph.
func Knowledge() *Catalogue {
	c := &Catalogue{byKey: map[string]int{}}
	add := func(sym, diag string, tr temporal.Rule, level locus.Type, note string) {
		r := Rule{Symptom: sym, Diagnostic: diag, Temporal: tr, JoinLevel: level, Note: note}
		if err := r.Validate(nil); err != nil {
			panic(err)
		}
		if _, dup := c.byKey[r.Key()]; dup {
			panic("dgraph: duplicate catalogue rule " + r.Key())
		}
		c.byKey[r.Key()] = len(c.rules)
		c.rules = append(c.rules, r)
	}

	both5 := temporal.Rule{Symptom: Syslog5, Diagnostic: Syslog5}
	ifaceStates := []struct{ line, iface string }{
		{event.LineProtoDown, event.InterfaceDown},
		{event.LineProtoUp, event.InterfaceUp},
		{event.LineProtoFlap, event.InterfaceFlap},
	}

	// Line protocol down/up/flap <- Interface down/up/flap (state-matched,
	// same interface).
	for _, s := range ifaceStates {
		add(s.line, s.iface, both5, locus.Interface,
			"layer-2 line protocol follows its interface")
	}

	// Interface and line-protocol transitions <- layer-1 restorations.
	restoration := temporal.Rule{
		Symptom:    temporal.Expansion{Option: temporal.StartEnd, Left: SyslogFuzz, Right: SyslogFuzz},
		Diagnostic: temporal.Expansion{Option: temporal.StartEnd, Left: SyslogFuzz, Right: RestorationLag},
	}
	for _, l1 := range []string{event.SONETRestoration, event.OpticalRegular, event.OpticalFast} {
		for _, s := range ifaceStates {
			add(s.iface, l1, restoration, locus.Layer1Device,
				"layer-1 restoration rides under the interface's circuits")
			add(s.line, l1, restoration, locus.Layer1Device,
				"layer-1 restoration rides under the line protocol's circuits")
		}
	}

	// BGP egress change <- interface / line-protocol transitions along the
	// old path toward the destination.
	egress := temporal.Rule{
		Symptom:    temporal.Expansion{Option: temporal.StartStart, Left: CommandLag, Right: SyslogFuzz},
		Diagnostic: Syslog5,
	}
	for _, s := range ifaceStates {
		add(event.BGPEgressChange, s.iface, egress, locus.Interface,
			"egress shifts when a path interface transitions")
		add(event.BGPEgressChange, s.line, egress, locus.Interface,
			"egress shifts when a path line protocol transitions")
	}

	// Edge-to-edge performance symptoms <- routing and congestion causes.
	perf := []string{event.DelayIncrease, event.LossIncrease, event.ThroughputDrop}
	perfVsRouting := temporal.Rule{
		Symptom:    temporal.Expansion{Option: temporal.StartStart, Left: CommandLag, Right: SNMPBin},
		Diagnostic: Syslog5,
	}
	perfVsSNMP := temporal.Rule{Symptom: SNMP5m, Diagnostic: SNMP5m}
	for _, p := range perf {
		add(p, event.BGPEgressChange, perfVsRouting, locus.Router,
			"interdomain route change moves traffic onto a different path")
		add(p, event.LinkCongestion, perfVsSNMP, locus.Interface,
			"congested link on the backbone path")
		add(p, event.OSPFReconvergence, perfVsRouting, locus.Interface,
			"intradomain reconvergence transient on the path")
	}

	// Link loss alarm <- congestion on the same interface, or a flapping
	// line protocol corrupting packets.
	add(event.LinkLoss, event.LinkCongestion, perfVsSNMP, locus.Interface,
		"overflow losses accompany utilization peaks")
	lossVsSyslog := temporal.Rule{Symptom: SNMP5m, Diagnostic: Syslog5}
	for _, s := range ifaceStates {
		add(event.LinkLoss, s.line, lossVsSyslog, locus.Interface,
			"line-protocol instability corrupts packets")
	}

	// OSPF re-convergence <- the layer events and operator commands that
	// trigger it. The LSA and the trigger share the logical link.
	reconv := temporal.Rule{
		Symptom:    temporal.Expansion{Option: temporal.StartStart, Left: CommandLag, Right: SyslogFuzz},
		Diagnostic: Syslog5,
	}
	for _, s := range ifaceStates {
		add(event.OSPFReconvergence, s.line, reconv, locus.LogicalLink,
			"line-protocol transition floods new LSAs")
		add(event.OSPFReconvergence, s.iface, reconv, locus.LogicalLink,
			"interface transition floods new LSAs")
	}
	add(event.OSPFReconvergence, event.CommandCostIn, reconv, locus.LogicalLink,
		"operator cost-in command")
	add(event.OSPFReconvergence, event.CommandCostOut, reconv, locus.LogicalLink,
		"operator cost-out command")

	// Link cost out/down and in/up <- their triggers.
	add(event.LinkCostOutDown, event.LineProtoDown, reconv, locus.LogicalLink, "")
	add(event.LinkCostOutDown, event.InterfaceDown, reconv, locus.LogicalLink, "")
	add(event.LinkCostOutDown, event.CommandCostOut, reconv, locus.LogicalLink, "")
	add(event.LinkCostInUp, event.LineProtoUp, reconv, locus.LogicalLink, "")
	add(event.LinkCostInUp, event.InterfaceUp, reconv, locus.LogicalLink, "")
	add(event.LinkCostInUp, event.CommandCostIn, reconv, locus.LogicalLink, "")

	// Link congestion alarm <- OSPF re-convergence (rerouted traffic
	// piling onto the link). Routing scope: same router is the catalogue
	// default; applications refine.
	add(event.LinkCongestion, event.OSPFReconvergence,
		temporal.Rule{Symptom: SNMP5m, Diagnostic: Syslog5}, locus.Router,
		"reconvergence shifts traffic onto the congested link")

	return c
}
