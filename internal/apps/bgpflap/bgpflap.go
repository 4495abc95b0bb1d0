// Package bgpflap holds what of the BGP-flap root cause analysis
// application of paper §III-A is not rules: the Bayesian configuration of
// Fig. 8 (§IV-C) with its virtual root-cause classes, and the line-card
// grouping it classifies. The events of Table III and the diagnosis graph
// of Fig. 4 are examples/specs/bgpflap.grca.
package bgpflap

import (
	"net/netip"
	"sort"
	"time"

	"grca/internal/apps"
	"grca/internal/bayes"
	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/netmodel"
	"grca/internal/netstate"
	"grca/internal/store"
)

// The registry's bgpflap application, examples/specs/bgpflap.grca. Build
// and NewEngine delegate to it; they remain for callers that name this
// package, the bench harness (bench/reference.go) among them.
var app = apps.MustGet("bgpflap")

func Build() (*event.Library, *dgraph.Graph, error) { return app.Build() }

func NewEngine(st store.Store, view *netstate.View) (*engine.Engine, error) {
	return app.NewEngine(st, view)
}

// ---------------------------------------------------------------------
// Bayesian configuration (Fig. 8) and the line-card study of §IV-C.
// ---------------------------------------------------------------------

// Feature names used by the Bayesian classifier.
const (
	FeatInterfaceFlap = "interface-flap"
	FeatLineProto     = "line-proto-flap"
	FeatCPUHigh       = "cpu-high"
	FeatHTE           = "ebgp-hte"
	FeatReset         = "customer-reset"
	FeatReboot        = "router-reboot"
	FeatSameCardMulti = "same-card-multi-flap"
)

// Virtual root-cause class names (Fig. 8).
const (
	ClassCPU      = "CPU High Issue"
	ClassIface    = "Interface Issue"
	ClassLineCard = "Line-card Issue"
	ClassCustomer = "Customer Action"
)

// BayesConfig returns the Fig. 8 classifier: virtual root causes with
// fuzzy likelihood ratios.
func BayesConfig() (*bayes.Config, error) {
	c := bayes.NewConfig()
	classes := []bayes.Class{
		{
			Name:  ClassCPU,
			Prior: bayes.Low,
			Present: map[string]bayes.Ratio{
				FeatCPUHigh: bayes.High,
				FeatHTE:     bayes.Medium,
			},
			Absent: map[string]bayes.Ratio{FeatCPUHigh: 1.0 / 50},
		},
		{
			Name:  ClassIface,
			Prior: bayes.Medium,
			Present: map[string]bayes.Ratio{
				FeatInterfaceFlap: bayes.High,
				FeatLineProto:     bayes.Medium,
				FeatSameCardMulti: 1.0 / 100,
			},
		},
		{
			Name:  ClassLineCard,
			Prior: bayes.Low,
			Present: map[string]bayes.Ratio{
				FeatInterfaceFlap: bayes.Medium,
				FeatSameCardMulti: bayes.High,
			},
		},
		{
			Name:  ClassCustomer,
			Prior: bayes.Low,
			Present: map[string]bayes.Ratio{
				FeatReset: bayes.High,
			},
		},
	}
	for _, cl := range classes {
		if err := c.AddClass(cl); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Features extracts the Bayesian evidence vector from a rule-based
// diagnosis tree: which signatures joined the symptom.
func Features(d engine.Diagnosis) bayes.Evidence {
	ev := bayes.Evidence{}
	d.Root.Walk(func(n *engine.Node) {
		switch n.Event {
		case event.InterfaceFlap:
			ev[FeatInterfaceFlap] = true
		case event.LineProtoFlap:
			ev[FeatLineProto] = true
		case event.CPUHighSpike, event.CPUHighAverage:
			ev[FeatCPUHigh] = true
		case event.EBGPHoldTimerExpired:
			ev[FeatHTE] = true
		case event.CustomerResetSession:
			ev[FeatReset] = true
		case event.RouterReboot:
			ev[FeatReboot] = true
		}
	})
	return ev
}

// Group is a set of flaps that may share a common root cause: same line
// card, within the grouping window.
type Group struct {
	Card      string // "router:slot"
	Start     time.Time
	Diagnoses []engine.Diagnosis
}

// GroupByCard clusters diagnosed flaps by the line card carrying the
// session's attachment interface, splitting clusters that spread beyond
// window (the paper's line-card crash bunched 133 flaps within 3 min).
func GroupByCard(topo *netmodel.Topology, ds []engine.Diagnosis, window time.Duration) []Group {
	byCard := map[string][]engine.Diagnosis{}
	for _, d := range ds {
		loc := d.Symptom.Loc
		addr, err := netip.ParseAddr(loc.B)
		if err != nil {
			continue // neighbor is not an address: no attachment card
		}
		ifc, ok := topo.InterfaceForNeighborIP(loc.A, addr)
		if !ok {
			continue
		}
		byCard[ifc.Card.ID()] = append(byCard[ifc.Card.ID()], d)
	}
	cards := make([]string, 0, len(byCard))
	for card := range byCard {
		cards = append(cards, card)
	}
	sort.Strings(cards)

	var groups []Group
	for _, card := range cards {
		ds := byCard[card]
		sort.Slice(ds, func(i, j int) bool { return ds[i].Symptom.Start.Before(ds[j].Symptom.Start) })
		var cur *Group
		for _, d := range ds {
			if cur == nil || d.Symptom.Start.Sub(cur.Start) > window {
				groups = append(groups, Group{Card: card, Start: d.Symptom.Start})
				cur = &groups[len(groups)-1]
			}
			cur.Diagnoses = append(cur.Diagnoses, d)
		}
	}
	return groups
}

// ClassifyGroup runs joint Bayesian inference over a group: each flap
// contributes its evidence vector, and the group-level same-card feature
// is set when the group holds minMulti or more flaps on distinct
// sessions.
func ClassifyGroup(cfg *bayes.Config, g Group, minMulti int) (bayes.Result, error) {
	multi := len(g.Diagnoses) >= minMulti
	evs := make([]bayes.Evidence, len(g.Diagnoses))
	for i, d := range g.Diagnoses {
		ev := Features(d)
		if multi {
			ev[FeatSameCardMulti] = true
		}
		evs[i] = ev
	}
	return cfg.ClassifyJoint(evs)
}
