// Package backbone packages the in-network packet-loss RCA application of
// the paper's §I motivating scenario: sporadic losses reported by probe
// traffic between PoPs are diagnosed in the aggregate, and the dominant
// root cause drives the remediation — "should link congestion be
// determined to be the primary root cause, capacity augmentation is
// needed along the corresponding network path; alternatively, if packet
// losses are found to be largely due to intradomain routing
// reconvergence, deploying technologies such as MPLS fast reroute becomes
// a priority."
//
// The application is assembled almost entirely from the Knowledge
// Library: the symptom and the congestion/reconvergence rules come from
// Tables I and II; only two diagnosis rules are application-specific. The
// spec is examples/specs/backbone.grca; this package adds the remediation
// decision.
package backbone

import (
	"grca/internal/apps"
	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/netstate"
	"grca/internal/store"
)

// The registry's backbone application, examples/specs/backbone.grca.
// Build and NewEngine delegate to it; they remain for callers that name
// this package, the bench harness (bench/reference.go) among them.
var app = apps.MustGet("backbone")

func Build() (*event.Library, *dgraph.Graph, error) { return app.Build() }

func NewEngine(st store.Store, view *netstate.View) (*engine.Engine, error) {
	return app.NewEngine(st, view)
}

// Recommend renders the §I remediation decision for a diagnosed breakdown
// keyed by primary labels (not display labels).
func Recommend(breakdown map[string]float64) string {
	congestion := breakdown[event.LinkCongestion]
	reconvergence := breakdown[event.OSPFReconvergence]
	switch {
	case congestion > reconvergence && congestion > 0:
		return "dominant cause is link congestion: plan capacity augmentation along the affected paths"
	case reconvergence > 0:
		return "dominant cause is routing re-convergence: prioritize MPLS fast reroute deployment"
	}
	return "no dominant in-network cause identified"
}
