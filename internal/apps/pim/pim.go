// Package pim is the PIM adjacency-change RCA application for Multicast
// VPN service of paper §III-C: the application-specific events of Table
// VII and the diagnosis graph of Fig. 6 in the rule-specification
// language.
//
// The symptom is a PE losing its PIM neighbor adjacency with another PE of
// the same MVPN. Root causes span router configuration changes (customers
// provisioned or removed), problems on the provider–customer link, routing
// changes within the backbone, and problems on the PER uplinks — exactly
// the classes of Table VIII. The paper built this application in under ten
// hours by reusing Knowledge Library events and rules; here the whole
// application is examples/specs/pim.grca, and this package only names it.
package pim

import (
	"grca/internal/apps"
	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/netstate"
	"grca/internal/store"
)

// The registry's pim application, examples/specs/pim.grca. Build and
// NewEngine delegate to it; they remain for callers that name this
// package, the bench harness (bench/reference.go) among them.
var app = apps.MustGet("pim")

func Build() (*event.Library, *dgraph.Graph, error) { return app.Build() }

func NewEngine(st store.Store, view *netstate.View) (*engine.Engine, error) {
	return app.NewEngine(st, view)
}
