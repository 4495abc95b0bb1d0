// Package apps is the registry of packaged RCA applications. The paper's
// point is that an application is configuration on top of the platform
// (§III), so the service, the CLI and the chaos harness all read this one
// table: adding an application touches this file and its own package.
package apps

import (
	"grca/internal/apps/backbone"
	"grca/internal/apps/bgpflap"
	"grca/internal/apps/cdn"
	"grca/internal/apps/pim"
	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/netstate"
	"grca/internal/store"
)

// App binds one packaged application to the platform.
type App struct {
	Name string
	// Study is the application's ground-truth key in simnet.Truth.
	Study string
	// Title heads the application's root-cause breakdown table.
	Title     string
	Build     func() (*event.Library, *dgraph.Graph, error)
	NewEngine func(store.Store, *netstate.View) (*engine.Engine, error)
	// DisplayLabel maps raw engine labels to the paper-table row names —
	// the Result Browser's breakdown vocabulary.
	DisplayLabel func(string) string
}

var all = []App{
	{"bgpflap", "bgp", "Root Cause Breakdown of BGP Flaps (cf. Table IV)",
		bgpflap.Build, bgpflap.NewEngine, bgpflap.DisplayLabel},
	{"cdn", "cdn", "Root Cause Breakdown of End-to-End RTT Degradations (cf. Table VI)",
		cdn.Build, cdn.NewEngine, cdn.DisplayLabel},
	{"pim", "pim", "Root Cause Breakdown of PIM Adjacency Losses (cf. Table VIII)",
		pim.Build, pim.NewEngine, pim.DisplayLabel},
	{"backbone", "backbone", "Root Cause Breakdown of In-Network Packet Loss (§I scenario)",
		backbone.Build, backbone.NewEngine, backbone.DisplayLabel},
}

// All lists the packaged applications in canonical order — the order
// streaming diagnoses of one event are reported in. The slice is shared;
// callers must not modify it.
func All() []App { return all }

// Get returns the named application.
func Get(name string) (App, bool) {
	for _, a := range all {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}
