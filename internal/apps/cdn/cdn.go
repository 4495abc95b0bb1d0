// Package cdn holds what of the CDN service-impairment RCA application of
// paper §III-B is not rules: the deployment the spatial model needs and
// the egress-change events it consumes. The events of Table V and the
// diagnosis graph of Fig. 5 are examples/specs/cdn.grca (rooted at the RTT
// degradation) and cdnthroughput.grca (at the throughput drop).
//
// The symptom is an end-to-end RTT degradation between a CDN server and a
// client measurement agent. Diagnosis leans entirely on the spatial model:
// the server side resolves through configuration to its attachment
// (ingress) router, the client side through historical BGP to the egress,
// and the backbone path between them through the OSPF simulation — the
// route computations that dominate this application's diagnosis latency
// (§III-B.2).
package cdn

import (
	"net/netip"
	"time"

	"grca/internal/apps"
	"grca/internal/collector"
	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/netstate"
	"grca/internal/store"
)

// The registry's cdn application, examples/specs/cdn.grca. Build and
// NewEngine delegate to it; they remain for callers that name this
// package, the bench harness (bench/reference.go) among them.
var app = apps.MustGet("cdn")

func Build() (*event.Library, *dgraph.Graph, error) { return app.Build() }

func NewEngine(st store.Store, view *netstate.View) (*engine.Engine, error) {
	return app.NewEngine(st, view)
}

// Deployment describes the CDN layout and client population the
// application diagnoses: the paper derives this from configuration and
// measurement metadata.
type Deployment struct {
	Node   string // CDN node (site) name
	Server string // server within the node
	Router string // the node's attachment router
	// Agents maps measurement agent names to representative addresses.
	Agents map[string]netip.Addr
	// Prefixes lists the client prefixes whose egress history matters.
	Prefixes []netip.Prefix
}

// Register wires the deployment into the network view so the spatial
// model can expand server:client locations.
func Register(view *netstate.View, dep Deployment) {
	view.RegisterServer(dep.Server, dep.Node, dep.Router)
	for name, addr := range dep.Agents {
		view.RegisterClient(name, addr, "")
	}
}

// MaterializeEgressChanges asks the collector to emit the "BGP egress
// change" events the diagnosis graph consumes, for this deployment's
// ingress and client prefixes over the observation window.
func MaterializeEgressChanges(c *collector.Collector, dep Deployment, from, to time.Time) {
	c.EmitEgressChanges([]string{dep.Router}, dep.Prefixes, from, to)
}
