// Quickstart: the smallest end-to-end G-RCA run.
//
// It loads a one-rule RCA application written in the rule-specification
// language (quickstart.grca), stores a handful of event instances (the
// paper's worked temporal example: an eBGP flap 180 s after an interface
// flap), and asks the engine for the root cause.
//
//	go run ./examples/quickstart
package main

import (
	_ "embed"
	"fmt"
	"log"
	"time"

	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/rulespec"
	"grca/internal/store"
	"grca/internal/testnet"
)

// spec is the application, kept beside this file as quickstart.grca.
//
//go:embed quickstart.grca
var spec string

func main() {
	// A small three-PoP test network provides topology and routing.
	net := testnet.Build(log.Fatalf)

	// Parse and build the application against the Knowledge Library.
	parsed, err := rulespec.Parse(spec)
	if err != nil {
		log.Fatal(err)
	}
	_, graph, err := parsed.Build(event.Knowledge(), dgraph.Knowledge())
	if err != nil {
		log.Fatal(err)
	}

	// Store three event instances: the symptom, its direct cause, and the
	// layer-1 event below that.
	st := store.New()
	t0 := testnet.T0
	ifc, _ := net.Topo.InterfaceByName("chi-per1", "to-custB")

	flapStart := t0.Add(1000 * time.Second)
	symptom := st.Add(event.Instance{
		Name:  "eBGP flap",
		Start: flapStart, End: flapStart.Add(60 * time.Second),
		Loc: locus.Between(locus.RouterNeighbor, "chi-per1", ifc.PeerIP.String()),
	})
	st.Add(event.Instance{
		Name:  event.InterfaceFlap,
		Start: t0.Add(900 * time.Second), End: t0.Add(901 * time.Second),
		Loc: locus.Between(locus.Interface, "chi-per1", "to-custB"),
	})
	st.Add(event.Instance{
		Name:  event.SONETRestoration,
		Start: t0.Add(899 * time.Second), End: t0.Add(899 * time.Second),
		Loc: locus.At(locus.Layer1Device, "sonet-chi-per1-a"),
	})

	// Diagnose.
	eng := engine.New(st, net.View, graph)
	d := eng.Diagnose(symptom)

	fmt.Println("symptom:   ", d.Symptom)
	fmt.Println("root cause:", d.Label())
	for _, c := range d.Causes {
		fmt.Printf("  chain: %s -> %v (priority %d, %d evidence instance(s))\n",
			d.Symptom.Name, c.Chain, c.Priority, len(c.Instances))
	}
	fmt.Printf("diagnosed in %v\n", d.Elapsed.Round(time.Microsecond))
}
