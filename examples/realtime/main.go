// Real-time root cause analysis (paper §VI future work): instead of
// diagnosing a month of flaps in a batch, stream the normalized event feed
// through a realtime.Processor and receive each diagnosis as soon as the
// symptom's evidence horizon passes. The example replays a simulated
// corpus as a live stream and reports diagnosis latency relative to event
// time.
//
//	go run ./examples/realtime
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"grca/internal/apps"
	"grca/internal/browser"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/platform"
	"grca/internal/realtime"
	"grca/internal/simnet"
)

func main() {
	dataset, err := simnet.Generate(simnet.Config{
		Seed: 12, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 10,
		Duration: 7 * 24 * time.Hour, BGPFlapIncidents: 300,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := platform.FromDataset(dataset, platform.Options{})
	if err != nil {
		log.Fatal(err)
	}
	app := apps.MustGet("bgpflap")
	_, graph, err := app.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Order the normalized events by availability (end time) — the live
	// stream a real deployment's Data Collector would deliver.
	var stream []event.Instance
	for _, name := range sys.Store.Names() {
		for _, in := range sys.Store.All(name) {
			stream = append(stream, *in)
		}
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].End.Before(stream[j].End) })

	grace := realtime.GraceFor(graph, realtime.MaxEventDuration)
	fmt.Printf("streaming %d events; derived grace period %v\n", len(stream), grace)

	p := realtime.New(sys.View, graph, grace)
	var diagnoses []engine.Diagnosis
	var worstLag time.Duration
	began := time.Now()
	for _, in := range stream {
		out, late := p.Observe(in)
		if late {
			log.Fatalf("availability-ordered replay produced a late arrival: %v", in)
		}
		for _, d := range out {
			// Lag in *event time*: how far the stream clock had to advance
			// past the symptom before it could be safely diagnosed.
			lag := in.End.Sub(d.Symptom.End)
			if lag > worstLag {
				worstLag = lag
			}
		}
		diagnoses = append(diagnoses, out...)
	}
	diagnoses = append(diagnoses, p.Flush()...)
	wall := time.Since(began)

	rows := browser.Breakdown(diagnoses, app.DisplayLabel)
	fmt.Printf("\n%d flaps diagnosed live in %v wall time; worst event-time lag %v\n",
		len(diagnoses), wall.Round(time.Millisecond), worstLag.Round(time.Second))
	fmt.Println("top causes:")
	for i, r := range rows {
		if i >= 4 {
			break
		}
		fmt.Printf("  %-40s %6.2f%%\n", r.Label, r.Percent)
	}
}
