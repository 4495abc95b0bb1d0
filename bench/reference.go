package main

import (
	"fmt"
	"strings"
	"time"

	"grca/internal/apps/backbone"
	"grca/internal/apps/bgpflap"
	"grca/internal/apps/cdn"
	"grca/internal/apps/pim"
	"grca/internal/collector"
	"grca/internal/conf"
	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/netmodel"
	"grca/internal/netstate"
	"grca/internal/platform"
	"grca/internal/realtime"
	"grca/internal/store"
)

// appSpec is one packaged RCA application as the server runs it.
type appSpec struct {
	name      string
	study     string        // simnet ground-truth study ("" = none in the corpora)
	tolerance time.Duration // truth-matching tolerance of the paper tables
	graph     *dgraph.Graph
	root      string
	newEngine func(store.Store, *netstate.View) (*engine.Engine, error)
}

// apps mirrors the server's application list, in its order: streaming
// diagnoses come back app by app in this order for every event.
var apps = func() []appSpec {
	specs := []appSpec{
		{name: "bgpflap", study: "bgp", tolerance: 2 * time.Minute, newEngine: bgpflap.NewEngine},
		{name: "cdn", study: "cdn", tolerance: 10 * time.Minute, newEngine: cdn.NewEngine},
		{name: "pim", study: "pim", tolerance: 2 * time.Minute, newEngine: pim.NewEngine},
		{name: "backbone", newEngine: backbone.NewEngine},
	}
	builds := []func() (*event.Library, *dgraph.Graph, error){bgpflap.Build, cdn.Build, pim.Build, backbone.Build}
	for i := range specs {
		_, g, err := builds[i]()
		if err != nil {
			panic(fmt.Sprintf("bench: %s graph: %v", specs[i].name, err)) // the packaged graphs are constants
		}
		specs[i].graph, specs[i].root = g, g.Root
	}
	return specs
}()

// maxEventDuration matches the server's streaming grace derivation.
const maxEventDuration = 15 * time.Minute

// reference is the in-process twin of a finalized server: the same
// chunks through the same collector, the same view and engines. It is
// what the server's answers are checked against, and where the replayed
// events come from.
type reference struct {
	topo    *netmodel.Topology
	coll    *collector.Collector
	st      *store.Memory
	view    *netstate.View
	engines map[string]*engine.Engine
}

// buildReference runs the corpus through the pipeline exactly as the
// server does on load + finalize.
func buildReference(c *corpus) (*reference, error) {
	topo, err := conf.Parse(c.bundle.Configs, c.bundle.Inventory)
	if err != nil {
		return nil, err
	}
	st := store.New()
	coll := collector.New(topo, st, c.bundle.Start.Year())
	coll.WindowStart, coll.WindowEnd = c.bundle.Start, c.bundle.Start.Add(c.bundle.Duration)
	for _, ch := range c.chunks {
		if err := coll.Ingest(ch.source, strings.NewReader(ch.lines)); err != nil {
			return nil, fmt.Errorf("reference: ingest %s: %v", ch.source, err)
		}
	}
	if err := coll.Finalize(); err != nil {
		return nil, err
	}
	cdn.MaterializeEgressChanges(coll, c.bundle.CDN, coll.WindowStart, coll.WindowEnd)
	view := netstate.NewView(topo, coll.OSPF, coll.BGP)
	cdn.Register(view, c.bundle.CDN)
	ref := &reference{topo: topo, coll: coll, st: st, view: view, engines: map[string]*engine.Engine{}}
	for _, a := range apps {
		eng, err := a.newEngine(st, view)
		if err != nil {
			return nil, err
		}
		ref.engines[a.name] = eng
	}
	return ref, nil
}

// normalized returns every stored event in availability order.
func (ref *reference) normalized() []event.Instance {
	var out []event.Instance
	for _, name := range ref.st.Names() {
		for _, in := range ref.st.All(name) {
			out = append(out, *in)
		}
	}
	byAvailability(out)
	return out
}

// appLabels is a multiset of diagnosis labels per application.
type appLabels map[string]map[string]int

func (l appLabels) add(app, label string) {
	if l[app] == nil {
		l[app] = map[string]int{}
	}
	l[app][label]++
}

func (l appLabels) total() int {
	n := 0
	for _, m := range l {
		for _, c := range m {
			n += c
		}
	}
	return n
}

func (l appLabels) String() string {
	var sb strings.Builder
	for _, a := range apps {
		if len(l[a.name]) > 0 {
			fmt.Fprintf(&sb, "%s{%s} ", a.name, labelCounts(l[a.name]))
		}
	}
	return sb.String()
}

// accuracy scores the application's batch diagnoses against the
// corpus's ground truth, in percent.
func (ref *reference) accuracy(a appSpec, truth platform.Bundle) (float64, []engine.Diagnosis) {
	ds := ref.engines[a.name].DiagnoseAll()
	return 100 * platform.ScoreDiagnoses(truth.Truth, a.study, ds, a.tolerance).Accuracy(), ds
}

// streamLabels replays batches of events through fresh realtime
// processors over the reference store — what the server's finisher does
// with each committed batch — and returns the labels of every streaming
// diagnosis, plus how many root symptoms the stream carried.
func (ref *reference) streamLabels(batches [][]event.Instance) (labels appLabels, symptoms int) {
	procs := make([]*realtime.Processor, len(apps))
	for i, a := range apps {
		procs[i] = realtime.NewOnStore(ref.st, ref.view, a.graph, realtime.GraceFor(a.graph, maxEventDuration))
	}
	labels = appLabels{}
	for _, batch := range batches {
		for _, in := range batch {
			stored := ref.st.Add(in)
			for i, a := range apps {
				if in.Name == a.root {
					symptoms++
				}
				ds, _ := procs[i].ObserveStored(stored)
				for _, d := range ds {
					labels.add(a.name, d.Label())
				}
			}
		}
	}
	return labels, symptoms
}
