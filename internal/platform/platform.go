// Package platform assembles the full G-RCA pipeline: it parses the
// configuration archive into the topology, streams every raw feed through
// the Data Collector, reconstructs routing state, registers service
// deployments with the spatial model, and hands out per-application RCA
// engines. It is the glue used by the command-line tools, the examples,
// and the benchmark harness.
package platform

import (
	"net/netip"
	"time"

	"grca/internal/apps/cdn"
	"grca/internal/collector"
	"grca/internal/engine"
	"grca/internal/netmodel"
	"grca/internal/netstate"
	"grca/internal/simnet"
	"grca/internal/store"
)

// System is an assembled G-RCA instance.
type System struct {
	Topo      *netmodel.Topology
	Store     store.Store
	Collector *collector.Collector
	View      *netstate.View
}

// Options tunes assembly.
type Options struct {
	// GenericSignatures enables the per-signature event series needed by
	// the correlation-mining studies (§IV-B).
	GenericSignatures bool
}

// FromDataset builds a System from a simulated dataset: the topology is
// re-derived from the rendered configuration archive (not taken from the
// simulator's internal object graph), so the full config-parsing path is
// exercised exactly as it would be against a real archive.
func FromDataset(d *simnet.Dataset, opts Options) (*System, error) {
	return BundleFromDataset(d).Assemble(opts)
}

// Deployment derives the CDN deployment descriptor from a dataset.
func Deployment(d *simnet.Dataset) cdn.Deployment {
	dep := cdn.Deployment{
		Node:   d.CDNNode,
		Server: d.CDNServer,
		Router: d.CDNRouter,
		Agents: map[string]netip.Addr{},
	}
	for _, a := range d.Agents {
		dep.Agents[a] = d.AgentAddr[a]
		dep.Prefixes = append(dep.Prefixes, d.AgentPrefix[a])
	}
	return dep
}

// ---------------------------------------------------------------------
// Ground-truth scoring
// ---------------------------------------------------------------------

// Score compares diagnoses against the dataset's ground truth for one
// study.
type Score struct {
	Total     int // symptoms with a matching truth record
	Correct   int // Primary matched the expected label
	Unmatched int // symptoms with no truth record (cross-study spillover)
}

// Accuracy returns the fraction of matched symptoms diagnosed correctly.
func (s Score) Accuracy() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Total)
}

// ExpectedLabel maps a ground-truth kind to the Primary label rule-based
// reasoning should produce.
func ExpectedLabel(kind string) string {
	switch kind {
	case "external", "Unknown":
		return engine.Unknown
	case "provisioning bug":
		// The hidden vendor bug presents as a CPU-related flap (§IV-B).
		return "CPU high (spike)"
	case "line-card crash":
		// Rule-based reasoning sees only the interface flaps (§IV-C).
		return "Interface flap"
	}
	return kind
}

// MatchTruth pairs each diagnosis with the study's nearest truth record
// at the same location within tolerance; out[i] is nil when ds[i] has
// none. The pointers are into truths.
func MatchTruth(truths []simnet.Truth, study string, ds []engine.Diagnosis, tolerance time.Duration) []*simnet.Truth {
	byWhere := map[string][]*simnet.Truth{}
	for i := range truths {
		if tr := &truths[i]; tr.Study == study {
			byWhere[tr.Where] = append(byWhere[tr.Where], tr)
		}
	}
	out := make([]*simnet.Truth, len(ds))
	for i, d := range ds {
		var best time.Duration
		for _, tr := range byWhere[d.Symptom.Loc.String()] {
			delta := absDelta(d.Symptom.Start, tr.At)
			if delta <= tolerance && (out[i] == nil || delta < best) {
				out[i], best = tr, delta
			}
		}
	}
	return out
}

// ScoreDiagnoses matches each diagnosis to a truth record (MatchTruth)
// and scores Primary labels.
func ScoreDiagnoses(truths []simnet.Truth, study string, ds []engine.Diagnosis, tolerance time.Duration) Score {
	var s Score
	for i, tr := range MatchTruth(truths, study, ds, tolerance) {
		if tr == nil {
			s.Unmatched++
			continue
		}
		s.Total++
		if ds[i].Primary() == ExpectedLabel(tr.Kind) {
			s.Correct++
		}
	}
	return s
}

func absDelta(a, b time.Time) time.Duration {
	d := a.Sub(b)
	if d < 0 {
		return -d
	}
	return d
}
