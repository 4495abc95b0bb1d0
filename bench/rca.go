package main

import (
	"encoding/json"
	"fmt"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/server"
	"grca/internal/wire"
)

// pinnedAccuracy is corpus_rca's per-application accuracy (percent, two
// decimals) at the seed commit, for the seeds acceptance runs. Other
// seeds are held to the in-process reference only.
var pinnedAccuracy = map[int64]map[string]string{
	2010: {"bgpflap": "100.00", "cdn": "95.33", "pim": "99.50"},
	2011: {"bgpflap": "100.00", "cdn": "94.50", "pim": "99.33"},
}

// setupRCA builds corpus_rca; the replay stream needs the in-process
// reference and is built by the run, outside set-up.
func setupRCA(e *env, p params, dir string) (*inputs, error) {
	cfg := rcaConfig(p.seed)
	if p.scale < 1 {
		// The traced run and the smoke test shrink the corpus, not just
		// the stream: loading 429k lines is most of this workload's time.
		cfg = smallConfig(p.seed)
		cfg.PIMIncidents = 20
	}
	c, err := buildCorpus(cfg, dir)
	if err != nil {
		return nil, err
	}
	return &inputs{corpus: c, perBody: replayBatch}, nil
}

// buildReplays cuts K time-shifted replays of the reference's normalized
// events into batches, and ends with a lone far-future tick that moves
// the stream clock past every grace period so no symptom stays pending.
func buildReplays(ref *reference, duration time.Duration, replays int) (batches [][]event.Instance, tick []event.Instance) {
	base := ref.normalized()
	period := replayPeriod(base, duration)
	var last time.Time
	for k := 1; k <= replays; k++ {
		evs := shifted(base, k, period)
		for len(evs) > 0 {
			n := min(replayBatch, len(evs))
			batches = append(batches, evs[:n])
			evs = evs[n:]
		}
	}
	if len(base) > 0 {
		last = base[len(base)-1].End.Add(time.Duration(replays) * period)
	}
	at := last.Add(30 * 24 * time.Hour)
	tick = []event.Instance{{Name: "bench tick", Start: at, End: at, Loc: locus.At(locus.Router, "bench-tick")}}
	return batches, tick
}

func runRCAStream(e *env, p params, in *inputs, r *result) error {
	t0 := time.Now()
	ref, err := buildReference(in.corpus)
	if err != nil {
		return err
	}
	replays := max(1, int(replaysPerSecond*float64(p.seconds)*p.scale+0.5))
	batches, tick := buildReplays(ref, in.corpus.bundle.Duration, replays)
	in.stream = in.stream[:0]
	in.events = 0
	for _, b := range batches {
		t0 := time.Now()
		in.stream = append(in.stream, wire.AppendEvents(nil, b))
		in.encode += time.Since(t0)
		in.events += len(b)
	}
	r.diag["rca.reference_s"] = time.Since(t0).Seconds()
	r.diag["rca.replays"] = float64(replays)

	n, err := e.startNode("rca", in.corpus.dir)
	if err != nil {
		return err
	}
	if err := e.waitPhase(n, "loading", 30*time.Second); err != nil {
		return err
	}
	load, finalize, err := loadAndFinalize(e, r, n, in.corpus)
	if err != nil {
		return err
	}
	r.set("feed_lines_per_s", float64(in.corpus.lines)/load.Seconds(), in.corpus.lines)
	r.set("finalize_s", finalize.Seconds(), 1)
	base, err := e.events(n.base)
	if err != nil {
		return err
	}
	r.check("server stored the reference's events", base.Events == ref.st.Len(),
		"%d at the server, %d in process", base.Events, ref.st.Len())

	// Batch accuracy: the server's diagnoses of the loaded corpus against
	// the in-process engines and the ground truth.
	ids := map[string][]int{}
	for _, a := range apps {
		got, err := diagnoseAll(e, &r.ops, n.base, a.name)
		if err != nil {
			return err
		}
		serverLabels, refLabels := map[string]int{}, map[string]int{}
		for _, d := range got {
			serverLabels[d.Label]++
			ids[a.name] = append(ids[a.name], d.Symptom.ID)
		}
		if a.study == "" {
			continue
		}
		acc, ds := ref.accuracy(a, in.corpus.bundle)
		for _, d := range ds {
			refLabels[d.Label()]++
		}
		r.diag["rca.accuracy_pct."+a.name] = acc
		r.check(a.name+" diagnoses = in-process engine's", labelCounts(serverLabels) == labelCounts(refLabels),
			"%d diagnoses, accuracy %.2f%%", len(got), acc)
		if want, ok := pinnedAccuracy[p.seed][a.name]; ok && p.scale == 1 {
			r.check(a.name+" accuracy = seed commit's", fmt.Sprintf("%.2f", acc) == want, "%.2f%%, pinned %s%%", acc, want)
		}
	}

	// The window: one writer replays, one reader browses and diagnoses.
	// One observation of the rate: it falls from replay to replay as the
	// store grows, so the replays are not repetitions of one another.
	var s streamed
	var reads readStats
	if _, err := e.inPhase("window", func() error {
		stop := make(chan struct{})
		readErr := make(chan error, 1)
		go func() {
			var err error
			reads, err = readMix(e, &r.ops, n.base, ids, true, 0, stop)
			readErr <- err
		}()
		s, err = stream(e, &r.ops, "ingest", n.base, in.stream, 1, true)
		close(stop)
		if rerr := <-readErr; err == nil {
			err = rerr
		}
		return err
	}); err != nil {
		return err
	}
	var lat latencies
	windowMetrics(r, in, s, &lat)
	latencyMetrics(r, lat)
	p50, p99 := reads.diagnose.quantiles()
	r.setOpt("diagnose_p50_ms", p50, len(reads.diagnose))
	r.setOpt("diagnose_p99_ms", p99, len(reads.diagnose))
	p50, p99 = reads.browse.quantiles()
	r.setOpt("browse_p50_ms", p50, len(reads.browse))
	r.setOpt("browse_p99_ms", p99, len(reads.browse))

	// Flush what is still inside a grace period, then compare every
	// streamed diagnosis with the in-process processors' over the same
	// events.
	reply, _, err := e.ingest(&r.ops, "tick", n.base, wire.AppendEvents(nil, tick))
	if err != nil {
		return err
	}
	got := appLabels{}
	for _, body := range append(s.replies, reply) {
		var resp server.IngestResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("ingest response: %v", err)
		}
		for _, d := range resp.Diagnoses {
			got.add(d.App, d.Label)
		}
	}
	want, symptoms := ref.streamLabels(append(batches, tick))
	r.check("streamed diagnoses = streamed root symptoms", got.total() == symptoms,
		"%d diagnoses, %d root symptoms", got.total(), symptoms)
	r.check("streamed labels = in-process realtime.Processor's", got.String() == want.String(),
		"%d labels", want.total())
	r.diag["rca.streamed_diagnoses"] = float64(got.total())

	if err := diskPerEvent(e, r, n.dataDir, n.base); err != nil {
		return err
	}
	return endOfRun(e, r, n, base.Events+in.events+len(tick), p.restarts())
}
