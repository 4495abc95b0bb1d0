package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"grca/internal/collector"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/platform"
	"grca/internal/simnet"
)

// BenchmarkObserveStored prices the streaming side of a committed batch
// when no event in it is a symptom — what nearly every event costs: one
// observeStored over a finalized server's four applications, reported per
// event as ns/event and allocs/event.
func BenchmarkObserveStored(b *testing.B) {
	d, err := simnet.Generate(simnet.Config{
		Seed: 7, PoPs: 2, PERsPerPoP: 2, SessionsPerPER: 4,
		Duration: 2 * 24 * time.Hour, BGPFlapIncidents: 40,
	})
	if err != nil {
		b.Fatal(err)
	}
	bundle := platform.BundleFromDataset(d)
	s, err := Open(Config{DataDir: b.TempDir(), Bundle: bundle})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background()) //nolint:errcheck // benchmark teardown
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	send := func(path string, req any) {
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
	for _, src := range collector.Sources {
		if feed, ok := bundle.Feeds[src]; ok {
			send("/v1/ingest", IngestRequest{Source: src, Lines: feed})
		}
	}
	send("/v1/finalize", struct{}{})

	const per = 256
	at := bundle.Start.Add(bundle.Duration).Add(time.Hour)
	events := make([]event.Instance, per)
	stored := make([]*event.Instance, per)
	for j := range events {
		events[j] = event.Instance{Name: "synthetic tick", Loc: locus.At(locus.Router, "pop00-per1")}
		stored[j] = &events[j]
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range events {
			events[j].Start = at.Add(time.Duration(i*per+j) * time.Millisecond)
			events[j].End = events[j].Start
		}
		s.observeStored(stored)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * per
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
}
