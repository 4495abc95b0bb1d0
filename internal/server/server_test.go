package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"grca/internal/apps"
	"grca/internal/collector"
	"grca/internal/event"
	"grca/internal/obs"
	"grca/internal/platform"
	"grca/internal/simnet"
	"grca/internal/store"
	"grca/internal/wal"
)

// feedOrder mirrors the platform's canonical ingestion order; posting
// feeds in this order is what makes serve byte-identical to batch.
var feedOrder = []string{
	collector.SourceOSPFMon, collector.SourceBGPMon, collector.SourceSyslog,
	collector.SourceSNMP, collector.SourceTACACS, collector.SourceWorkflow,
	collector.SourceLayer1, collector.SourcePerfMon, collector.SourceKeynote,
	collector.SourceServer,
}

func testBundle(t *testing.T) (*simnet.Dataset, platform.Bundle) {
	t.Helper()
	d, err := simnet.Generate(simnet.Config{
		Seed: 7, PoPs: 2, PERsPerPoP: 2, SessionsPerPER: 4,
		Duration: 2 * 24 * time.Hour, BGPFlapIncidents: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, platform.BundleFromDataset(d)
}

func openServer(t *testing.T, dir string, b platform.Bundle) *Server {
	t.Helper()
	s, err := Open(Config{DataDir: dir, Bundle: b})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// openRefilled opens dir and reports whether the boot took a checkpoint:
// a restart that stands on the checkpoint it finds, a clean shutdown's,
// takes none; one that refilled a lost or rejected checkpoint from the
// journal takes one before it serves.
func openRefilled(t *testing.T, dir string, b platform.Bundle) (*Server, bool) {
	t.Helper()
	taken := obs.GetCounter("wal.snapshots")
	before := taken.Value()
	s := openServer(t, dir, b)
	return s, taken.Value() > before
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func loadAndFinalize(t *testing.T, ts *httptest.Server, b platform.Bundle) {
	t.Helper()
	for _, src := range feedOrder {
		feed, ok := b.Feeds[src]
		if !ok {
			continue
		}
		code, body := post(t, ts, "/v1/ingest", IngestRequest{Source: src, Lines: feed})
		if code != http.StatusOK {
			t.Fatalf("ingest %s: %d %s", src, code, body)
		}
	}
	code, body := post(t, ts, "/v1/finalize", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("finalize: %d %s", code, body)
	}
}

// TestDiagnoseParityWithBatch is the service's defining contract:
// feeding the same corpus over HTTP and diagnosing via POST /v1/diagnose
// yields byte-identical diagnosis trees to the offline batch pipeline.
func TestDiagnoseParityWithBatch(t *testing.T) {
	d, b := testBundle(t)
	s := openServer(t, t.TempDir(), b)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loadAndFinalize(t, ts, b)

	// Batch reference over the identical corpus.
	sys, err := platform.FromDataset(d, platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := wal.StoreDigest(s.Store()), wal.StoreDigest(sys.Store); got != want {
		t.Fatalf("served store digest differs from batch store (%d vs %d events)",
			s.Store().Len(), sys.Store.Len())
	}

	for _, app := range []string{"bgpflap", "cdn"} {
		spec := apps.MustGet(app)
		eng, err := spec.NewEngine(sys.Store, sys.View)
		if err != nil {
			t.Fatal(err)
		}
		var want []DiagnosisJSON
		for _, diag := range eng.DiagnoseAll() {
			want = append(want, diagnosisJSON(diag))
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}

		code, body := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
		if code != http.StatusOK {
			t.Fatalf("diagnose %s: %d %s", app, code, body)
		}
		var resp DiagnoseResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Diagnoses) == 0 && app == "bgpflap" {
			t.Fatalf("%s: no diagnoses over a corpus with %d flap incidents", app, 40)
		}
		gotJSON, err := json.Marshal(resp.Diagnoses)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			if len(resp.Diagnoses) != 0 {
				t.Fatalf("%s: server returned diagnoses where batch has none", app)
			}
			continue
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%s: served diagnoses are not byte-identical to batch (%d vs %d)",
				app, len(resp.Diagnoses), len(want))
		}
	}

	// Single-symptom diagnosis matches the corresponding entry of All.
	code, body := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: "bgpflap", All: true})
	if code != http.StatusOK {
		t.Fatal(string(body))
	}
	var all DiagnoseResponse
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	one := all.Diagnoses[0]
	code, body = post(t, ts, "/v1/diagnose", DiagnoseRequest{App: "bgpflap", ID: one.Symptom.ID})
	if code != http.StatusOK {
		t.Fatal(string(body))
	}
	var single DiagnoseResponse
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(single.Diagnoses[0])
	bb, _ := json.Marshal(one)
	if !bytes.Equal(a, bb) {
		t.Fatal("by-ID diagnosis differs from the same symptom in All")
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRestartRecovery: a served corpus survives shutdown and reopen —
// same store digest, same diagnosis bytes, phase still serving — and a
// deleted checkpoint is refilled from the ingest journal with identical
// results.
func TestRestartRecovery(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	s := openServer(t, dir, b)
	ts := httptest.NewServer(s.Handler())
	loadAndFinalize(t, ts, b)
	digest := wal.StoreDigest(s.Store())
	_, diagBefore := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: "bgpflap", All: true})
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	personas := []struct {
		name    string
		damage  func()
		rebuilt bool // the checkpoint must be refilled from the journal
		skipped int  // unreadable snapshots recovery must report
	}{
		{"clean restart", func() {}, false, 0},
		// The checkpoints vanished — the journal must refill everything.
		{"checkpoint lost", func() {
			if err := wipeCheckpoints(dir); err != nil {
				t.Fatal(err)
			}
		}, true, 0},
		// A data dir from before snapshots became manifest + runs: one
		// whole-store dump. The dump is skipped as unreadable, and the
		// journal refills the store — once.
		{"old-format dump", func() {
			snaps, err := filepath.Glob(filepath.Join(wal.SnapDirOf(dir), "snap-*.snap"))
			if err != nil || len(snaps) == 0 {
				t.Fatalf("no manifest to replace: %v", err)
			}
			newest := snaps[len(snaps)-1]
			var next int
			if _, err := fmt.Sscanf(filepath.Base(newest), "snap-%d.snap", &next); err != nil {
				t.Fatal(err)
			}
			if err := wipeCheckpoints(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(wal.SnapDirOf(dir), 0o755); err != nil {
				t.Fatal(err)
			}
			dump := wal.AppendFrame([]byte("GRCASNAP1"), []byte{0, byte(next), 0}) // base, next, count: the magic alone decides
			if err := os.WriteFile(newest, dump, 0o644); err != nil {
				t.Fatal(err)
			}
		}, true, 1},
		{"restart after the heal", func() {}, false, 0},
	}
	for _, p := range personas {
		p.damage()
		s2, refilled := openRefilled(t, dir, b)
		rec := s2.Recovery()
		if !rec.Finalized {
			t.Fatalf("%s: recovery lost the finalized phase: %+v", p.name, rec)
		}
		if refilled != p.rebuilt || rec.SnapshotsSkipped != p.skipped {
			t.Fatalf("%s: recovery %+v, boot checkpointed %v, want %v with %d snapshots skipped", p.name, rec, refilled, p.rebuilt, p.skipped)
		}
		if got := wal.StoreDigest(s2.Store()); got != digest {
			t.Fatalf("%s: recovered store digest differs", p.name)
		}
		ts2 := httptest.NewServer(s2.Handler())
		_, diagAfter := post(t, ts2, "/v1/diagnose", DiagnoseRequest{App: "bgpflap", All: true})
		if !bytes.Equal(diagBefore, diagAfter) {
			t.Fatalf("%s: post-restart diagnoses differ from pre-restart", p.name)
		}
		ts2.Close()
		if err := s2.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotFailureDoesNotFailIngest: a batch that is journaled, stored
// and fsynced is answered 200 whatever happens to the checkpoint that its
// roll triggered. With snap/ unusable for the whole load every request
// succeeds, the failures show in wal.snapshots.failed, and
// once the fault is cleared the journal, which dropped nothing, refills
// the store.
func TestSnapshotFailureDoesNotFailIngest(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	// Every event batch below passes the cadence: each one after the first
	// rolls the journal, and each roll checkpoints.
	s, err := Open(Config{DataDir: dir, Bundle: b, SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Tests run as root, so permissions stop nothing: make snap/ a file.
	if err := os.Remove(wal.SnapDirOf(dir)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal.SnapDirOf(dir), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	failed := obs.GetCounter("wal.snapshots.failed")
	before := failed.Value()
	ts := httptest.NewServer(s.Handler())
	loadAndFinalize(t, ts, b) // fails the test on any non-200
	batches := lifecycleBatches(b)
	for i, evs := range batches {
		if code, body := postLifecycleBatch(t, ts, i, evs); code != http.StatusOK {
			t.Fatalf("event batch %d: %d %s", i, code, body)
		}
	}
	// Finalize's checkpoint and one a roll.
	if got := failed.Value() - before; got < int64(len(batches)) {
		t.Fatalf("wal.snapshots.failed rose by %d over %d batches at SnapshotEvery=5", got, len(batches))
	}
	code, stats := get(t, ts, "/v1/stats")
	if code != http.StatusOK || !bytes.Contains(stats, []byte("wal.snapshots.failed")) {
		t.Fatalf("/v1/stats (%d) does not report wal.snapshots.failed", code)
	}
	digest := wal.StoreDigest(s.Store())
	ts.Close()
	if err := s.Shutdown(context.Background()); err == nil {
		t.Fatal("shutdown's final snapshot into a broken snap/ reported success")
	}
	if err := os.Remove(wal.SnapDirOf(dir)); err != nil {
		t.Fatal(err)
	}
	s2, refilled := openRefilled(t, dir, b)
	if rec := s2.Recovery(); !refilled || rec.TailVerified != 0 || !rec.Finalized {
		t.Fatalf("recovery after the fault cleared: %+v, want the journal applied whole and checkpointed", rec)
	}
	if got := wal.StoreDigest(s2.Store()); got != digest {
		t.Fatal("recovered store digest differs")
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEventIngestStreaming: after finalize, normalized events flow
// through the streaming processors and the response carries their
// diagnoses; the events are durable like any other batch.
func TestEventIngestStreaming(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	s := openServer(t, dir, b)
	ts := httptest.NewServer(s.Handler())
	loadAndFinalize(t, ts, b)
	before := s.Store().Len()

	at := b.Start.Add(b.Duration).Add(time.Hour)
	sym := EventJSON{
		Name: event.EBGPFlap, Start: at, End: at.Add(time.Minute),
		Loc: LocationJSON{Type: "router:neighbor", A: "pop00-per1", B: "10.99.0.1"},
	}
	tick := EventJSON{
		Name: "synthetic tick", Start: at.Add(48 * time.Hour), End: at.Add(48 * time.Hour),
		Loc: LocationJSON{Type: "router", A: "pop00-per1"},
	}
	code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: []EventJSON{sym, tick}})
	if code != http.StatusOK {
		t.Fatalf("event ingest: %d %s", code, body)
	}
	var resp IngestResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stored != 2 {
		t.Fatalf("stored %d, want 2", resp.Stored)
	}
	if len(resp.Diagnoses) != 1 {
		t.Fatalf("streaming diagnoses = %d, want 1 (tick advances past grace)", len(resp.Diagnoses))
	}
	if resp.Diagnoses[0].App != "bgpflap" {
		t.Errorf("diagnosis app = %q", resp.Diagnoses[0].App)
	}
	if s.Store().Len() != before+2 {
		t.Fatalf("store grew by %d, want 2", s.Store().Len()-before)
	}
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The event batch is journaled + WAL'd: both survive restart.
	s2 := openServer(t, dir, b)
	if s2.Store().Len() != before+2 {
		t.Fatalf("restart lost event-mode batch: %d, want %d", s2.Store().Len(), before+2)
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestIngestValidation: bad batches are rejected before they are
// journaled, with the right statuses.
func TestIngestValidation(t *testing.T) {
	_, b := testBundle(t)
	s := openServer(t, t.TempDir(), b)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _ := post(t, ts, "/v1/ingest", IngestRequest{Source: "nosuch", Lines: "x"})
	if code != http.StatusBadRequest {
		t.Errorf("unknown source: %d", code)
	}
	code, _ = post(t, ts, "/v1/ingest", IngestRequest{})
	if code != http.StatusBadRequest {
		t.Errorf("empty request: %d", code)
	}
	code, _ = post(t, ts, "/v1/ingest", IngestRequest{Events: []EventJSON{{Name: ""}}})
	if code != http.StatusBadRequest {
		t.Errorf("nameless event: %d", code)
	}
	code, _ = post(t, ts, "/v1/diagnose", DiagnoseRequest{App: "bgpflap", All: true})
	if code != http.StatusConflict {
		t.Errorf("diagnose before finalize: %d", code)
	}
	// A diagnose body over the cap is 413 naming the cap, like ingest's;
	// a malformed one stays 400.
	resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", bytes.NewReader(bytes.Repeat([]byte(" "), maxBody+1)))
	if err != nil {
		t.Fatal(err)
	}
	var ej ErrorJSON
	err = json.NewDecoder(resp.Body).Decode(&ej)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || !strings.Contains(ej.Error, strconv.Itoa(maxBody)) {
		t.Errorf("oversized diagnose body: %d %q (%v), want a 413 naming the %d-byte cap", resp.StatusCode, ej.Error, err, maxBody)
	}
	if code, _ = post(t, ts, "/v1/diagnose", "not an object"); code != http.StatusBadRequest {
		t.Errorf("malformed diagnose body: %d, want 400", code)
	}
	// Finalize, then feeds must be refused (and journal replay must not
	// see the refused batch — restart proves it).
	if code, body := post(t, ts, "/v1/finalize", struct{}{}); code != http.StatusOK {
		t.Fatalf("finalize: %d %s", code, body)
	}
	code, _ = post(t, ts, "/v1/ingest", IngestRequest{Source: collector.SourceSyslog, Lines: "x"})
	if code != http.StatusConflict {
		t.Errorf("feed after finalize: %d", code)
	}
	code, _ = post(t, ts, "/v1/finalize", struct{}{})
	if code != http.StatusConflict {
		t.Errorf("double finalize: %d", code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBackpressure429: a full ingest queue answers 429 + Retry-After
// instead of buffering. The applier and the observer are deliberately
// absent, so the queues stay as filled: admission must reject before
// consuming a sequence number or IDs, and Retry-After must grow with the
// depth of the whole pipeline, the observer's backlog included.
func TestBackpressure429(t *testing.T) {
	const inflight = 2
	for _, tc := range []struct {
		name      string
		observing int // batches waiting on the observer, of inflight
		wantRA    int
	}{
		{name: "observer idle", observing: 0, wantRA: 2},
		{name: "observer half loaded", observing: 1, wantRA: 3},
		{name: "observer saturated", observing: inflight, wantRA: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Server{
				cfg:      Config{MaxInflight: inflight, RequestTimeout: time.Second},
				st:       store.New(),
				queue:    make(chan *batch, inflight),
				observeQ: make(chan *batch, inflight),
				closing:  make(chan struct{}),
			}
			for j := 0; j < inflight; j++ {
				s.queue <- &batch{}
			}
			for j := 0; j < tc.observing; j++ {
				s.observeQ <- &batch{}
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			data, _ := json.Marshal(IngestRequest{Events: []EventJSON{{
				Name: "x", Start: time.Unix(0, 0).UTC(), End: time.Unix(1, 0).UTC(),
				Loc: LocationJSON{Type: "router", A: "r0"},
			}}})
			resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("status = %d, want 429", resp.StatusCode)
			}
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra != tc.wantRA {
				t.Errorf("Retry-After = %q, want the depth-derived %d",
					resp.Header.Get("Retry-After"), tc.wantRA)
			}
			if s.seq != 0 || s.nextID != 0 {
				t.Errorf("rejection consumed seq=%d nextID=%d, want neither", s.seq, s.nextID)
			}
		})
	}
}

// TestHealthAndStats: the operational endpoints expose phase, span, and
// the metrics registry.
func TestHealthAndStats(t *testing.T) {
	_, b := testBundle(t)
	s := openServer(t, t.TempDir(), b)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) map[string]any {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	if got := get("/healthz")["phase"]; got != "loading" {
		t.Errorf("phase = %v, want loading", got)
	}
	loadAndFinalize(t, ts, b)
	if got := get("/healthz")["phase"]; got != "serving" {
		t.Errorf("phase = %v, want serving", got)
	}
	stats := get("/v1/stats")
	if stats["events"].(float64) <= 0 {
		t.Error("stats reports no events after a full load")
	}
	if _, ok := stats["metrics"]; !ok {
		t.Error("stats lacks the metrics snapshot")
	}
	ev := get("/v1/events")
	if len(ev["names"].([]any)) == 0 {
		t.Error("no event names listed")
	}
	name := ev["names"].([]any)[0].(string)
	lim := get("/v1/events?name=" + url.QueryEscape(name) + "&limit=3")
	if n := len(lim["events"].([]any)); n > 3 {
		t.Errorf("limit ignored: %d events", n)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
