package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"grca/internal/collector"
	"grca/internal/event"
	"grca/internal/obs"
)

// TestOneEnginePerApp: the stream, /v1/diagnose and /v1/drilldown ask
// one engine. A symptom the stream has just diagnosed costs /v1/diagnose
// no spatial expansion of its own, all three answers are the same
// diagnosis, and a second drill-down of it — co-located events included —
// is served from the view's one expansion cache.
func TestOneEnginePerApp(t *testing.T) {
	_, b := testBundle(t)
	s := openServer(t, t.TempDir(), b)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loadAndFinalize(t, ts, b)

	at := b.Start.Add(b.Duration).Add(time.Hour)
	code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: []EventJSON{
		{
			Name: event.EBGPFlap, Start: at, End: at.Add(time.Minute),
			Loc: LocationJSON{Type: "router:neighbor", A: "pop00-per1", B: "10.99.0.1"},
		},
		{ // carries the stream clock past the symptom's grace
			Name: "synthetic tick", Start: at.Add(48 * time.Hour), End: at.Add(48 * time.Hour),
			Loc: LocationJSON{Type: "router", A: "pop00-per1"},
		},
	}})
	if code != http.StatusOK {
		t.Fatalf("event ingest: %d %s", code, body)
	}
	var ing IngestResponse
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if len(ing.Diagnoses) != 1 || ing.Diagnoses[0].App != "bgpflap" {
		t.Fatalf("ingest response carries %d diagnoses, want the bgpflap one: %s", len(ing.Diagnoses), body)
	}
	streamed := ing.Diagnoses[0]
	streamed.App = ""
	want, err := json.Marshal(streamed)
	if err != nil {
		t.Fatal(err)
	}
	id := streamed.Symptom.ID

	misses := obs.GetCounter("netstate.expand.cache.misses")
	hits := obs.GetCounter("netstate.expand.cache.hits")
	missesBefore, hitsBefore := misses.Value(), hits.Value()

	code, body = post(t, ts, "/v1/diagnose", DiagnoseRequest{App: "bgpflap", ID: id})
	if code != http.StatusOK {
		t.Fatalf("diagnose: %d %s", code, body)
	}
	var diag DiagnoseResponse
	if err := json.Unmarshal(body, &diag); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(diag.Diagnoses[0]); !bytes.Equal(got, want) {
		t.Errorf("/v1/diagnose differs from the streamed diagnosis:\n%s\n%s", got, want)
	}
	if d := misses.Value() - missesBefore; d != 0 {
		t.Errorf("the on-demand diagnosis missed the spatial cache %d times; the stream had filled it", d)
	}
	if hits.Value() == hitsBefore {
		t.Error("the on-demand diagnosis never consulted the spatial cache")
	}

	// The first drill-down expands the co-located candidates' locations,
	// which no diagnosis needed; the second finds them in the view's cache.
	for pass := 0; pass < 2; pass++ {
		missesBefore, hitsBefore = misses.Value(), hits.Value()
		code, body = get(t, ts, fmt.Sprintf("/v1/drilldown/%d", id))
		if code != http.StatusOK {
			t.Fatalf("drilldown: %d %s", code, body)
		}
		var drill struct {
			App       string          `json:"app"`
			Diagnosis DiagnosisJSON   `json:"diagnosis"`
			Trace     json.RawMessage `json:"trace"`
		}
		if err := json.Unmarshal(body, &drill); err != nil {
			t.Fatal(err)
		}
		if drill.App != "bgpflap" || len(drill.Diagnosis.Trace) == 0 || string(drill.Trace) == "null" {
			t.Errorf("drilldown app %q, %d trace lines, trace %s: want a traced bgpflap diagnosis",
				drill.App, len(drill.Diagnosis.Trace), drill.Trace)
		}
		drill.Diagnosis.Trace = nil // timings; everything else is the diagnosis
		if got, _ := json.Marshal(drill.Diagnosis); !bytes.Equal(got, want) {
			t.Errorf("/v1/drilldown differs from the streamed diagnosis:\n%s\n%s", got, want)
		}
	}
	if d := misses.Value() - missesBefore; d != 0 {
		t.Errorf("a repeated drill-down missed the spatial cache %d times", d)
	}
	if hits.Value() == hitsBefore {
		t.Error("a repeated drill-down never consulted the spatial cache")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPendingGaugeIsTotal: realtime.pending counts every application's
// pending symptoms, not the queue of whichever one observed last.
func TestPendingGaugeIsTotal(t *testing.T) {
	_, b := testBundle(t)
	s := openServer(t, t.TempDir(), b)
	defer s.Shutdown(context.Background()) //nolint:errcheck // test teardown
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loadAndFinalize(t, ts, b)

	at := b.Start.Add(b.Duration).Add(time.Hour)
	code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: []EventJSON{
		{
			Name: event.EBGPFlap, Start: at, End: at.Add(time.Minute),
			Loc: LocationJSON{Type: "router:neighbor", A: "pop00-per1", B: "10.99.0.1"},
		},
		{
			Name: event.PIMAdjacencyChange, Start: at, End: at.Add(time.Minute),
			Loc: LocationJSON{Type: "router:neighbor", A: "pop00-per1", B: "pop01-per1"},
		},
	}})
	if code != http.StatusOK {
		t.Fatalf("event ingest: %d %s", code, body)
	}
	sv := s.serving.Load()
	total, apps := 0, 0
	for _, a := range sv.apps {
		if n := len(sv.proc.PendingSymptoms(a.Name)); n > 0 {
			total += n
			apps++
		}
	}
	if apps < 2 {
		t.Fatalf("symptoms pending in %d applications, want 2", apps)
	}
	code, body = get(t, ts, "/v1/stats")
	var stats struct {
		Metrics struct{ Gauges map[string]int64 }
	}
	if err := json.Unmarshal(body, &stats); code != http.StatusOK || err != nil {
		t.Fatalf("/v1/stats: %d %v", code, err)
	}
	if got := stats.Metrics.Gauges["realtime.pending"]; got != int64(total) {
		t.Errorf("realtime.pending = %d, want the %d symptoms pending over all applications", got, total)
	}
}

// TestFinalizeAfterBurst: finalize arrives while concurrent clients have
// event batches in flight. Whichever side of it a batch lands on, its
// symptom is in the breakdown — seeded if acknowledged before, pending or
// streamed if after — and the batch counter sees every acknowledged
// request once, the inline feeds and finalize included, and the drain
// sentinels not at all.
func TestFinalizeAfterBurst(t *testing.T) {
	_, b := testBundle(t)
	batches := obs.GetCounter("server.ingest.batches")
	lowerInflight(t, 4)
	s, err := Open(Config{DataDir: t.TempDir(), Bundle: b})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	counted := batches.Value()
	feeds := 0
	for _, src := range collector.Sources {
		if feed, ok := b.Feeds[src]; ok {
			if code, body := post(t, ts, "/v1/ingest", IngestRequest{Source: src, Lines: feed}); code != http.StatusOK {
				t.Fatalf("ingest %s: %d %s", src, code, body)
			}
			feeds++
		}
	}

	const workers, perWorker = 6, 10
	at := b.Start.Add(b.Duration).Add(time.Hour)
	acked := make(chan struct{}, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				data, err := json.Marshal(IngestRequest{Events: []EventJSON{{
					Name: event.EBGPFlap, Start: at, End: at.Add(time.Minute),
					Loc: LocationJSON{Type: "router:neighbor",
						A: fmt.Sprintf("pop%02d-per%d", w%2, 1+i%2), B: fmt.Sprintf("10.98.%d.%d", w, i)},
				}}})
				if err != nil {
					t.Error(err)
					return
				}
				for {
					resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(data))
					if err != nil {
						t.Error(err)
						return
					}
					code := resp.StatusCode
					io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse
					resp.Body.Close()
					if code == http.StatusTooManyRequests {
						time.Sleep(time.Millisecond)
						continue
					}
					if code != http.StatusOK {
						t.Errorf("worker %d batch %d: status %d", w, i, code)
						return
					}
					break
				}
				acked <- struct{}{}
			}
		}(w)
	}
	for i := 0; i < workers; i++ { // a few acknowledged, the rest in flight
		<-acked
	}
	if code, body := post(t, ts, "/v1/finalize", struct{}{}); code != http.StatusOK {
		t.Fatalf("finalize: %d %s", code, body)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	const n = workers * perWorker
	flaps := s.Store().All(event.EBGPFlap) // the corpus's, paired at finalize, and the burst's
	burst := 0
	for _, in := range flaps {
		if strings.HasPrefix(in.Loc.B, "10.98.") {
			burst++
		}
	}
	if burst != n || len(flaps) == n {
		t.Fatalf("store holds %d flaps, %d of the burst's %d acknowledged", len(flaps), burst, n)
	}
	code, body := get(t, ts, "/v1/breakdown?app=bgpflap")
	if code != http.StatusOK {
		t.Fatalf("breakdown: %d %s", code, body)
	}
	var bd struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(body, &bd); err != nil {
		t.Fatal(err)
	}
	if bd.Total != len(flaps) {
		t.Errorf("breakdown covers %d symptoms, the store holds %d", bd.Total, len(flaps))
	}
	if got, want := batches.Value()-counted, int64(n+feeds+1); got != want {
		t.Errorf("server.ingest.batches moved by %d, want %d events + %d feeds + finalize = %d", got, n, feeds, want)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBatchFirstErrorWins: a batch that fails at more than one step of its
// commit — journal append, store insert, in that order — is answered with
// the first failure, whole, and after a journal failure
// nothing reaches the store: not that batch's events, and no later
// batch's, because the journal takes no more records.
func TestBatchFirstErrorWins(t *testing.T) {
	_, b := testBundle(t)
	s := openServer(t, t.TempDir(), b)
	defer s.Shutdown(context.Background()) //nolint:errcheck // shuts down over a closed journal
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tick := func() IngestRequest {
		at := b.Start.Add(time.Hour)
		return IngestRequest{Events: []EventJSON{{
			Name: "synthetic tick", Start: at, End: at, Loc: LocationJSON{Type: "router", A: "load-r0"},
		}}}
	}
	ingest := func(want string) {
		t.Helper()
		code, body := post(t, ts, "/v1/ingest", tick())
		var ej ErrorJSON
		if err := json.Unmarshal(body, &ej); err != nil || code != http.StatusInternalServerError || !strings.HasPrefix(ej.Error, want) {
			t.Fatalf("answered %d %s, want a 500 that begins %q", code, body, want)
		}
	}
	// occupy stores an event under the ID the next batch's event will be
	// given, so that its insert fails.
	occupy := func() {
		t.Helper()
		s.dispatchMu.Lock()
		defer s.dispatchMu.Unlock()
		in, err := tick().Events[0].instance()
		if err != nil {
			t.Fatal(err)
		}
		in.ID = s.nextID
		if _, err := s.st.Put(in); err != nil {
			t.Fatal(err)
		}
	}

	occupy()
	ingest("store: ")
	occupy()
	if err := s.jour.Close(); err != nil { // every append fails from here on
		t.Fatal(err)
	}
	held := s.st.Len()
	ingest("journal: ") // ahead of the store's
	ingest("journal: ")
	if got := s.st.Len(); got != held {
		t.Fatalf("the store went from %d to %d events behind a failed journal", held, got)
	}
}

// TestStatsDuringFeeds: /v1/stats reads the collector's per-source
// tallies while feed loads write them.
func TestStatsDuringFeeds(t *testing.T) {
	_, b := testBundle(t)
	s := openServer(t, t.TempDir(), b)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop, polled := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		defer func() { polled <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/v1/stats")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/v1/stats: %d", resp.StatusCode)
				return
			}
			n++
		}
	}()
	loadAndFinalize(t, ts, b)
	close(stop)
	if n := <-polled; n == 0 {
		t.Error("no /v1/stats request completed during the load")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStoreMappedGauge: /v1/stats reports the pages the store maps
// outside the heap; one ingest batch into an empty store maps at least a
// chunk of slots and its name's columns. Beside it is the attribute slab
// bytes the store holds.
func TestStoreMappedGauge(t *testing.T) {
	_, b := testBundle(t)
	s := openServer(t, t.TempDir(), b)
	defer s.Shutdown(context.Background()) //nolint:errcheck // test teardown
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mapped := func() int64 {
		t.Helper()
		code, body := get(t, ts, "/v1/stats")
		var stats struct {
			Metrics struct{ Gauges map[string]int64 }
		}
		if err := json.Unmarshal(body, &stats); code != http.StatusOK || err != nil {
			t.Fatalf("/v1/stats: %d %v", code, err)
		}
		if _, ok := stats.Metrics.Gauges["store.attrs.bytes"]; !ok {
			t.Fatal("/v1/stats reports no store.attrs.bytes")
		}
		return stats.Metrics.Gauges["store.mapped.bytes"]
	}
	// Let the finalizers of stores other tests dropped run first.
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	before := mapped()
	newTickStream(t, ts, b, time.Second).post(1, 100)
	if after := mapped(); after <= 0 || after-before < 24<<10 {
		t.Fatalf("store.mapped.bytes went from %d to %d over one ingest batch into an empty store", before, after)
	}
}

// TestWrongMethod405: every route answers one method; any other gets a
// 405 with the JSON error body, whatever the phase or role.
func TestWrongMethod405(t *testing.T) {
	_, b := testBundle(t)
	s := openServer(t, t.TempDir(), b)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, rt := range s.routes() {
		wrong := http.MethodPost
		if rt.method == http.MethodPost {
			wrong = http.MethodGet
		}
		path := rt.path
		if strings.HasSuffix(path, "/") && path != "/browser/" {
			path += "1"
		}
		req, err := http.NewRequest(wrong, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var ej ErrorJSON
		err = json.NewDecoder(resp.Body).Decode(&ej)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || err != nil || ej.Error != rt.method+" required" {
			t.Errorf("%s %s: %d %q (%v), want 405 %q", wrong, path, resp.StatusCode, ej.Error, err, rt.method+" required")
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
