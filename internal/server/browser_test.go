package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"grca/internal/apps"
	"grca/internal/browser"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/platform"
	"grca/internal/simnet"
	"grca/internal/store"
	"grca/internal/wal"
	"grca/internal/wire"
)

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// removeCheckpoints deletes the checkpoints, the crashed-before-checkpoint-
// commit persona: recovery must rebuild everything from the journal.
func removeCheckpoints(t *testing.T, dir string) {
	t.Helper()
	if err := wal.RemoveCheckpoints(dir); err != nil {
		t.Fatal(err)
	}
}

type breakdownResp struct {
	App   string          `json:"app"`
	Total int             `json:"total"`
	Rows  json.RawMessage `json:"rows"`
}

// TestResultBrowser drives the live Result Browser endpoints over a full
// corpus: breakdown/trend parity with the batch browser package, cause
// filtering, drill-down, the SSE stream, and rollup determinism across
// restart (graceful and crashed).
func TestResultBrowser(t *testing.T) {
	d, b := testBundle(t)
	dir := t.TempDir()
	s := openServer(t, dir, b)
	ts := httptest.NewServer(s.Handler())

	// Browser endpoints refuse to answer before finalize.
	if code, _ := get(t, ts, "/v1/breakdown?app=bgpflap"); code != http.StatusConflict {
		t.Fatalf("breakdown before finalize: %d, want 409", code)
	}
	loadAndFinalize(t, ts, b)

	// Batch reference over the identical corpus.
	sys, err := platform.FromDataset(d, platform.Options{})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("breakdown parity", func(t *testing.T) {
		for _, app := range []string{"bgpflap", "cdn"} {
			spec := apps.MustGet(app)
			eng, err := spec.NewEngine(sys.Store, sys.View)
			if err != nil {
				t.Fatal(err)
			}
			ds := eng.DiagnoseAll()
			want, _ := json.Marshal(browser.Breakdown(ds, spec.DisplayLabel))
			code, body := get(t, ts, "/v1/breakdown?app="+app)
			if code != http.StatusOK {
				t.Fatalf("%s: %d %s", app, code, body)
			}
			var resp breakdownResp
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Total != len(ds) {
				t.Errorf("%s: total = %d, want %d diagnoses", app, resp.Total, len(ds))
			}
			if len(ds) > 0 && !bytes.Equal(resp.Rows, want) {
				t.Errorf("%s: live breakdown != batch browser.Breakdown\n got %s\nwant %s",
					app, resp.Rows, want)
			}
		}
	})

	t.Run("breakdown validation", func(t *testing.T) {
		if code, _ := get(t, ts, "/v1/breakdown"); code != http.StatusBadRequest {
			t.Errorf("missing app: %d", code)
		}
		if code, _ := get(t, ts, "/v1/breakdown?app=nosuch"); code != http.StatusBadRequest {
			t.Errorf("unknown app: %d", code)
		}
		if code, _ := get(t, ts, "/v1/breakdown?app=bgpflap&window=banana"); code != http.StatusBadRequest {
			t.Errorf("bad window: %d", code)
		}
		code, body := get(t, ts, "/v1/breakdown?app=bgpflap&window=24h")
		if code != http.StatusOK {
			t.Fatalf("windowed breakdown: %d %s", code, body)
		}
		var full, windowed breakdownResp
		_, fullBody := get(t, ts, "/v1/breakdown?app=bgpflap")
		json.Unmarshal(fullBody, &full) //nolint:errcheck // checked above
		if err := json.Unmarshal(body, &windowed); err != nil {
			t.Fatal(err)
		}
		if windowed.Total > full.Total {
			t.Errorf("24h window counts %d > full total %d", windowed.Total, full.Total)
		}
	})

	t.Run("trend parity", func(t *testing.T) {
		first, last, ok := s.Store().Span()
		if !ok {
			t.Fatal("no span after load")
		}
		for _, bin := range []time.Duration{time.Minute, time.Hour} {
			want, _ := json.Marshal(browser.Trend(s.Store(), event.EBGPFlap, first.Truncate(bin), last, bin))
			code, body := get(t, ts, "/v1/trend?bin="+bin.String()+"&name="+url.QueryEscape(event.EBGPFlap))
			if code != http.StatusOK {
				t.Fatalf("trend bin %v: %d %s", bin, code, body)
			}
			var resp struct {
				Points json.RawMessage `json:"points"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resp.Points, want) {
				t.Errorf("bin %v: live trend != browser.Trend\n got %s\nwant %s", bin, resp.Points, want)
			}
		}
		if code, _ := get(t, ts, "/v1/trend?name=x&bin=90s"); code != http.StatusBadRequest {
			t.Errorf("bin off the base grid: %d", code)
		}
		if code, _ := get(t, ts, "/v1/trend"); code != http.StatusBadRequest {
			t.Errorf("trend without name or cause: %d", code)
		}
		// Two centuries of 1-minute bins would be ~1.2e8 points allocated
		// up front: refused, naming the cap and the way out.
		code, body := get(t, ts, "/v1/trend?name=x&from=1970-01-01T00:00:00Z&to=2200-01-01T00:00:00Z")
		if code != http.StatusBadRequest || !strings.Contains(string(body), strconv.Itoa(maxTrendPoints)) ||
			!strings.Contains(string(body), "larger bin") {
			t.Errorf("unbounded trend: %d %s", code, body)
		}
		if code, body := get(t, ts, "/v1/trend?name=x&bin=24h&from=1970-01-01T00:00:00Z&to=2010-01-01T00:00:00Z"); code != http.StatusOK {
			t.Errorf("forty years of daily bins: %d %s", code, body)
		}
	})

	t.Run("causes and cause trend", func(t *testing.T) {
		code, body := get(t, ts, "/v1/causes?app=bgpflap")
		if code != http.StatusOK {
			t.Fatalf("causes: %d %s", code, body)
		}
		var causes struct {
			Total  int           `json:"total"`
			Causes []browser.Row `json:"causes"`
		}
		if err := json.Unmarshal(body, &causes); err != nil {
			t.Fatal(err)
		}
		if causes.Total == 0 || len(causes.Causes) == 0 {
			t.Fatalf("no causes over a corpus with flap incidents: %s", body)
		}
		// The cause's trend over the default window must sum back to its
		// breakdown count.
		label := causes.Causes[0].Label
		code, body = get(t, ts, "/v1/trend?app=bgpflap&bin=1h&cause="+url.QueryEscape(label))
		if code != http.StatusOK {
			t.Fatalf("cause trend: %d %s", code, body)
		}
		var trend struct {
			Points []browser.TrendPoint `json:"points"`
		}
		if err := json.Unmarshal(body, &trend); err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, p := range trend.Points {
			sum += p.Count
		}
		if sum != causes.Causes[0].Count {
			t.Errorf("cause %q trend sums to %d, breakdown counts %d", label, sum, causes.Causes[0].Count)
		}
	})

	t.Run("drilldown", func(t *testing.T) {
		code, body := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: "bgpflap", All: true})
		if code != http.StatusOK {
			t.Fatalf("diagnose: %d %s", code, body)
		}
		var all DiagnoseResponse
		if err := json.Unmarshal(body, &all); err != nil {
			t.Fatal(err)
		}
		if len(all.Diagnoses) == 0 {
			t.Fatal("no diagnoses to drill into")
		}
		want := all.Diagnoses[0]
		code, body = get(t, ts, "/v1/drilldown/"+strconv.Itoa(want.Symptom.ID))
		if code != http.StatusOK {
			t.Fatalf("drilldown: %d %s", code, body)
		}
		var dd struct {
			App       string          `json:"app"`
			Diagnosis DiagnosisJSON   `json:"diagnosis"`
			Trace     json.RawMessage `json:"trace"`
			Colocated []EventJSON     `json:"colocated"`
		}
		if err := json.Unmarshal(body, &dd); err != nil {
			t.Fatal(err)
		}
		if dd.App != "bgpflap" {
			t.Errorf("inferred app = %q, want bgpflap", dd.App)
		}
		if dd.Diagnosis.Label != want.Label {
			t.Errorf("drilldown label %q != diagnose label %q", dd.Diagnosis.Label, want.Label)
		}
		if string(dd.Trace) == "null" || len(dd.Trace) == 0 {
			t.Error("drilldown carries no trace (traced engine not used?)")
		}
		if code, _ = get(t, ts, "/v1/drilldown/99999999"); code != http.StatusNotFound {
			t.Errorf("unknown id: %d", code)
		}
		if code, _ = get(t, ts, "/v1/drilldown/banana"); code != http.StatusBadRequest {
			t.Errorf("non-numeric id: %d", code)
		}
	})

	t.Run("stream and recent", func(t *testing.T) {
		// A live SSE client subscribed before the diagnosis arrives.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream: %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("stream content-type = %q", ct)
		}
		lines := make(chan string, 16)
		go func() {
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "data: ") {
					lines <- strings.TrimPrefix(sc.Text(), "data: ")
				}
			}
			close(lines)
		}()
		for i := 0; subscribers(s.hub) == 0 && i < 500; i++ {
			time.Sleep(10 * time.Millisecond)
		}
		if subscribers(s.hub) == 0 {
			t.Fatal("stream client never subscribed")
		}

		// One event batch that streams exactly one diagnosis (the tick
		// pushes the symptom past its grace window).
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

		var live StreamDiagnosisJSON
		select {
		case data, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before delivering a diagnosis")
			}
			if err := json.Unmarshal([]byte(data), &live); err != nil {
				t.Fatalf("stream frame %q: %v", data, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("no SSE diagnosis within 20s of the triggering ingest")
		}
		if live.Seq < 1 || live.App != "bgpflap" {
			t.Fatalf("streamed diagnosis = seq %d app %q", live.Seq, live.App)
		}
		cancel()

		// The ring agrees: /v1/recent returns the same diagnosis, and a
		// replay catch-up stream re-serves it.
		code, body = get(t, ts, "/v1/recent")
		if code != http.StatusOK {
			t.Fatalf("recent: %d %s", code, body)
		}
		var recent struct {
			LastSeq   int64                 `json:"last_seq"`
			Diagnoses []StreamDiagnosisJSON `json:"diagnoses"`
		}
		if err := json.Unmarshal(body, &recent); err != nil {
			t.Fatal(err)
		}
		if recent.LastSeq < live.Seq || len(recent.Diagnoses) == 0 {
			t.Fatalf("recent = last_seq %d, %d diagnoses", recent.LastSeq, len(recent.Diagnoses))
		}
		found := false
		for _, e := range recent.Diagnoses {
			if e.Seq == live.Seq {
				found = true
				a, _ := json.Marshal(e)
				bb, _ := json.Marshal(live)
				if !bytes.Equal(a, bb) {
					t.Error("recent entry differs from the streamed frame")
				}
			}
		}
		if !found {
			t.Errorf("seq %d not in /v1/recent", live.Seq)
		}
	})

	// Rollup determinism across restart: the browser answers byte-
	// identically after a graceful reopen and after a crash that forces
	// the WAL to be rebuilt from the ingest journal.
	bdBefore := map[string][]byte{}
	for _, app := range []string{"bgpflap", "cdn"} {
		_, body := get(t, ts, "/v1/breakdown?app="+app)
		bdBefore[app] = body
	}
	_, trendBefore := get(t, ts, "/v1/trend?name="+url.QueryEscape(event.EBGPFlap))
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, crash := range []bool{false, true} {
		if crash {
			removeCheckpoints(t, dir)
		}
		s2 := openServer(t, dir, b)
		ts2 := httptest.NewServer(s2.Handler())
		for _, app := range []string{"bgpflap", "cdn"} {
			if _, body := get(t, ts2, "/v1/breakdown?app="+app); !bytes.Equal(body, bdBefore[app]) {
				t.Errorf("crash=%v: %s breakdown changed across restart\n got %s\nwant %s",
					crash, app, body, bdBefore[app])
			}
		}
		if _, body := get(t, ts2, "/v1/trend?name="+url.QueryEscape(event.EBGPFlap)); !bytes.Equal(body, trendBefore) {
			t.Errorf("crash=%v: trend changed across restart", crash)
		}
		ts2.Close()
		if err := s2.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSSESlowConsumerEviction: a subscriber that stops reading is evicted
// by publish (channel closed) instead of blocking the publisher; healthy
// clients keep receiving.
func TestSSESlowConsumerEviction(t *testing.T) {
	h := newSSEHub()
	slow, _ := h.subscribe(-1, -1)
	if subscribers(h) != 1 {
		t.Fatal("hub inactive with a subscriber")
	}
	done := make(chan struct{})
	go func() { // must never block, no matter how far behind slow is
		for i := 1; i <= sseClientBuf+10; i++ {
			h.publish("app", engine.Diagnosis{})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publish blocked on a slow consumer")
	}

	got := 0
	for range slow.ch { // closed by the eviction
		got++
	}
	if got != sseClientBuf {
		t.Errorf("slow client buffered %d frames, want %d", got, sseClientBuf)
	}
	if subscribers(h) != 0 {
		t.Error("evicted client still counted as subscribed")
	}
	h.unsubscribe(slow) // the handler's deferred detach: must not double-close

	fresh, backlog := h.subscribe(-1, -1)
	if len(backlog) != 0 {
		t.Errorf("a live-only client was handed %d ring entries", len(backlog))
	}
	h.publish("app", engine.Diagnosis{})
	select {
	case m := <-fresh.ch:
		if want := int64(sseClientBuf + 11); m.seq != want {
			t.Errorf("fresh client got seq %d, want %d", m.seq, want)
		}
	default:
		t.Error("fresh client received nothing after the eviction")
	}
	h.unsubscribe(fresh)
}

// subscribers counts the hub's connected clients.
func subscribers(h *sseHub) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.clients)
}

// TestEventsPaginationBounded: /v1/events answers in bounded pages no
// matter how large the store is — the default page, the hard cap, and the
// cursor walk.
func TestEventsPaginationBounded(t *testing.T) {
	st := store.New()
	const total = maxEventsPage + 500
	t0 := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < total; i++ {
		st.Add(event.Instance{Name: "pagetest", Start: t0.Add(time.Duration(i) * time.Second),
			End: t0.Add(time.Duration(i+1) * time.Second)})
	}
	st.Add(event.Instance{Name: "other", Start: t0, End: t0.Add(time.Second)})
	s := &Server{st: st, life: context.Background()}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type page struct {
		Events []EventJSON `json:"events"`
		More   bool        `json:"more"`
		Next   int         `json:"next"`
	}
	fetch := func(path string) page {
		t.Helper()
		code, body := get(t, ts, path)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, code, body)
		}
		var p page
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Regression: the unbounded pre-pagination response returned every
	// instance; now the default page caps it.
	p := fetch("/v1/events?name=pagetest")
	if len(p.Events) != defaultEventsPage || !p.More {
		t.Fatalf("default page = %d events, more=%v; want %d, true", len(p.Events), p.More, defaultEventsPage)
	}
	// An absurd limit is clamped to the hard cap.
	p = fetch("/v1/events?name=pagetest&limit=9999999")
	if len(p.Events) != maxEventsPage || !p.More {
		t.Fatalf("capped page = %d events, more=%v; want %d, true", len(p.Events), p.More, maxEventsPage)
	}

	// The cursor walk visits every instance exactly once, in ID order.
	seen := map[int]bool{}
	path := "/v1/events?name=pagetest&limit=4000"
	for {
		p = fetch(path)
		lastID := -1
		for _, e := range p.Events {
			if e.ID <= lastID {
				t.Fatalf("page not in ID order: %d after %d", e.ID, lastID)
			}
			lastID = e.ID
			if seen[e.ID] {
				t.Fatalf("id %d served twice", e.ID)
			}
			seen[e.ID] = true
		}
		if !p.More {
			break
		}
		path = "/v1/events?name=pagetest&limit=4000&after=" + strconv.Itoa(p.Next)
	}
	if len(seen) != total {
		t.Fatalf("cursor walk saw %d instances, want %d", len(seen), total)
	}

	if code, _ := get(t, ts, "/v1/events?name=pagetest&limit=banana"); code != http.StatusBadRequest {
		t.Errorf("bad limit: %d", code)
	}
	if code, _ := get(t, ts, "/v1/events?name=pagetest&after=-2"); code != http.StatusBadRequest {
		t.Errorf("bad after: %d", code)
	}
	// A cursor past every ID, the largest int64 included, is the walk's end.
	for _, after := range []string{strconv.Itoa(total + 1), "9223372036854775807"} {
		for _, q := range []string{"name=pagetest&", ""} {
			if p = fetch("/v1/events?" + q + "after=" + after); len(p.Events) != 0 || p.More {
				t.Errorf("after=%s (%s): %d events, more=%v; want an empty last page", after, q, len(p.Events), p.More)
			}
		}
	}
	// The summary form (no name/limit/after) is unchanged.
	code, body := get(t, ts, "/v1/events")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"names"`)) {
		t.Errorf("summary form broken: %d %s", code, body)
	}
}

// TestBreakdownAfterOutOfOrderEvents: events that arrive behind the stream
// clock — a corpus posted in store-ID order, feed by feed, so evidence
// lands after the symptoms it explains have drained — still leave
// /v1/breakdown equal to one full-evidence diagnosis of every stored
// symptom: the bytes a restart, which seeds the counts from the store,
// answers with.
func TestBreakdownAfterOutOfOrderEvents(t *testing.T) {
	d, err := simnet.Generate(simnet.Config{
		Seed: 7, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 8,
		MVPNFraction: 0.4, Duration: 6 * 24 * time.Hour,
		BGPFlapIncidents: 120, CDNIncidents: 60, PIMIncidents: 60,
		BackboneIncidents: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := platform.BundleFromDataset(d)
	sys, err := b.Assemble(platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ins []event.Instance
	sys.Store.SnapshotTo(func(int, int, int) error { return nil }, func(in *event.Instance) error { //nolint:errcheck // neither callback fails
		ins = append(ins, *in)
		return nil
	})
	dir := t.TempDir()
	s := openServer(t, dir, b)
	ts := httptest.NewServer(s.Handler())
	if code, body := post(t, ts, "/v1/finalize", struct{}{}); code != http.StatusOK {
		t.Fatalf("finalize: %d %s", code, body)
	}
	for lo := 0; lo < len(ins); lo += 200 {
		if code, body := postWire(t, ts, wire.AppendEvents(nil, ins[lo:min(lo+200, len(ins))])); code != http.StatusOK {
			t.Fatalf("ingest: %d %s", code, body)
		}
	}
	breakdowns := func(ts *httptest.Server) string {
		var all strings.Builder
		for _, a := range apps.All() {
			code, body := get(t, ts, "/v1/breakdown?app="+a.Name)
			if code != http.StatusOK {
				t.Fatalf("%s: %d %s", a.Name, code, body)
			}
			all.Write(body)
		}
		return all.String()
	}
	live := breakdowns(ts)
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2 := openServer(t, dir, b)
	ts2 := httptest.NewServer(s2.Handler())
	defer s2.Shutdown(context.Background()) //nolint:errcheck // test teardown
	defer ts2.Close()
	if rebooted := breakdowns(ts2); rebooted != live {
		t.Fatalf("the live breakdown kept labels diagnosed before their evidence arrived\n live %s\nreboot %s", live, rebooted)
	}
}
