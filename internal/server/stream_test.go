package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"grca/internal/apps"
	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/platform"
	"grca/internal/simnet"
	"grca/internal/wire"
)

// streamed is one diagnosis as the observer hands it to the hub.
type streamed struct {
	app string
	d   engine.Diagnosis
}

// bundleDiagnoses diagnoses every root symptom of the test bundle with
// the bgpflap and cdn engines: what the stream carries for that corpus.
func bundleDiagnoses(tb testing.TB) []streamed {
	tb.Helper()
	d, _ := testBundle(tb)
	sys, err := platform.FromDataset(d, platform.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	var out []streamed
	for _, app := range []string{"bgpflap", "cdn"} {
		eng, err := apps.MustGet(app).NewEngine(sys.Store, sys.View)
		if err != nil {
			tb.Fatal(err)
		}
		for _, dg := range eng.DiagnoseAll() {
			out = append(out, streamed{app, dg})
		}
	}
	if len(out) == 0 {
		tb.Fatal("the test bundle diagnosed nothing")
	}
	return out
}

// craftedDiagnoses put what JSON escapes — HTML metacharacters, quotes,
// backslashes, U+2028/U+2029, control bytes — and non-ASCII text in every
// string the stream renders: names, loci, attributes, causes, chains,
// rules, warnings and the app.
func craftedDiagnoses() []streamed {
	at := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	nasty := []string{
		`<script>alert("x")</script> & \back\slash`,
		"line\u2028sep\u2029para",
		"Zürich–東京 ✓ 🛰",
		"tab\tnewline\nbell\x07 del\x7f",
	}
	var out []streamed
	for i, s := range nasty {
		loc := locus.Location{Type: locus.Router, A: s, B: s}
		sym := &event.Instance{ID: 100 + i, Name: "symptom " + s, Start: at, End: at.Add(time.Minute),
			Loc: loc, Attrs: event.NewAttrs(map[string]string{s: s, "k": "<v>"})}
		cause := &event.Instance{ID: 200 + i, Name: s, Start: at.Add(-time.Minute), End: at,
			Loc: loc, Attrs: event.NewAttrs(map[string]string{"why": s})}
		rule := dgraph.Rule{Symptom: sym.Name, Diagnostic: s, Priority: 7}
		out = append(out, streamed{app: "app " + s, d: engine.Diagnosis{
			Symptom:  sym,
			Root:     &engine.Node{Event: sym.Name, Instance: sym, Children: []*engine.Node{{Event: s, Instance: cause, Rule: rule}}},
			Causes:   []engine.Cause{{Event: s, Instances: []*event.Instance{cause}, Priority: 7, Chain: []string{sym.Name, s}}},
			Warnings: []string{s},
		}})
	}
	// And one Unknown: no causes, no attributes.
	sym := &event.Instance{ID: 300, Name: "lonely <symptom>", Start: at, End: at, Loc: locus.Location{Type: locus.Router, A: "r&1"}}
	out = append(out, streamed{app: "bgpflap", d: engine.Diagnosis{Symptom: sym, Root: &engine.Node{Event: sym.Name, Instance: sym}}})
	return out
}

// oracleObject is the stream's object for x at seq, built as the stream
// built it before the hub rendered its own.
func oracleObject(seq int64, x streamed) StreamDiagnosisJSON {
	dj := diagnosisJSON(x.d)
	dj.App = x.app
	return StreamDiagnosisJSON{Seq: seq, DiagnosisJSON: dj}
}

// oracleFrame is the SSE frame for x at seq: json.Marshal of its object
// inside fmt.Sprintf's frame.
func oracleFrame(tb testing.TB, seq int64, x streamed) []byte {
	tb.Helper()
	body, err := json.Marshal(oracleObject(seq, x))
	if err != nil {
		tb.Fatal(err)
	}
	return []byte(fmt.Sprintf("id: %d\nevent: diagnosis\ndata: %s\n\n", seq, body))
}

// oracleRecent is writeJSON's /v1/recent response for xs, which sit at
// sequence numbers first, first+1, …, with last the newest.
func oracleRecent(first int64, xs []streamed, last int64) *httptest.ResponseRecorder {
	out := []StreamDiagnosisJSON{}
	for i, x := range xs {
		out = append(out, oracleObject(first+int64(i), x))
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"last_seq": last, "diagnoses": out})
	return rec
}

// hubServer is a Server with a fresh hub and nothing else: all that
// /v1/stream and /v1/recent read.
func hubServer() *Server {
	return &Server{hub: newSSEHub(), life: context.Background()}
}

// streamServer serves a hubServer over HTTP.
func streamServer(tb testing.TB) (*Server, *httptest.Server) {
	s := hubServer()
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts
}

// openStream opens an SSE stream. The handler flushes its headers only
// after it has subscribed and written its catch-up, so once this returns
// everything published is delivered live.
func openStream(t *testing.T, ts *httptest.Server, path string) io.ReadCloser {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d", path, resp.StatusCode)
	}
	return resp.Body
}

// readN reads exactly n bytes of a stream.
func readN(t *testing.T, r io.Reader, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatalf("reading %d stream bytes: %v", n, err)
	}
	return buf
}

// TestStreamBytesMatchOracle: every byte /v1/stream and /v1/recent serve
// is the byte the reflective rendering (json.Marshal, an fmt.Sprintf
// frame, writeJSON of the envelope) produces, for the test bundle's
// diagnoses and for crafted ones full of characters JSON escapes.
func TestStreamBytesMatchOracle(t *testing.T) {
	xs := append(bundleDiagnoses(t), craftedDiagnoses()...)
	if len(xs) > sseClientBuf {
		t.Fatalf("%d diagnoses overflow a live client's buffer", len(xs))
	}
	// The oracle renders from the diagnoses, which the hub drops once it
	// has rendered an entry.
	frames := make([][]byte, len(xs))
	var all []byte
	for i, x := range xs {
		frames[i] = oracleFrame(t, int64(i+1), x)
		all = append(all, frames[i]...)
	}
	last := int64(len(xs))
	s, ts := streamServer(t)

	checkRecent := func(path string, want *httptest.ResponseRecorder) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want.Code || resp.Header.Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%s: %d %q, want %d %q", path, resp.StatusCode, resp.Header.Get("Content-Type"),
				want.Code, want.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got, want.Body.Bytes()) {
			t.Errorf("%s:\n got %q\nwant %q", path, got, want.Body.Bytes())
		}
	}

	t.Run("empty ring", func(t *testing.T) {
		checkRecent("/v1/recent", oracleRecent(1, nil, 0))
		checkRecent("/v1/recent?limit=1", oracleRecent(1, nil, 0))
	})

	t.Run("live", func(t *testing.T) {
		body := openStream(t, ts, "/v1/stream")
		defer body.Close()
		for _, x := range xs {
			s.hub.publish(x.app, x.d)
		}
		if got := readN(t, body, len(all)); !bytes.Equal(got, all) {
			t.Errorf("live frames:\n got %q\nwant %q", got, all)
		}
	})

	t.Run("catch-up", func(t *testing.T) {
		for _, c := range []struct {
			path string
			want []byte
		}{
			{"/v1/stream?after=0", all},
			{fmt.Sprintf("/v1/stream?after=%d", last-2), bytes.Join(frames[len(frames)-2:], nil)},
			{"/v1/stream?replay=3", bytes.Join(frames[len(frames)-3:], nil)},
			{"/v1/stream?replay=100000", all},
		} {
			body := openStream(t, ts, c.path)
			if got := readN(t, body, len(c.want)); !bytes.Equal(got, c.want) {
				t.Errorf("%s:\n got %q\nwant %q", c.path, got, c.want)
			}
			body.Close()
		}
	})

	t.Run("recent", func(t *testing.T) {
		checkRecent("/v1/recent?limit=1", oracleRecent(1, xs[:1], last))
		checkRecent("/v1/recent?limit=50", oracleRecent(1, xs[:min(50, len(xs))], last))
		checkRecent("/v1/recent", oracleRecent(1, xs[:min(50, len(xs))], last))
		checkRecent(fmt.Sprintf("/v1/recent?after=%d", last-3), oracleRecent(last-2, xs[len(xs)-3:], last))
		checkRecent(fmt.Sprintf("/v1/recent?after=%d", last), oracleRecent(1, nil, last))
	})
}

// TestRecentRing: the hub keeps the newest streamRingSize diagnoses, oldest
// first; since filters by sequence and honours the limit across the ring's
// wrap-around, and subscribe hands a client the catch-up it asked for.
func TestRecentRing(t *testing.T) {
	h := newSSEHub()
	seqs := func(es []*streamEntry) []int64 {
		out := []int64{}
		for _, e := range es {
			out = append(out, e.seq)
		}
		return out
	}
	span := func(from, to int64) []int64 {
		out := []int64{}
		for s := from; s <= to; s++ {
			out = append(out, s)
		}
		return out
	}
	check := func(what string, got []*streamEntry, want []int64) {
		t.Helper()
		if g := seqs(got); fmt.Sprint(g) != fmt.Sprint(want) {
			t.Errorf("%s = %v, want %v", what, g, want)
		}
	}
	if es, last := h.since(0, 0); len(es) != 0 || last != 0 {
		t.Fatalf("empty hub: %d entries, last %d", len(es), last)
	}

	const n = streamRingSize + 44 // wraps the ring
	for i := 1; i <= n; i++ {
		h.publish(fmt.Sprint("app", i), engine.Diagnosis{})
		if i == 10 {
			es, last := h.since(0, 0)
			check("before the wrap, since(0, 0)", es, span(1, 10))
			if last != 10 {
				t.Errorf("last = %d, want 10", last)
			}
		}
	}
	es, last := h.since(0, 0)
	if last != n {
		t.Errorf("last = %d, want %d", last, n)
	}
	check("since(0, 0)", es, span(n-streamRingSize+1, n))
	for _, e := range es {
		if want := fmt.Sprint("app", e.seq); e.app != want {
			t.Errorf("entry %d holds app %q, want %q", e.seq, e.app, want)
		}
	}
	es, _ = h.since(n-2, 0)
	check("since(n-2, 0)", es, span(n-1, n))
	es, _ = h.since(0, 2)
	check("since(0, 2)", es, span(n-streamRingSize+1, n-streamRingSize+2))
	es, _ = h.since(n-10, 3)
	check("since(n-10, 3)", es, span(n-9, n-7))
	es, _ = h.since(n, 0)
	check("since(n, 0)", es, span(1, 0))
	es, _ = h.since(1<<62, 1<<62)
	check("since(huge, huge)", es, span(1, 0))

	c1, backlog := h.subscribe(-1, 5)
	check("replay 5", backlog, span(n-4, n))
	c2, backlog := h.subscribe(7, -1)
	check("after an evicted seq", backlog, span(n-streamRingSize+1, n))
	c3, backlog := h.subscribe(-1, -1)
	check("live only", backlog, span(1, 0))
	for _, c := range []*sseClient{c1, c2, c3} {
		h.unsubscribe(c)
	}
}

// TestStreamRendersOnce: publishing renders nothing, and two /v1/recent
// polls and an SSE replay, run at once over the same entries, render each
// entry once (server.stream.rendered) and serve the same bytes. On a
// server, where the ingest ack is every entry's first reader, an SSE
// replay and a /v1/recent read of every streamed diagnosis render
// nothing more: rendered equals the diagnoses streamed.
func TestStreamRendersOnce(t *testing.T) {
	xs := craftedDiagnoses()
	var all []byte
	for i, x := range xs {
		all = append(all, oracleFrame(t, int64(i+1), x)...)
	}
	s, ts := streamServer(t)
	before := mStreamRendered.Value()
	for _, x := range xs {
		s.hub.publish(x.app, x.d)
	}
	if got := mStreamRendered.Value() - before; got != 0 {
		t.Fatalf("publish rendered %d entries", got)
	}

	var wg sync.WaitGroup
	polls := make([][]byte, 2)
	for i := range polls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/recent")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			polls[i], err = io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	body := openStream(t, ts, "/v1/stream?after=0")
	got := readN(t, body, len(all))
	body.Close()
	wg.Wait()

	if !bytes.Equal(got, all) {
		t.Errorf("replay:\n got %q\nwant %q", got, all)
	}
	if !bytes.Equal(polls[0], polls[1]) {
		t.Errorf("two polls of one ring differ:\n%s\n%s", polls[0], polls[1])
	}
	if got := mStreamRendered.Value() - before; got != int64(len(xs)) {
		t.Errorf("rendered %d times for %d entries", got, len(xs))
	}

	t.Run("ack first", func(t *testing.T) {
		b, ins := corpusEvents(t, simnet.Config{
			Seed: 7, PoPs: 2, PERsPerPoP: 2, SessionsPerPER: 4,
			Duration: 2 * 24 * time.Hour, BGPFlapIncidents: 40,
		}, true)
		_, ts := finalizedServer(t, b)
		before := mStreamRendered.Value()
		streamed := 0
		for lo := 0; lo < len(ins); lo += 50 {
			code, body := postWire(t, ts, wire.AppendEvents(nil, ins[lo:min(lo+50, len(ins))]))
			var ack IngestResponse
			if err := json.Unmarshal(body, &ack); code != http.StatusOK || err != nil {
				t.Fatalf("ingest: %d %s", code, body)
			}
			streamed += len(ack.Diagnoses)
		}
		if streamed == 0 || streamed > streamRingSize {
			t.Fatalf("%d diagnoses streamed; want some, all in the ring", streamed)
		}
		if got := mStreamRendered.Value() - before; got != int64(streamed) {
			t.Fatalf("the acks rendered %d entries for %d diagnoses", got, streamed)
		}

		stream := openStream(t, ts, "/v1/stream?after=0")
		defer stream.Close()
		sse := bufio.NewReader(stream)
		for frames := 0; frames < streamed; {
			line, err := sse.ReadString('\n')
			if err != nil {
				t.Fatalf("after %d of %d frames: %v", frames, streamed, err)
			}
			if line == "event: diagnosis\n" {
				frames++
			}
		}
		code, body := get(t, ts, fmt.Sprintf("/v1/recent?limit=%d", streamRingSize))
		var recent struct {
			Diagnoses []StreamDiagnosisJSON `json:"diagnoses"`
		}
		if err := json.Unmarshal(body, &recent); code != http.StatusOK || err != nil || len(recent.Diagnoses) != streamed {
			t.Fatalf("recent: %d, %d diagnoses (%v); want %d", code, len(recent.Diagnoses), err, streamed)
		}
		if got := mStreamRendered.Value() - before; got != int64(streamed) {
			t.Errorf("rendered %d times for %d diagnoses streamed", got, streamed)
		}
	})
}

var recentSink []byte

// BenchmarkRecent prices one GET /v1/recent?limit=50 poll through the
// handler over a full ring of the test bundle's diagnoses. Each entry is
// rendered by the first poll that returns it, so the loop carries that
// first render too.
func BenchmarkRecent(b *testing.B) {
	xs := bundleDiagnoses(b)
	s := hubServer()
	for i := 0; i < streamRingSize; i++ {
		x := xs[i%len(xs)]
		s.hub.publish(x.app, x.d)
	}
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/recent?limit=50", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("recent: %d %s", rec.Code, rec.Body.Bytes())
		}
		recentSink = rec.Body.Bytes()
	}
}
