package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/wal"
	"grca/internal/wire"
)

func postWire(t *testing.T, ts *httptest.Server, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/ingest", wire.ContentType, bytes.NewReader(body))
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

// journalRecords returns the records of one journal file, in order.
func journalRecords(t *testing.T, path string) [][]byte {
	t.Helper()
	var recs [][]byte
	if _, err := wal.ScanJournal(path, func(p []byte) error {
		recs = append(recs, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// activeRecords returns how many records the journal's active tail
// segment under dir holds behind its header.
func activeRecords(t *testing.T, dir string) int {
	t.Helper()
	tail := journalTailPaths(dir)
	if len(tail) == 0 {
		t.Fatalf("%s has no tail segment", dir)
	}
	return len(journalRecords(t, tail[len(tail)-1])) - 1
}

// lastJournalRecord returns the last record journaled under dir.
func lastJournalRecord(t *testing.T, dir string) []byte {
	t.Helper()
	paths, _ := journalFiles(t, dir)
	recs := journalRecords(t, paths[len(paths)-1])
	return recs[len(recs)-1]
}

// TestWireIngestParity is the wire format's defining contract: a server
// fed the whole corpus as binary wire batches must be byte-identical —
// store digest and diagnosis JSON — to a server fed the same corpus as
// JSON. Both run the collector's one parser, so any difference is the
// encoding's.
func TestWireIngestParity(t *testing.T) {
	_, b := testBundle(t)

	refDir, wireDir := t.TempDir(), t.TempDir()
	ref := openServer(t, refDir, b)
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	wired := openServer(t, wireDir, b)
	wireTS := httptest.NewServer(wired.Handler())
	defer wireTS.Close()

	// Reference: JSON feeds. The other: binary feed batches.
	loadAndFinalize(t, refTS, b)
	for _, src := range feedOrder {
		feed, ok := b.Feeds[src]
		if !ok {
			continue
		}
		code, body := postWire(t, wireTS, wire.AppendFeed(nil, src, feed))
		if code != http.StatusOK {
			t.Fatalf("wire ingest %s: %d %s", src, code, body)
		}
	}
	if code, body := post(t, wireTS, "/v1/finalize", struct{}{}); code != http.StatusOK {
		t.Fatalf("finalize: %d %s", code, body)
	}
	// The feed phase journals to the same bytes either way: every feed one
	// DEFLATE record of its lines, then the finalize record.
	refHead, wireHead := journalRecords(t, journalPath(refDir)), journalRecords(t, journalPath(wireDir))
	if len(refHead) != len(wireHead) {
		t.Fatalf("journal.log holds %d records after json feeds, %d after wire feeds", len(refHead), len(wireHead))
	}
	for i := range refHead {
		if !bytes.Equal(refHead[i], wireHead[i]) {
			t.Fatalf("journal.log record %d is %x after the json feeds, %x after the wire feeds", i, refHead[i], wireHead[i])
		}
		if r, err := wal.ParseJournalRecord(refHead[i]); err != nil || (r.Kind != wal.JournalFeedKind && i < len(refHead)-1) {
			t.Fatalf("journal.log record %d is kind %d (%v), want a feed as %d", i, r.Kind, err, wal.JournalFeedKind)
		}
	}

	// Serving phase: the same normalized-event batch, JSON to one server
	// and binary to the other.
	at := b.Start.Add(b.Duration).Add(time.Hour)
	evs := []EventJSON{
		{Name: event.EBGPFlap, Start: at, End: at.Add(time.Minute),
			Loc: LocationJSON{Type: "router:neighbor", A: "pop00-per1", B: "10.99.0.1"}},
		{Name: "synthetic tick", Start: at.Add(48 * time.Hour), End: at.Add(48 * time.Hour),
			Loc: LocationJSON{Type: "router", A: "pop00-per1"}, Attrs: map[string]string{"b": "1", "a": "2"}},
	}
	ins, err := decodeEvents(evs)
	if err != nil {
		t.Fatal(err)
	}
	code, body := post(t, refTS, "/v1/ingest", IngestRequest{Events: evs})
	if code != http.StatusOK {
		t.Fatalf("json event ingest: %d %s", code, body)
	}
	var refResp IngestResponse
	if err := json.Unmarshal(body, &refResp); err != nil {
		t.Fatal(err)
	}
	code, body = postWire(t, wireTS, wire.AppendEvents(nil, ins))
	if code != http.StatusOK {
		t.Fatalf("wire event ingest: %d %s", code, body)
	}
	var wireResp IngestResponse
	if err := json.Unmarshal(body, &wireResp); err != nil {
		t.Fatal(err)
	}
	if wireResp.Stored != refResp.Stored || wireResp.Late != refResp.Late ||
		len(wireResp.Diagnoses) != len(refResp.Diagnoses) {
		t.Fatalf("wire ingest response %+v, json reference %+v", wireResp, refResp)
	}
	// One writer: the batch journals to the same record whichever encoding
	// carried it — one event block, at the same sequence.
	refRec, wireRec := lastJournalRecord(t, refDir), lastJournalRecord(t, wireDir)
	if !bytes.Equal(refRec, wireRec) {
		t.Fatalf("the json batch journaled as %x, the wire batch as %x", refRec, wireRec)
	}
	if r, err := wal.ParseJournalRecord(refRec); err != nil || r.Kind != wal.JournalEventKind {
		t.Fatalf("the event batch journaled as kind %d (%v), want %d", r.Kind, err, wal.JournalEventKind)
	}

	if got, want := wal.StoreDigest(wired.Store()), wal.StoreDigest(ref.Store()); got != want {
		t.Fatalf("wire store digest differs from json (%d vs %d events)",
			wired.Store().Len(), ref.Store().Len())
	}
	for _, app := range []string{"bgpflap", "cdn"} {
		_, refBody := post(t, refTS, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
		_, wireBody := post(t, wireTS, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
		if !bytes.Equal(refBody, wireBody) {
			t.Fatalf("%s: diagnosis bytes differ between wire and json", app)
		}
	}

	// Restart the wire-fed server: journal replay re-parses the feed lines
	// and decodes the event block, so the recovered digest must not move.
	want := wal.StoreDigest(wired.Store())
	wireTS.Close()
	if err := wired.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	wire2 := openServer(t, wireDir, b)
	defer wire2.Shutdown(context.Background()) //nolint:errcheck // test teardown
	if got := wal.StoreDigest(wire2.Store()); got != want {
		t.Fatal("restart after wire ingest changed the store digest")
	}
	if !wire2.Recovery().Finalized {
		t.Fatal("restart lost the finalize marker")
	}
}

// TestWireIngestValidation: malformed wire bodies and unknown feed
// sources are rejected with 400, and oversized bodies with 413, before
// being journaled.
func TestWireIngestValidation(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	s := openServer(t, dir, b)
	ts := httptest.NewServer(s.Handler())

	if code, _ := postWire(t, ts, []byte("not a wire batch")); code != http.StatusBadRequest {
		t.Fatalf("garbage wire body: %d, want 400", code)
	}
	if code, _ := postWire(t, ts, wire.AppendFeed(nil, "nonsense", "x")); code != http.StatusBadRequest {
		t.Fatalf("unknown wire source: %d, want 400", code)
	}
	truncated := wire.AppendEvents(nil, []event.Instance{})
	if code, _ := postWire(t, ts, truncated[:len(truncated)-1]); code != http.StatusBadRequest {
		t.Fatalf("truncated wire body: %d, want 400", code)
	}
	// An empty-but-well-formed event batch must be rejected like the JSON
	// path rejects it — dispatching it used to panic on routes[0] under
	// dispatchMu and wedge the whole write path (Shutdown below would
	// hang).
	if code, _ := postWire(t, ts, wire.AppendEvents(nil, nil)); code != http.StatusBadRequest {
		t.Fatalf("empty wire event batch: %d, want 400", code)
	}
	// An instant past 2262-04-11 has no int64-nanosecond form, which is how
	// the journal and the WAL write it: stored, it would replay as 1715.
	// JSON refuses it in event.Instance.Check's words.
	late := time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
	beyond := EventJSON{Name: "x", Start: late, End: late, Loc: LocationJSON{Type: "router", A: "r1"}}
	want := `event "x": ` + event.ErrTimeRange.Error()
	code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: []EventJSON{beyond}})
	var ej ErrorJSON
	if err := json.Unmarshal(body, &ej); code != http.StatusBadRequest || err != nil || ej.Error != want {
		t.Fatalf("json event at %v: %d %s, want 400 %q", late, code, body, want)
	}
	// The wire's event block has no form for such an instant (nor for the
	// zero time): the encoder writes the event as one that ends before it
	// starts, and the server refuses the batch. Every event the block can
	// carry is held to the same Check as JSON's.
	at := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	r1 := locus.At(locus.Router, "r1")
	for name, in := range map[string]event.Instance{
		"zero start":         {Name: "x", End: at, Loc: r1},
		"zero end":           {Name: "x", Start: at, Loc: r1},
		"before MinTime":     {Name: "x", Start: event.MinTime.Add(-time.Second), End: at, Loc: r1},
		"after MaxTime":      {Name: "x", Start: at, End: late, Loc: r1},
		"unknown locus type": {Name: "x", Start: at, End: at, Loc: locus.Location{Type: 200, A: "r1"}},
		"blank name":         {Name: " ", Start: at, End: at, Loc: r1},
	} {
		ok := event.Instance{Name: "ok", Start: at, End: at, Loc: r1}
		if code, body := postWire(t, ts, wire.AppendEvents(nil, []event.Instance{ok, in})); code != http.StatusBadRequest {
			t.Fatalf("wire batch with an event of %s: %d %s, want 400", name, code, body)
		}
	}
	// A version 1 batch is refused by name.
	v1 := wire.AppendEvents(nil, []event.Instance{{Name: "ok", Start: at, End: at, Loc: r1}})
	v1[4] = 1
	code, body = postWire(t, ts, v1)
	if err := json.Unmarshal(body, &ej); code != http.StatusBadRequest || err != nil || ej.Error != "wire: unsupported version 1" {
		t.Fatalf("version 1 wire batch: %d %s, want 400 naming the version", code, body)
	}
	// A body over the cap is not a malformed one: 413, naming the cap, in
	// either encoding (JSON whitespace keeps the decoder reading into it).
	oversized := bytes.Repeat([]byte(" "), maxBody+1)
	for _, ct := range []string{"application/json", wire.ContentType} {
		resp, err := http.Post(ts.URL+"/v1/ingest", ct, bytes.NewReader(oversized))
		if err != nil {
			t.Fatal(err)
		}
		var ej ErrorJSON
		err = json.NewDecoder(resp.Body).Decode(&ej)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || !strings.Contains(ej.Error, strconv.Itoa(maxBody)) {
			t.Fatalf("%s body of %d bytes: %d %q (%v), want a 413 naming the %d-byte cap", ct, len(oversized), resp.StatusCode, ej.Error, err, maxBody)
		}
	}
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// None of the rejections may have reached the journal.
	s2 := openServer(t, dir, b)
	defer s2.Shutdown(context.Background()) //nolint:errcheck // test teardown
	if n := s2.Recovery().Batches; n != 0 {
		t.Fatalf("rejected batches were journaled: recovered %d", n)
	}
}

// TestEventJSONAttrsCanonical: the JSON path packs the attribute set the
// wire path packs — a duplicated key's last value wins, order does not
// matter, `"attrs": {}` is an absent one — and renders it back sorted,
// omitted when empty.
func TestEventJSONAttrsCanonical(t *testing.T) {
	const head = `{"name":"x","start":"2010-01-01T00:00:00Z","end":"2010-01-01T00:00:00Z","loc":{"type":"router","a":"r1"}`
	parse := func(tail string) event.Instance {
		t.Helper()
		var e EventJSON
		if err := json.Unmarshal([]byte(head+tail), &e); err != nil {
			t.Fatal(err)
		}
		in, err := e.instance()
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	with := parse(`,"attrs":{"b":"1","a":"2","b":"3"}}`)
	if want := event.NewAttrs(map[string]string{"a": "2", "b": "3"}); with.Attrs != want {
		t.Errorf("attrs %v, want %v", with.Attrs.Map(), want.Map())
	}
	viaWire, err := wire.Decode(wire.AppendEvents(nil, []event.Instance{with}))
	if err != nil || viaWire.Events[0].Attrs != with.Attrs {
		t.Errorf("over the wire the attributes became %+v (%v)", viaWire.Events, err)
	}
	if out, _ := json.Marshal(eventJSON(&with)); string(out) != head+`,"attrs":{"a":"2","b":"3"}}` {
		t.Errorf("rendered %s", out)
	}
	none := parse(`}`)
	if empty := parse(`,"attrs":{}}`); empty.Attrs != none.Attrs || none.Attrs != (event.Attrs{}) {
		t.Errorf(`"attrs": {} gave %+v, an absent one %+v`, empty.Attrs, none.Attrs)
	}
	if out, _ := json.Marshal(eventJSON(&none)); string(out) != head+`}` {
		t.Errorf("rendered %s", out)
	}
}
