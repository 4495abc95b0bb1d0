package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/platform"
	"grca/internal/store"
	"grca/internal/wal"
	"grca/internal/wire"
)

// lifecycleOutcome captures everything externally observable about one
// complete life of the service: every ingest response body in order,
// the merged store digest, and the query surfaces the Result Browser
// and the diagnosis API serve.
type lifecycleOutcome struct {
	ingest    [][]byte
	digest    string
	events    int
	diagnose  map[string][]byte
	breakdown map[string][]byte
}

// lifecycleBatches builds the post-finalize event stream the harness
// replays identically against every shard count: EBGPFlap symptoms on
// real PERs interleaved with synthetic ticks on unknown routers, all
// spread across shards by the hash of their locations, so every batch
// exercises the cross-shard split and the streaming-diagnosis path.
func lifecycleBatches(b platform.Bundle) [][]EventJSON {
	at := b.Start.Add(b.Duration).Add(time.Hour)
	var batches [][]EventJSON
	for i := 0; i < 6; i++ {
		t0 := at.Add(time.Duration(i) * 10 * time.Minute)
		var evs []EventJSON
		evs = append(evs, EventJSON{
			Name: event.EBGPFlap, Start: t0, End: t0.Add(time.Minute),
			Loc: LocationJSON{Type: "router:neighbor",
				A: fmt.Sprintf("pop%02d-per%d", i%2, 1+i%2), B: fmt.Sprintf("10.99.%d.1", i)},
		})
		for j := 0; j < 8; j++ {
			evs = append(evs, EventJSON{
				Name: "synthetic tick", Start: t0.Add(time.Second), End: t0.Add(time.Second),
				Loc: LocationJSON{Type: "router", A: fmt.Sprintf("load-r%d", i*8+j)},
			})
		}
		batches = append(batches, evs)
	}
	// A far-future tick drains every pending grace window so the last
	// responses carry the remaining streaming diagnoses.
	drain := at.Add(96 * time.Hour)
	batches = append(batches, []EventJSON{{
		Name: "synthetic tick", Start: drain, End: drain,
		Loc: LocationJSON{Type: "router", A: "load-r0"},
	}})
	return batches
}

// driveLifecycle runs the full service life at one shard count and
// captures the outcome. The caller owns dir (reopened by restart tests).
func driveLifecycle(t *testing.T, dir string, b platform.Bundle, shards int) lifecycleOutcome {
	t.Helper()
	s, err := Open(Config{DataDir: dir, Bundle: b, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	out := lifecycleOutcome{diagnose: map[string][]byte{}, breakdown: map[string][]byte{}}
	record := func(code int, body []byte, what string) {
		if code != http.StatusOK {
			t.Fatalf("%s (shards=%d): %d %s", what, shards, code, body)
		}
		out.ingest = append(out.ingest, body)
	}
	for _, src := range feedOrder {
		feed, ok := b.Feeds[src]
		if !ok {
			continue
		}
		code, body := post(t, ts, "/v1/ingest", IngestRequest{Source: src, Lines: feed})
		record(code, body, "feed "+src)
	}
	code, body := post(t, ts, "/v1/finalize", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("finalize (shards=%d): %d %s", shards, code, body)
	}
	for i, evs := range lifecycleBatches(b) {
		code, body := postLifecycleBatch(t, ts, i, evs)
		record(code, body, fmt.Sprintf("event batch %d", i))
	}
	for _, app := range []string{"bgpflap", "cdn", "pim", "backbone"} {
		code, body := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
		if code != http.StatusOK {
			t.Fatalf("diagnose %s (shards=%d): %d %s", app, shards, code, body)
		}
		out.diagnose[app] = body
		code, body = get(t, ts, "/v1/breakdown?app="+app)
		if code != http.StatusOK {
			t.Fatalf("breakdown %s (shards=%d): %d %s", app, shards, code, body)
		}
		out.breakdown[app] = body
	}
	out.digest = wal.StoreDigest(s.Store())
	out.events = s.Store().Len()
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	return out
}

// postLifecycleBatch posts event batch i: odd batches ride the binary
// wire format so both journaled event representations (recEvents,
// recEventsWire) are under differential test.
func postLifecycleBatch(t *testing.T, ts *httptest.Server, i int, evs []EventJSON) (int, []byte) {
	t.Helper()
	if i%2 == 0 {
		return post(t, ts, "/v1/ingest", IngestRequest{Events: evs})
	}
	ins, err := decodeEvents(evs)
	if err != nil {
		t.Fatal(err)
	}
	return postWire(t, ts, wire.AppendEvents(nil, ins))
}

// TestShardedParityDifferential is the sharded pipeline's correctness
// gate: the same corpus driven through 1, 2, and 4 shards must be
// externally indistinguishable — every ingest response byte-identical
// (streaming diagnosis lists included), the merged store digest equal,
// and the diagnose/breakdown surfaces byte-identical.
func TestShardedParityDifferential(t *testing.T) {
	_, b := testBundle(t)
	base := driveLifecycle(t, t.TempDir(), b, 1)
	if base.events == 0 {
		t.Fatal("baseline stored no events")
	}
	for _, n := range []int{2, 4} {
		got := driveLifecycle(t, t.TempDir(), b, n)
		if got.digest != base.digest {
			t.Errorf("shards=%d: merged store digest differs (%d vs %d events)",
				n, got.events, base.events)
		}
		if len(got.ingest) != len(base.ingest) {
			t.Fatalf("shards=%d: %d ingest responses, want %d", n, len(got.ingest), len(base.ingest))
		}
		for i := range base.ingest {
			if !bytes.Equal(got.ingest[i], base.ingest[i]) {
				t.Errorf("shards=%d: ingest response %d differs:\n  got  %s\n  want %s",
					n, i, got.ingest[i], base.ingest[i])
			}
		}
		for app, want := range base.diagnose {
			if !bytes.Equal(got.diagnose[app], want) {
				t.Errorf("shards=%d: diagnose %s differs", n, app)
			}
		}
		for app, want := range base.breakdown {
			if !bytes.Equal(got.breakdown[app], want) {
				t.Errorf("shards=%d: breakdown %s differs", n, app)
			}
		}
	}
}

// TestShardedRestartAndPartialWALLoss: a sharded data dir must recover
// byte-identically after a clean restart, and — the crash-point
// property — after losing any subset of its shard WALs, which the
// journal rebuilds. The digest must be stable across one more restart
// after the rebuild.
func TestShardedRestartAndPartialWALLoss(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	const shards = 3
	before := driveLifecycle(t, dir, b, shards)

	reopen := func(wantRebuilt bool, what string) string {
		t.Helper()
		s, err := Open(Config{DataDir: dir, Bundle: b, Shards: shards})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		rec := s.Recovery()
		if !rec.Finalized || rec.Shards != shards {
			t.Fatalf("%s: recovery = %+v", what, rec)
		}
		if rec.WALRebuilt != wantRebuilt {
			t.Errorf("%s: WALRebuilt = %v, want %v", what, rec.WALRebuilt, wantRebuilt)
		}
		ts := httptest.NewServer(s.Handler())
		for app, want := range before.diagnose {
			if _, got := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: app, All: true}); !bytes.Equal(got, want) {
				t.Errorf("%s: diagnose %s differs from the undisturbed run", what, app)
			}
		}
		ts.Close()
		d := wal.StoreDigest(s.Store())
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		return d
	}

	if d := reopen(false, "clean restart"); d != before.digest {
		t.Fatalf("clean restart changed the store digest")
	}
	// Lose shard WALs in growing subsets; each recovery must rebuild the
	// lost shards from the journal and land on the identical store.
	for _, lost := range [][]int{{1}, {0, 2}, {0, 1, 2}} {
		for _, i := range lost {
			for _, sub := range []string{"wal", "snap"} {
				if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("shard-%d", i), sub)); err != nil {
					t.Fatal(err)
				}
			}
		}
		what := fmt.Sprintf("lost shards %v", lost)
		if d := reopen(true, what); d != before.digest {
			t.Fatalf("%s: recovered digest differs", what)
		}
		if d := reopen(false, what+" (second restart)"); d != before.digest {
			t.Fatalf("%s: digest not stable across a second restart", what)
		}
	}

	// Intact WALs holding the wrong events: swap two shards' wal/+snap/
	// dirs, which is what a data dir written under another placement
	// function looks like to this one. Nothing is torn or missing, so only
	// the digest reconcile can notice; it must rebuild both shards from
	// the journal.
	for _, sub := range []string{"wal", "snap"} {
		a, c := filepath.Join(dir, "shard-0", sub), filepath.Join(dir, "shard-1", sub)
		tmp := a + ".swap"
		for _, mv := range [][2]string{{a, tmp}, {c, a}, {tmp, c}} {
			if err := os.Rename(mv[0], mv[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d := reopen(true, "swapped shard dirs"); d != before.digest {
		t.Fatal("swapped shard dirs: recovered digest differs")
	}
	if d := reopen(false, "swapped shard dirs (second restart)"); d != before.digest {
		t.Fatal("swapped shard dirs: digest not stable across a second restart")
	}
}

// TestShardedPlacementSpreads: the bundle's own events — the ones on
// topology locations, which a connected network's conversion lattice
// relates into one component — must spread over the commit lanes after
// finalize like any others, or -shards buys nothing for real traffic.
func TestShardedPlacementSpreads(t *testing.T) {
	d, b := testBundle(t)
	const shards = 4
	s, err := Open(Config{DataDir: t.TempDir(), Bundle: b, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background()) //nolint:errcheck // test teardown
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loadAndFinalize(t, ts, b)

	sys, err := platform.FromDataset(d, platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var evs []EventJSON
	for _, name := range sys.Store.Names() {
		for _, in := range sys.Store.All(name) {
			ej := eventJSON(in)
			ej.ID = 0
			evs = append(evs, ej)
		}
	}
	before := make([]int, shards)
	for i, sh := range s.shards {
		before[i] = sh.st.Len()
	}
	for len(evs) > 0 {
		n := min(len(evs), 500)
		if code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: evs[:n]}); code != http.StatusOK {
			t.Fatalf("event batch: %d %s", code, body)
		}
		evs = evs[n:]
	}
	total, most := 0, 0
	for i, sh := range s.shards {
		n := sh.st.Len() - before[i]
		total += n
		most = max(most, n)
	}
	if total == 0 {
		t.Fatal("no topology events were stored")
	}
	if share := float64(most) / float64(total); share > 0.6 {
		t.Errorf("one shard holds %d of %d post-finalize topology events (%.0f%%), want at most 60%%",
			most, total, 100*share)
	}
}

// TestShardedConcurrentIngest hammers a 4-shard server from parallel
// clients (retrying 429s) and checks the pipeline's accounting: the
// store grows by exactly the acknowledged events, and a restart
// recovers the identical digest — under the race detector this is also
// the concurrency soak for dispatcher, appliers, and finisher.
func TestShardedConcurrentIngest(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Bundle: b, Shards: 4, MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	loadAndFinalize(t, ts, b)
	before := s.Store().Len()

	const workers, batches, perBatch = 8, 30, 4
	at := b.Start.Add(b.Duration).Add(time.Hour)
	var acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				evs := make([]EventJSON, perBatch)
				for j := range evs {
					evs[j] = EventJSON{
						Name:  "synthetic tick",
						Start: at.Add(time.Duration(i) * time.Second),
						End:   at.Add(time.Duration(i) * time.Second),
						Loc:   LocationJSON{Type: "router", A: fmt.Sprintf("load-w%d-r%d", w, j)},
					}
				}
				data, err := json.Marshal(IngestRequest{Events: evs})
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
					acked.Add(perBatch)
					break
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := s.Store().Len()-before, int(acked.Load()); got != want {
		t.Fatalf("store grew by %d, acknowledged %d", got, want)
	}
	digest := wal.StoreDigest(s.Store())
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{DataDir: dir, Bundle: b, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := wal.StoreDigest(s2.Store()); got != digest {
		t.Fatal("restart after concurrent ingest changed the store digest")
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestShardCountPinned: a data directory refuses to reopen with a
// different shard count — event placement is a function of N.
func TestShardCountPinned(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Bundle: b, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{DataDir: dir, Bundle: b, Shards: 4}); err == nil {
		t.Fatal("reopening a 2-shard dir with 4 shards succeeded")
	}
}

// TestLegacyLayoutRefusesSharding: a pre-sharding data directory (state
// at the root, no SHARDS marker) is adopted as single-shard only.
// Opening it with more shards must refuse up front — stamping a
// multi-shard marker would silently orphan the root-level journal and
// WAL under the shard-<i>/ layout and pin the directory there.
func TestLegacyLayoutRefusesSharding(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	before := driveLifecycle(t, dir, b, 1)
	// Simulate a directory created before the marker existed.
	if err := os.Remove(filepath.Join(dir, "SHARDS")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{DataDir: dir, Bundle: b, Shards: 4}); err == nil {
		t.Fatal("opening a legacy single-shard dir with 4 shards succeeded")
	}
	// The refusal must not have stamped a marker: single-shard adoption
	// still recovers the full state.
	s, err := Open(Config{DataDir: dir, Bundle: b, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background()) //nolint:errcheck // test teardown
	if got := wal.StoreDigest(s.Store()); got != before.digest {
		t.Fatal("single-shard adoption of a legacy dir changed the store digest")
	}
}

// TestOldShardJournalsRefused: a multi-shard data directory written
// before the single journal still holds shard-<i>/journal.log. Its
// history is not in the root journal, so opening it must refuse, naming
// the files, instead of serving an empty (or partial) store.
func TestOldShardJournalsRefused(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	driveLifecycle(t, dir, b, 2)
	old := journalPath(filepath.Join(dir, "shard-1"))
	if err := os.WriteFile(old, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{DataDir: dir, Bundle: b, Shards: 2}); err == nil || !strings.Contains(err.Error(), old) {
		t.Fatalf("open over %s: err = %v, want a refusal naming it", old, err)
	}
}

// TestOffLaneZeroBatchJournaled: the journal has one appender, lane 0,
// so a batch none of whose events route there must still be journaled
// (by a journal-only sub-task) before it is acknowledged. The proof is a
// kill -9 persona: reopen without shutdown, with one involved shard's
// WAL gone, and the journal alone restores the acknowledged batch.
func TestOffLaneZeroBatchJournaled(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	const shards = 4
	s, err := Open(Config{DataDir: dir, Bundle: b, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background()) //nolint:errcheck // the "killed" instance: only reaps its goroutines
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loadAndFinalize(t, ts, b)

	at := b.Start.Add(b.Duration).Add(time.Hour)
	var evs []EventJSON
	lost := -1
	for i := 0; len(evs) < 6; i++ {
		loc := LocationJSON{Type: "router", A: fmt.Sprintf("load-r%d", i)}
		in, err := EventJSON{Name: "synthetic tick", Start: at, End: at, Loc: loc}.instance()
		if err != nil {
			t.Fatal(err)
		}
		if sh := s.st.ShardFor(in.Loc); sh != 0 {
			evs = append(evs, EventJSON{Name: "synthetic tick", Start: at, End: at, Loc: loc})
			lost = sh
		}
	}
	lane0, seq := s.shards[0].st.Len(), s.journaled.Load()
	if code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: evs}); code != http.StatusOK {
		t.Fatalf("off-lane-0 batch: %d %s", code, body)
	}
	if s.shards[0].st.Len() != lane0 {
		t.Fatal("the batch was meant to route wholly off lane 0")
	}
	if got := s.journaled.Load(); got != seq+1 {
		t.Fatalf("durable journal sequence %d after the ack, want %d", got, seq+1)
	}
	want := wal.StoreDigest(s.Store())

	for _, sub := range []string{"wal", "snap"} {
		if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("shard-%d", lost), sub)); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(Config{DataDir: dir, Bundle: b, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background()) //nolint:errcheck // test teardown
	if !s2.Recovery().WALRebuilt {
		t.Error("losing a shard WAL did not trigger a rebuild from the journal")
	}
	if got := wal.StoreDigest(s2.Store()); got != want {
		t.Fatal("recovered store differs from the acknowledged one")
	}
}

// TestShardedTornJournalTail: a torn frame at the tail of the journal
// (the batch never acknowledged) must truncate deterministically and
// leave a consistent, digest-stable store behind.
func TestShardedTornJournalTail(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	const shards = 2
	before := driveLifecycle(t, dir, b, shards)

	// Append garbage (a torn partial frame) to the journal.
	f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x13, 0x37}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{DataDir: dir, Bundle: b, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	got := wal.StoreDigest(s.Store())
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != before.digest {
		t.Fatal("a torn journal tail changed the recovered store")
	}
}

// TestJournalApplierRejects: a record the applier cannot interpret is an
// error to both of its callers — recovery refuses the data dir, a
// follower stops its stream — and never a silent skip.
func TestJournalApplierRejects(t *testing.T) {
	ap := journalApplier{st: newFrontierStore(store.NewSharded(1), nil, 0)}
	for name, rec := range map[string][]byte{
		"truncated":       {0x80},
		"unknown kind":    encodeRecord(0, 9, "", nil),
		"bad JSON events": encodeRecord(0, recEvents, "", []byte("{")),
		"invalid event":   encodeRecord(0, recEvents, "", []byte(`[{"name":""}]`)),
		"torn wire batch": encodeRecord(0, recEventsWire, "", []byte("GRC")),
		"wire feed batch": encodeRecord(0, recEventsWire, "", wire.AppendFeed(nil, "syslog", "line\n")),
	} {
		if _, err := ap.apply(rec); err == nil {
			t.Errorf("%s: applied without error", name)
		}
	}
	if ap.st.Len() != 0 {
		t.Errorf("rejected records stored %d events", ap.st.Len())
	}
}
