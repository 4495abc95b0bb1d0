package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grca/internal/collector"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/platform"
	"grca/internal/store"
	"grca/internal/wal"
	"grca/internal/wire"
)

// lifecycleOutcome captures everything externally observable about one
// complete life of the service: every ingest response body in order, the
// store digest, and the query surfaces the Result Browser and the
// diagnosis API serve.
type lifecycleOutcome struct {
	ingest    [][]byte
	digest    string
	events    int
	diagnose  map[string][]byte
	breakdown map[string][]byte
}

// lifecycleBatches builds the post-finalize event stream the restart and
// replica tests replay: EBGPFlap symptoms on real PERs interleaved with
// synthetic ticks on unknown routers, so every batch exercises the
// streaming-diagnosis path.
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

// driveLifecycle runs the full service life — feeds, finalize, batches —
// and captures the outcome. The caller owns dir (reopened by restart
// tests).
func driveLifecycle(t *testing.T, dir string, b platform.Bundle, batches [][]EventJSON) lifecycleOutcome {
	t.Helper()
	s := openServer(t, dir, b)
	ts := httptest.NewServer(s.Handler())
	out := lifecycleOutcome{diagnose: map[string][]byte{}, breakdown: map[string][]byte{}}
	record := func(code int, body []byte, what string) {
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", what, code, body)
		}
		out.ingest = append(out.ingest, body)
	}
	for _, src := range collector.Sources {
		feed, ok := b.Feeds[src]
		if !ok {
			continue
		}
		code, body := post(t, ts, "/v1/ingest", IngestRequest{Source: src, Lines: feed})
		record(code, body, "feed "+src)
	}
	code, body := post(t, ts, "/v1/finalize", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("finalize: %d %s", code, body)
	}
	for i, evs := range batches {
		code, body := postLifecycleBatch(t, ts, i, evs)
		record(code, body, fmt.Sprintf("event batch %d", i))
	}
	for _, app := range []string{"bgpflap", "cdn", "pim", "backbone"} {
		code, body := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
		if code != http.StatusOK {
			t.Fatalf("diagnose %s: %d %s", app, code, body)
		}
		out.diagnose[app] = body
		code, body = get(t, ts, "/v1/breakdown?app="+app)
		if code != http.StatusOK {
			t.Fatalf("breakdown %s: %d %s", app, code, body)
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
// wire format so both APIs are under test, on the way into the journal's
// one event record kind and out of it.
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

// TestRestartAndWALLoss: a data dir must recover byte-identically after a
// clean restart, and — the crash-point property — after losing its
// checkpoint, or finding in its place an intact one that holds other
// events: the journal, whole, refills the store. The digest must be stable
// across one more restart after the refill.
func TestRestartAndWALLoss(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	before := driveLifecycle(t, dir, b, lifecycleBatches(b))
	if before.events == 0 {
		t.Fatal("the lifecycle stored no events")
	}

	reopen := func(wantRefilled bool, what string) {
		t.Helper()
		s, refilled := openRefilled(t, dir, b)
		rec := s.Recovery()
		if !rec.Finalized {
			t.Fatalf("%s: recovery = %+v", what, rec)
		}
		if refilled != wantRefilled {
			t.Errorf("%s: boot checkpointed %v, want %v", what, refilled, wantRefilled)
		}
		ts := httptest.NewServer(s.Handler())
		for app, want := range before.diagnose {
			if _, got := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: app, All: true}); !bytes.Equal(got, want) {
				t.Errorf("%s: diagnose %s differs from the undisturbed run", what, app)
			}
		}
		ts.Close()
		if d := wal.StoreDigest(s.Store()); d != before.digest {
			t.Errorf("%s: recovered digest differs", what)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	reopen(false, "clean restart")
	if err := wal.RemoveCheckpoints(dir); err != nil {
		t.Fatal(err)
	}
	reopen(true, "lost checkpoint")
	reopen(false, "lost checkpoint (second restart)")

	// An intact checkpoint holding the wrong events: another node's, whose
	// stream named one router differently. Nothing is torn or missing, so
	// only the overlap check can notice; it must refill the store from the
	// journal.
	other := t.TempDir()
	batches := lifecycleBatches(b)
	batches[0][1].Loc.A = "some-other-router"
	driveLifecycle(t, other, b, batches)
	if err := wal.RemoveCheckpoints(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(wal.SnapDirOf(other), wal.SnapDirOf(dir)); err != nil {
		t.Fatal(err)
	}
	reopen(true, "another node's checkpoint")
	reopen(false, "another node's checkpoint (second restart)")
}

// TestEventRecordsInJournalHead: journal.log holds event records between
// the collector's own adds — batches posted between feeds, before finalize
// — and, once its tail is folded back into it, every record behind the
// finalize record too (a roll that failed; a dir from before the journal
// had segments). The head's replay numbers both from one allocator, so a
// restart, a refill of a lost checkpoint and a follower, live and restarted over
// its shipped head, all land on the store the live run held.
func TestEventRecordsInJournalHead(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	s := openServer(t, dir, b)
	ts := httptest.NewServer(s.Handler())
	batches := lifecycleBatches(b)
	early := 0
	for _, src := range collector.Sources {
		feed, ok := b.Feeds[src]
		if !ok {
			continue
		}
		code, body := post(t, ts, "/v1/ingest", IngestRequest{Source: src, Lines: feed})
		var r IngestResponse
		if err := json.Unmarshal(body, &r); code != http.StatusOK || err != nil {
			t.Fatalf("feed %s: %d %s (%v)", src, code, body, err)
		}
		// Behind the first two feeds that stored events of their own: one
		// JSON batch, one wire batch, with more feeds to follow them.
		if r.Stored > 0 && early < 2 {
			if code, body := postLifecycleBatch(t, ts, early, batches[early]); code != http.StatusOK {
				t.Fatalf("event batch %d before finalize: %d %s", early, code, body)
			}
			early++
		}
	}
	if early != 2 {
		t.Fatalf("%d event batches went in between the feeds, want 2", early)
	}
	if code, body := post(t, ts, "/v1/finalize", struct{}{}); code != http.StatusOK {
		t.Fatalf("finalize: %d %s", code, body)
	}
	for i := early; i < len(batches); i++ {
		if code, body := postLifecycleBatch(t, ts, i, batches[i]); code != http.StatusOK {
			t.Fatalf("event batch %d: %d %s", i, code, body)
		}
	}

	fcfg := Config{DataDir: t.TempDir(), Bundle: b, ReplicaOf: ts.URL}
	for _, what := range []string{"attached", "restarted over its shipped head"} {
		foll, err := Open(fcfg)
		if err != nil {
			t.Fatalf("follower, %s: %v", what, err)
		}
		ts2 := httptest.NewServer(foll.Handler())
		waitReplicaCaughtUp(t, foll, s)
		compareReplica(t, s, foll, ts, ts2)
		ts2.Close()
		if err := foll.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	digest, events := wal.StoreDigest(s.Store()), s.Store().Len()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	reopen := func(wantRefilled bool, what string) {
		t.Helper()
		s, refilled := openRefilled(t, dir, b)
		if rec := s.Recovery(); !rec.Finalized || refilled != wantRefilled {
			t.Errorf("%s: recovery = %+v, boot checkpointed %v, want finalized and %v", what, rec, refilled, wantRefilled)
		}
		if got := wal.StoreDigest(s.Store()); got != digest {
			t.Errorf("%s: recovered %d events with another digest, the live run held %d", what, s.Store().Len(), events)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	reopen(false, "restart")
	if err := wal.RemoveCheckpoints(dir); err != nil {
		t.Fatal(err)
	}
	reopen(true, "lost checkpoint")

	// Fold the tail back into journal.log: its records, minus each segment's
	// header, behind the finalize record.
	tail, err := wal.JournalTail(dir)
	if err != nil || len(tail) == 0 {
		t.Fatalf("journal tail = %v (%v), want at least one segment", tail, err)
	}
	head, err := wal.OpenJournal(wal.JournalHead(dir))
	if err != nil {
		t.Fatal(err)
	}
	folded := 0
	for _, seg := range tail {
		first := true
		torn, err := wal.ScanJournal(seg.Path, func(p []byte) error {
			if first {
				first = false
				return nil
			}
			folded++
			return head.Append(p)
		})
		if err != nil || torn >= 0 {
			t.Fatalf("%s: torn at %d, %v", seg.Path, torn, err)
		}
		if err := os.Remove(seg.Path); err != nil {
			t.Fatal(err)
		}
	}
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
	if want := len(batches) - early; folded != want {
		t.Fatalf("folded %d records into journal.log, want the %d batches behind finalize", folded, want)
	}
	reopen(false, "event records behind the finalize record")
	if len(journalTailPaths(dir)) == 0 {
		t.Error("the boot over a finalized journal.log started no tail segment")
	}
	reopen(false, "event records behind the finalize record (second restart)")
	if err := wal.RemoveCheckpoints(dir); err != nil {
		t.Fatal(err)
	}
	reopen(true, "event records behind the finalize record, lost checkpoint")
}

// TestConcurrentIngest hammers a server from parallel clients (retrying
// 429s) and checks the pipeline's accounting: the store grows by exactly
// the acknowledged events, and a restart recovers the identical digest —
// under the race detector this is also the concurrency soak for
// admission, applier, and observer.
func TestConcurrentIngest(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	lowerInflight(t, 4)
	s, err := Open(Config{DataDir: dir, Bundle: b})
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

	s2 := openServer(t, dir, b)
	if got := wal.StoreDigest(s2.Store()); got != digest {
		t.Fatal("restart after concurrent ingest changed the store digest")
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// listingOf renders every entry under dir: directories by name, files
// with size and checksum.
func listingOf(t *testing.T, dir string) string {
	t.Helper()
	var lines []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			lines = append(lines, path+"/")
			return err
		}
		data, err := os.ReadFile(path)
		lines = append(lines, fmt.Sprintf("%s %d %08x", path, len(data), crc32.ChecksumIEEE(data)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(lines, "\n")
}

// refusedUntouched opens cfg, which must fail with want, holds a recursive
// listing of dir from before the attempt against one from after it, and
// returns the error.
func refusedUntouched(t *testing.T, cfg Config, dir string, want error) error {
	t.Helper()
	before := listingOf(t, dir)
	s, err := Open(cfg)
	if !errors.Is(err, want) {
		if err == nil {
			s.Shutdown(context.Background()) //nolint:errcheck // test teardown
		}
		t.Fatalf("err = %v, want %v", err, want)
	}
	t.Log(err)
	if after := listingOf(t, dir); after != before {
		t.Fatalf("the refused open touched the directory:\n%s\n---\n%s", before, after)
	}
	return err
}

// TestMultiShardRefused: this version runs one commit lane. A shard count
// other than 1, configured or reported by the primary a replica is pointed
// at, is refused by name before Open creates, writes or wipes anything.
// What a multi-shard version left in a data dir — a SHARDS marker, a
// journal segment header naming two shards — it left in a dir without a
// FORMAT file, and that is refused untouched (ErrFormat).
func TestMultiShardRefused(t *testing.T) {
	shrinkJournal(t, 2<<10)
	_, b := testBundle(t)
	// A finalized dir with a journal tail, as this version writes it.
	base := t.TempDir()
	cfg := Config{DataDir: base, Bundle: b, SnapshotEvery: 150}
	s, ts, _ := pinnedPrimary(t, cfg, 10)
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(base, "SHARDS")); !os.IsNotExist(err) {
		t.Fatalf("a new data dir got a SHARDS marker (stat: %v)", err)
	}
	// preFormat is a copy of base as a version before FORMAT left it.
	preFormat := func(t *testing.T) string {
		dir := copyTree(t, base)
		if err := os.Remove(formatPath(dir)); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("configured", func(t *testing.T) {
		for _, n := range []int{2, -1} {
			dir := filepath.Join(t.TempDir(), "never-created")
			if _, err := Open(Config{DataDir: dir, Bundle: b, Shards: n}); !errors.Is(err, ErrMultiShard) {
				t.Fatalf("Shards: %d: err = %v, want ErrMultiShard", n, err)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Fatalf("Shards: %d: the refused open created the data dir", n)
			}
		}
	})
	t.Run("marker", func(t *testing.T) {
		dir := preFormat(t)
		if err := os.WriteFile(filepath.Join(dir, "SHARDS"), []byte("2\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		refusedUntouched(t, Config{DataDir: dir, Bundle: b, Shards: 1}, dir, ErrFormat)
	})
	t.Run("segment header", func(t *testing.T) {
		dir := preFormat(t)
		// The last segment's header as two shards would have written it; the
		// file is then headerless to anyone who does not look at why, and a
		// headerless last segment is what recovery deletes.
		tail := journalTailPaths(dir)
		last := tail[len(tail)-1]
		h, ok, err := wal.ReadJournalSegmentHeader(last)
		if err != nil || !ok {
			t.Fatalf("reading %s: %v", last, err)
		}
		rec := binary.AppendUvarint(nil, uint64(h.FirstSeq))
		rec = append(rec, wal.JournalSegmentKind, 0)
		for _, v := range []int{h.FirstID, int(h.Offset), 2, h.Front, 0} {
			rec = binary.AppendUvarint(rec, uint64(v))
		}
		if err := os.WriteFile(last, wal.AppendFrame(nil, rec), 0o644); err != nil {
			t.Fatal(err)
		}
		refusedUntouched(t, Config{DataDir: dir, Bundle: b}, dir, ErrFormat)
	})
	t.Run("primary", func(t *testing.T) {
		prim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, ReplicationMetaJSON{BootID: "boot-2", Shards: 2,
				Sealed: []int{0, 0}, JournalBytes: []int64{0, 0}, WALNext: []int{0, 0}})
		}))
		defer prim.Close()
		// A replica's dir from an earlier incarnation: the refusal comes before
		// the boot-ID change would wipe it, and before a new dir is made.
		dir := copyTree(t, base)
		if err := os.WriteFile(replicaFile(dir), []byte("boot-1\nreplica-x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		refusedUntouched(t, Config{DataDir: dir, Bundle: b, ReplicaOf: prim.URL}, dir, ErrMultiShard)
		fresh := filepath.Join(t.TempDir(), "never-created")
		if _, err := Open(Config{DataDir: fresh, Bundle: b, ReplicaOf: prim.URL}); !errors.Is(err, ErrMultiShard) {
			t.Fatalf("err = %v, want ErrMultiShard", err)
		}
		if _, err := os.Stat(fresh); !os.IsNotExist(err) {
			t.Fatal("the refused open created the data dir")
		}
	})
}

// TestOldShardJournalsRefused: a multi-shard data directory keeps its
// state under shard-<i>/ — since before the single journal, its journals
// too. None of it is in the root layout this version reads, so opening
// such a dir must refuse, naming what it found, instead of serving an
// empty (or partial) store beside it.
func TestOldShardJournalsRefused(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	shard := filepath.Join(dir, "shard-1")
	if err := os.MkdirAll(filepath.Join(shard, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal.JournalHead(shard), []byte("a shard's journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := refusedUntouched(t, Config{DataDir: dir, Bundle: b}, dir, ErrFormat); !strings.Contains(err.Error(), shard) {
		t.Fatalf("open over %s: err = %v, want a refusal naming it", shard, err)
	}
}

// TestTornJournalTail: a torn frame at the tail of the journal (the batch
// never acknowledged) must truncate deterministically and leave a
// consistent, digest-stable store behind.
func TestTornJournalTail(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	before := driveLifecycle(t, dir, b, lifecycleBatches(b))

	// Append garbage (a torn partial frame) to the journal's active file,
	// and behind the sealed head, where it proves nothing missing either.
	tail := journalTailPaths(dir)
	active := tail[len(tail)-1]
	size := wal.JournalSize(active)
	for _, path := range []string{active, wal.JournalHead(dir)} {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0xFF, 0x13, 0x37}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s := openServer(t, dir, b)
	got := wal.StoreDigest(s.Store())
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != before.digest {
		t.Fatal("a torn journal tail changed the recovered store")
	}
	if now := wal.JournalSize(active); now != size {
		t.Fatalf("%s is %d bytes after recovery, %d before the torn frame", active, now, size)
	}
}

// TestJournalApplierRejects: a record the applier cannot interpret is an
// error to both of its callers — recovery refuses the data dir, a
// follower stops its stream — and never a silent skip.
func TestJournalApplierRejects(t *testing.T) {
	ap := journalApplier{st: newFrontierStore(checkpoint{st: store.New()}, 0)}
	at := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	evs := []event.Instance{
		{Name: "x", Start: at, End: at, Loc: locus.At(locus.Router, "r1")},
		{Name: "y", Start: at, End: at.Add(time.Minute), Loc: locus.Between(locus.Interface, "r1", "ge-0/0/0")},
	}
	block := wire.AppendEventBlock(nil, evs)
	short := append([]byte{byte(len(evs) + 1)}, block[1:]...) // one event more than it holds
	for name, rec := range map[string][]byte{
		"truncated":      {0x80},
		"unknown kind":   wal.AppendJournalRecord(nil, wal.JournalRecord{Kind: 9}),
		"segment header": wal.AppendJournalSegmentHeader(nil, wal.JournalSegmentHeader{FirstSeq: 3, FirstID: 7, Front: 7}),
		// What earlier formats journaled event batches as, the JSON array
		// (kind 3) and the version 1 wire body (kind 4): unknown kinds now.
		"kind 3, JSON events":   wal.AppendJournalRecord(nil, wal.JournalRecord{Kind: 3, Body: []byte(`[{"name":"x","start":"2010-01-01T00:00:00Z","end":"2010-01-01T00:00:00Z","loc":{"type":"router","a":"r1"}}]`)}),
		"kind 4, wire v1 batch": wal.AppendJournalRecord(nil, wal.JournalRecord{Kind: 4, Body: []byte{'G', 'R', 'C', 'W', 1, 1, 0}}),
		"torn block":            wal.AppendJournalRecord(nil, wal.JournalRecord{Kind: wal.JournalEventKind, Body: block[:len(block)-2]}),
		"short block":           wal.AppendJournalRecord(nil, wal.JournalRecord{Kind: wal.JournalEventKind, Body: short}),
		// One event, table {"x"}, whose B names a second string.
		"reference past the table": wal.AppendJournalRecord(nil, wal.JournalRecord{Kind: wal.JournalEventKind, Body: []byte{1, 1, 1, 'x', 0, 0, 0, byte(locus.Router), 0, 1, 0}}),
		// The same event at a locus type byte no type has.
		"unknown locus type": wal.AppendJournalRecord(nil, wal.JournalRecord{Kind: wal.JournalEventKind, Body: []byte{1, 1, 1, 'x', 0, 0, 0, 200, 0, 0, 0}}),
	} {
		if _, err := ap.apply(rec); err == nil {
			t.Errorf("%s: applied without error", name)
		}
	}
	if ap.st.Len() != 0 {
		t.Errorf("rejected records stored %d events", ap.st.Len())
	}
}

// TestJournalRecordKinds: the journal has one kind space, wal's table,
// shared by the records this package writes and the segment header wal
// writes. A kind taken twice makes a follower read event batches as
// segment headers (or the reverse) and stall, so every kind is distinct.
func TestJournalRecordKinds(t *testing.T) {
	kinds := map[string]byte{
		"wal.JournalFinalizeKind": wal.JournalFinalizeKind, "wal.JournalSegmentKind": wal.JournalSegmentKind,
		"wal.JournalEventKind": wal.JournalEventKind, "wal.JournalFeedKind": wal.JournalFeedKind,
	}
	seen := map[byte]string{}
	for name, k := range kinds {
		if other, dup := seen[k]; dup {
			t.Errorf("%s and %s are both journal record kind %d", name, other, k)
		}
		seen[k] = name
	}
	rec := wal.AppendJournalRecord(nil, wal.JournalRecord{Seq: 4, Kind: wal.JournalEventKind, Body: wire.AppendEventBlock(nil, nil)})
	if _, err := wal.ParseJournalSegmentHeader(rec); err == nil {
		t.Error("an event block record reads as a segment header")
	}
}
