package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"grca/internal/collector"
	"grca/internal/conf"
	"grca/internal/obs"
	"grca/internal/platform"
	"grca/internal/replica"
	"grca/internal/store"
	"grca/internal/wal"
	"grca/internal/wire"
)

// shrinkJournal makes the journal's tail roll every segBytes for the
// length of the test, so a few hundred small batches cross many segments.
// A tickStream batch of 40 events journals as an event block of about
// 1 KiB: 2 KiB rolls every other batch.
func shrinkJournal(t *testing.T, segBytes int64) {
	t.Helper()
	old := journalSegmentBytes
	journalSegmentBytes = segBytes
	t.Cleanup(func() { journalSegmentBytes = old })
}

// lowerInflight makes the ingest queue n batches deep for the length of
// the test.
func lowerInflight(t *testing.T, n int) {
	t.Helper()
	old := maxInflight
	maxInflight = n
	t.Cleanup(func() { maxInflight = old })
}

// tickStream posts batches of synthetic ticks whose event time advances
// by step per batch: the post-finalize load of every test here.
type tickStream struct {
	t       *testing.T
	ts      *httptest.Server
	at      time.Time
	step    time.Duration
	n       int // batches posted
	routers []string
}

func newTickStream(t *testing.T, ts *httptest.Server, b platform.Bundle, step time.Duration) *tickStream {
	routers := make([]string, 61)
	for i := range routers {
		routers[i] = fmt.Sprintf("load-r%d", i)
	}
	return &tickStream{t: t, ts: ts, at: b.Start.Add(b.Duration).Add(time.Hour), step: step, routers: routers}
}

// batch builds the next batch: per ticks over the stream's routers.
func (k *tickStream) batch(per int) []EventJSON {
	evs := make([]EventJSON, per)
	t0 := k.at.Add(time.Duration(k.n) * k.step)
	for j := range evs {
		at := t0.Add(time.Duration(j) * time.Millisecond)
		evs[j] = EventJSON{
			Name: "synthetic tick", Start: at, End: at,
			Loc:   LocationJSON{Type: "router", A: k.routers[(k.n*per+j)%len(k.routers)]},
			Attrs: map[string]string{"n": fmt.Sprint(k.n*per + j)},
		}
	}
	k.n++
	return evs
}

func (k *tickStream) post(batches, per int) {
	k.t.Helper()
	for i := 0; i < batches; i++ {
		if code, body := post(k.t, k.ts, "/v1/ingest", IngestRequest{Events: k.batch(per)}); code != http.StatusOK {
			k.t.Fatalf("tick batch %d: %d %s", k.n, code, body)
		}
	}
}

// journalTailPaths lists the journal's tail segment files under dir.
func journalTailPaths(dir string) []string {
	paths, _ := wal.JournalFiles(dir) // a dir not yet made has none
	return paths[1:]
}

// journalFiles lists the journal's files under dir with their sizes,
// journal.log first.
func journalFiles(t *testing.T, dir string) (paths []string, total int64) {
	t.Helper()
	paths, _ = wal.JournalFiles(dir)
	for _, p := range paths {
		total += wal.JournalSize(p)
	}
	return paths, total
}

// copyTree copies a data dir as a crash would leave it: every file's
// bytes as they stand, nothing flushed or closed first.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		to := filepath.Join(dst, strings.TrimPrefix(path, src))
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// treeOf renders every non-empty file under dir (but those under a
// skipped prefix) with its size and a checksum: what "touched nothing" is
// held against.
func treeOf(t *testing.T, dir string, skip ...string) string {
	t.Helper()
	var lines []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel := strings.TrimPrefix(path, dir)
		for _, s := range skip {
			if strings.HasPrefix(rel, s) {
				return nil
			}
		}
		data, err := os.ReadFile(path)
		if len(data) > 0 { // an empty file is the segment that opening a WAL starts
			lines = append(lines, fmt.Sprintf("%s %d %08x", rel, len(data), crc32.ChecksumIEEE(data)))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// olderManifest returns the next-ID bound of the older of the (up to) two
// snapshot manifests under a data dir, 0 with fewer than two.
func olderManifest(t *testing.T, dir string) int {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(wal.SnapDirOf(dir), "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		return 0
	}
	sort.Strings(snaps)
	var next int
	if _, err := fmt.Sscanf(filepath.Base(snaps[len(snaps)-2]), "snap-%d.snap", &next); err != nil {
		t.Fatal(err)
	}
	return next
}

// TestJournalBoundedUnderRetention: over twenty retention windows of
// events the journal on disk stays segment 0 plus what was journaled
// since the older snapshot manifest plus one segment — it follows the
// events retained, not the events ever ingested — journal.log itself
// never grows past finalize, and the reopened store is the live one.
func TestJournalBoundedUnderRetention(t *testing.T) {
	const (
		segBytes  = 4 << 10
		retention = 10 * time.Minute
		step      = 30 * time.Second // 20 batches a window
		per       = 40
		batches   = 20 * 20
	)
	// Shards: 1 is how bench/ opens a server; most tests leave it 0.
	t.Run("shards=1", func(t *testing.T) {
		shrinkJournal(t, segBytes)
		_, b := testBundle(t)
		dir := t.TempDir()
		cfg := Config{DataDir: dir, Bundle: b, Shards: 1, Retention: retention, SnapshotEvery: 300}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		loadAndFinalize(t, ts, b)
		head := wal.JournalSize(wal.JournalHead(dir))
		dropped := obs.GetCounter("journal.segments.dropped").Value()

		// Each batch's journal bytes and the last event ID it allocated.
		type journaled struct {
			bytes  int64
			lastID int
		}
		var log []journaled
		k := newTickStream(t, ts, b, step)
		for i := 0; i < batches; i++ {
			before := s.jour.Offset()
			k.post(1, per)
			log = append(log, journaled{s.jour.Offset() - before, s.st.NextID() - 1})
		}
		if got := s.Store().Len(); got > 3*20*per {
			t.Fatalf("%d events live after %d batches: retention is not evicting", got, batches)
		}
		want := wal.StoreDigest(s.Store())
		ever := s.jour.Offset()
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}

		if got := wal.JournalSize(wal.JournalHead(dir)); got != head {
			t.Fatalf("journal.log is %d bytes, it was %d at finalize: records landed in segment 0 after it", got, head)
		}
		floor := olderManifest(t, dir)
		var since int64
		for _, j := range log {
			if j.lastID >= floor {
				since += j.bytes
			}
		}
		files, onDisk := journalFiles(t, dir)
		// One segment for the one the floor falls inside (kept whole), a
		// record's overshoot per roll in it, and the headers.
		bound := head + since + segBytes + 2*log[0].bytes + int64(len(files))*64
		if onDisk > bound {
			t.Fatalf("journal holds %d bytes in %d files; segment 0 (%d) + records since the older manifest at ID %d (%d) + one segment allows %d",
				onDisk, len(files), head, floor, since, bound)
		}
		// Over the tail: journal.log, the feeds, is kept whole and would
		// dominate a ratio over everything.
		if tail, everTail := onDisk-head, ever-head; tail > everTail/4 {
			t.Fatalf("the journal's tail holds %d of the %d bytes ever journaled behind finalize: it is not following retention", tail, everTail)
		}
		if got := obs.GetCounter("journal.segments.dropped").Value() - dropped; got < 20 {
			t.Fatalf("%d journal segments dropped over %d batches, want at least 20", got, batches)
		}

		s2, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := s2.Recovery()
		if rec.TailApplied != 0 || rec.JournalSegments != len(files) {
			t.Fatalf("clean reopen: %+v with %d journal files on disk", rec, len(files))
		}
		if got := wal.StoreDigest(s2.Store()); got != want {
			t.Fatal("the store reopened from checkpoints + tail differs from the live one")
		}
		if err := s2.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestJournalDropsWithoutSnapshotCadence: under -snapshot-every 0 the
// tail still rolls at its segment size, and every roll checkpoints, so
// with no retention the tail keeps being covered and dropped: the journal
// holds journal.log, the segment the older manifest ends in, and the
// segments behind it.
func TestJournalDropsWithoutSnapshotCadence(t *testing.T) {
	shrinkJournal(t, 4<<10)
	_, b := testBundle(t)
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Bundle: b}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	loadAndFinalize(t, ts, b)
	snaps := obs.GetCounter("wal.snapshots").Value()
	dropped := obs.GetCounter("journal.segments.dropped").Value()
	newTickStream(t, ts, b, time.Second).post(150, 40)
	if got := obs.GetCounter("wal.snapshots").Value() - snaps; got < 4 {
		t.Fatalf("%d checkpoints over a tail of dozens of segments, want one a roll", got)
	}
	if got := obs.GetCounter("journal.segments.dropped").Value() - dropped; got < 10 {
		t.Fatalf("%d journal segments dropped with no snapshot cadence, want the tail to keep going", got)
	}
	if files, _ := journalFiles(t, dir); len(files) > 1+3 {
		t.Fatalf("%d journal files on disk with no snapshot cadence: %v", len(files), files)
	}
	want := wal.StoreDigest(s.Store())
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background()) //nolint:errcheck // test teardown
	if got := wal.StoreDigest(s2.Store()); got != want {
		t.Fatal("reopened store differs from the live one")
	}
}

// pinnedPrimary opens a primary whose journal tail is pinned by a
// follower that never reads — nothing is dropped however far the
// snapshots get — loads the corpus and streams ticks over many segments.
func pinnedPrimary(t *testing.T, cfg Config, batches int) (*Server, *httptest.Server, *tickStream) {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.replReg.Attach("parked")
	ts := httptest.NewServer(s.Handler())
	loadAndFinalize(t, ts, cfg.Bundle)
	k := newTickStream(t, ts, cfg.Bundle, time.Second)
	k.post(batches, 40)
	return s, ts, k
}

// TestJournalCrashCuts: the journal's own crash points — a roll killed
// before its header is durable, after the header and before the first
// record, a kill between the checkpoint manifest and the unlinks it
// allows, and between two of the unlinks — and a roll's checkpoint cut
// between the roll and the link, the link and the manifest's rename, and
// the rename and the directory sync (which may lose the link). Each image
// recovers to the store of the node that never crashed, and is then
// appended to, checkpointed by a clean shutdown and reopened to that
// node's store again.
func TestJournalCrashCuts(t *testing.T) {
	shrinkJournal(t, 2<<10)
	_, b := testBundle(t)
	live := t.TempDir()
	cfg := Config{DataDir: live, Bundle: b, SnapshotEvery: 150}
	s, ts, k := pinnedPrimary(t, cfg, 60)
	defer ts.Close()
	defer s.Shutdown(context.Background()) //nolint:errcheck // test teardown
	// Batches past crumb size, a segment each: the last roll's checkpoint
	// links the segment before it as a run.
	k.post(3, 4000)
	want := wal.StoreDigest(s.Store())
	liveFiles, _ := journalFiles(t, live)
	if len(liveFiles) < 8 {
		t.Fatalf("the pinned journal holds %d files, want a long tail to cut", len(liveFiles))
	}
	// Every image below boots through journal.log's feeds, DEFLATE records.
	if r, err := wal.ParseJournalRecord(journalRecords(t, liveFiles[0])[0]); err != nil || r.Kind != wal.JournalFeedKind {
		t.Fatalf("journal.log begins with a record of kind %d (%v), want a feed as %d", r.Kind, err, wal.JournalFeedKind)
	}
	// Where the journal stands, for the header a killed roll leaves behind.
	s.dispatchMu.Lock()
	next := s.tailHeader()
	next.Offset = s.jour.Offset()
	s.dispatchMu.Unlock()
	header := wal.AppendFrame(nil, wal.AppendJournalSegmentHeader(nil, *next))
	nextPath := fmt.Sprintf("journal-%016d.log", next.FirstSeq)
	// The last roll's checkpoint: its manifest, and the run it linked.
	newest, ok, err := wal.LatestSnapshot(live)
	if err != nil || !ok {
		t.Fatalf("no checkpoint: %v", err)
	}
	manifest := filepath.Join("snap", fmt.Sprintf("snap-%016d.snap", newest))
	run := linkedRun(t, live, liveFiles[len(liveFiles)-2])
	if run == "" {
		t.Fatal("the last roll's checkpoint linked no run")
	}
	run = filepath.Join("snap", run)
	remove := func(rel ...string) func(string) {
		return func(dir string) {
			for _, r := range rel {
				if err := os.Remove(filepath.Join(dir, r)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// The batch every recovered image takes next, and the store that leaves.
	extra := k.batch(40)
	cuts := []struct {
		name  string
		cut   func(dir string)
		check func(t *testing.T, dir string, s2 *Server)
	}{
		{"manifest durable, nothing unlinked yet", func(string) {}, func(t *testing.T, dir string, s2 *Server) {
			if files, _ := journalFiles(t, dir); len(files) >= len(liveFiles) {
				t.Fatalf("boot dropped nothing: %d journal files, %d before", len(files), len(liveFiles))
			}
		}},
		{"between two unlinks", func(dir string) {
			if err := os.Remove(filepath.Join(dir, filepath.Base(liveFiles[1]))); err != nil {
				t.Fatal(err)
			}
		}, nil},
		{"roll killed with the new file empty", func(dir string) {
			if err := os.WriteFile(filepath.Join(dir, nextPath), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, dir string, s2 *Server) {
			// The boot's own roll, at the same sequence, made the file anew.
			if _, ok, err := wal.ReadJournalSegmentHeader(filepath.Join(dir, nextPath)); err != nil || !ok {
				t.Fatalf("the headerless file was kept as a segment (%v)", err)
			}
		}},
		{"roll killed inside the header", func(dir string) {
			if err := os.WriteFile(filepath.Join(dir, nextPath), header[:len(header)-3], 0o644); err != nil {
				t.Fatal(err)
			}
		}, nil},
		{"roll killed after the header, before the first record", func(dir string) {
			if err := os.WriteFile(filepath.Join(dir, nextPath), header, 0o644); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, dir string, s2 *Server) {
			if tail := s2.jour.Tail(); tail[len(tail)-1].Header.FirstSeq != next.FirstSeq {
				t.Fatalf("the journal appends to segment %d, the header-only segment is %d", tail[len(tail)-1].Header.FirstSeq, next.FirstSeq)
			}
		}},
		{"checkpoint cut after its roll", remove(manifest, run), nil},
		{"checkpoint cut after its link", remove(manifest), nil},
		{"checkpoint cut before its manifest's rename", func(dir string) {
			if err := os.Rename(filepath.Join(dir, manifest), filepath.Join(dir, "snap", "snap.tmp")); err != nil {
				t.Fatal(err)
			}
		}, nil},
		{"checkpoint cut before its directory sync, the link lost", remove(run), nil},
	}
	recovered := map[string]string{} // cut → dir, reopened once more below
	for _, c := range cuts {
		dir := copyTree(t, live) // the outer test's: it is reopened after the subtest
		t.Run(c.name, func(t *testing.T) {
			c.cut(dir)
			ccfg := cfg
			ccfg.DataDir = dir
			s2, err := Open(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := wal.StoreDigest(s2.Store()); got != want {
				t.Fatalf("recovered store differs from the never-crashed one (%+v)", s2.Recovery())
			}
			if c.check != nil {
				c.check(t, dir, s2)
			}
			ts2 := httptest.NewServer(s2.Handler())
			if code, body := post(t, ts2, "/v1/ingest", IngestRequest{Events: extra}); code != http.StatusOK {
				t.Fatalf("append after recovery: %d %s", code, body)
			}
			ts2.Close()
			if err := s2.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			recovered[c.name] = dir
		})
	}
	if code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: extra}); code != http.StatusOK {
		t.Fatalf("append on the live node: %d %s", code, body)
	}
	want = wal.StoreDigest(s.Store())
	for name, dir := range recovered {
		ccfg := cfg
		ccfg.DataDir = dir
		s3, err := Open(ccfg)
		if err != nil {
			t.Fatalf("%s: second reopen: %v", name, err)
		}
		if rec := s3.Recovery(); rec.TailApplied != 0 || wal.StoreDigest(s3.Store()) != want {
			t.Errorf("%s: after append, checkpoint and reopen the store differs from the never-crashed one (%+v)", name, rec)
		}
		if err := s3.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALTrailsJournal: a checkpoint never covers the journal's active
// segment. Behind a roll the newest manifest ends where the active segment
// begins, the segment the roll sealed is a run (the same file), no run is
// the active segment's file, and nothing is written under wal/. A crash
// that takes the newest manifest — missing, empty, cut inside or right
// behind its magic, cut mid-frame — recovers to the never-crashed store
// from the older manifest and the journal's tail, which re-applies what
// the lost manifest covered as well as the active segment's groups;
// intact, the active segment's groups alone are applied. Each image takes
// more appends and reopens to the store of a node that took them without
// crashing.
func TestWALTrailsJournal(t *testing.T) {
	_, b := testBundle(t)
	live := t.TempDir()
	// Three groups reach the cadence, the fourth rolls; a segment of them is
	// past crumb size, so the checkpoint links it rather than copying it.
	cfg := Config{DataDir: live, Bundle: b, SnapshotEvery: 10000}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background()) //nolint:errcheck // test teardown
	s.replReg.Attach("parked")             // no unlink under the copies below
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loadAndFinalize(t, ts, b)
	k := newTickStream(t, ts, b, time.Second)
	const sealed, unsealed = 3, 3
	k.post(sealed+unsealed, 4000)
	want := wal.StoreDigest(s.Store())

	tail := journalTailPaths(live)
	if len(tail) != 2 {
		t.Fatalf("tail segments %v, want the sealed one and the active one", tail)
	}
	h, ok, err := wal.ReadJournalSegmentHeader(tail[1])
	if err != nil || !ok {
		t.Fatalf("active segment header: %v", err)
	}
	next, ok, err := wal.LatestSnapshot(live)
	if err != nil || !ok || next != h.FirstID {
		t.Fatalf("the newest checkpoint ends at ID %d (%v, %v), the active segment begins at %d", next, ok, err, h.FirstID)
	}
	if linkedRun(t, live, tail[1]) != "" {
		t.Fatal("a run under snap/ is the active segment's file")
	}
	if linkedRun(t, live, tail[0]) == "" {
		t.Fatal("the segment the roll sealed is no run: the checkpoint wrote its events again")
	}
	if _, err := os.Stat(wal.WALDirOf(live)); !os.IsNotExist(err) {
		t.Fatalf("%s exists (%v): the event WAL is written", wal.WALDirOf(live), err)
	}
	manifest := filepath.Join(wal.SnapDirOf(live), fmt.Sprintf("snap-%016d.snap", next))
	size := wal.JournalSize(manifest)
	const magic = int64(len("GRCASNAP2"))
	truncate := func(at int64) func(string) {
		return func(path string) {
			if err := os.Truncate(path, at); err != nil {
				t.Fatal(err)
			}
		}
	}
	cuts := []struct {
		name string
		cut  func(path string)
		lost int // commit groups the journal's tail must re-apply
	}{
		{"missing", func(path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, sealed + unsealed},
		{"0 bytes", truncate(0), sealed + unsealed},
		{"shorter than the magic frame", truncate(magic - 3), sealed + unsealed},
		{"magic frame only", truncate(magic), sealed + unsealed},
		{"mid-frame", truncate((magic + size) / 2), sealed + unsealed},
		{"whole", func(string) {}, unsealed},
	}
	extra := k.batch(40)
	recovered := map[string]string{} // cut → dir, reopened once more below
	for _, c := range cuts {
		dir := copyTree(t, live) // the outer test's: it is reopened after the subtest
		t.Run(c.name, func(t *testing.T) {
			c.cut(filepath.Join(dir, strings.TrimPrefix(manifest, live)))
			ccfg := cfg
			ccfg.DataDir = dir
			s2, err := Open(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			if rec := s2.Recovery(); rec.TailApplied != c.lost {
				t.Fatalf("recovery %+v, want the %d groups above the surviving checkpoint applied from the journal's tail", rec, c.lost)
			}
			if got := wal.StoreDigest(s2.Store()); got != want {
				t.Fatal("an acknowledged batch is missing after the crash")
			}
			ts2 := httptest.NewServer(s2.Handler())
			if code, body := post(t, ts2, "/v1/ingest", IngestRequest{Events: extra}); code != http.StatusOK {
				t.Fatalf("append after recovery: %d %s", code, body)
			}
			ts2.Close()
			if err := s2.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			recovered[c.name] = dir
		})
	}
	if code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: extra}); code != http.StatusOK {
		t.Fatalf("append on the live node: %d %s", code, body)
	}
	want = wal.StoreDigest(s.Store())
	for name, dir := range recovered {
		ccfg := cfg
		ccfg.DataDir = dir
		s3, err := Open(ccfg)
		if err != nil {
			t.Fatalf("%s: second reopen: %v", name, err)
		}
		if rec := s3.Recovery(); rec.TailApplied != 0 || wal.StoreDigest(s3.Store()) != want {
			t.Errorf("%s: after append, shutdown and reopen the store differs from the never-crashed one (%+v)", name, rec)
		}
		if err := s3.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// linkedRun returns the name of the run under dir's snap/ that is the file
// at path, "" when none is.
func linkedRun(t *testing.T, dir, path string) string {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := filepath.Glob(filepath.Join(wal.SnapDirOf(dir), "run-*.run"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if ri, err := os.Stat(r); err == nil && os.SameFile(fi, ri) {
			return filepath.Base(r)
		}
	}
	return ""
}

// TestOneWritePerBatch: every event is written once, to the journal. Over
// commit groups with one roll between them no file under wal/ is created
// or grows; the roll's checkpoint adopts the segment it sealed
// (wal.snapshot.runs.adopted rises by one, nothing is written from the
// store) and writes its manifest and nothing else (wal.snapshot.bytes
// grows by the manifest's bytes); and the run is the sealed segment's file.
func TestOneWritePerBatch(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Bundle: b, SnapshotEvery: 10000})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background()) //nolint:errcheck // test teardown
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loadAndFinalize(t, ts, b)
	adopted, written := obs.GetCounter("wal.snapshot.runs.adopted"), obs.GetCounter("wal.snapshot.runs.written")
	snapBytes := obs.GetCounter("wal.snapshot.bytes")
	a0, w0, b0 := adopted.Value(), written.Value(), snapBytes.Value()

	// Three groups fill the first tail segment to the cadence, past crumb
	// size; the fourth rolls, and two more land behind it.
	newTickStream(t, ts, b, time.Second).post(6, 4000)
	if _, err := os.Stat(wal.WALDirOf(dir)); !os.IsNotExist(err) {
		t.Fatalf("%s exists (%v)", wal.WALDirOf(dir), err)
	}
	if got, w := adopted.Value()-a0, written.Value()-w0; got != 1 || w != 0 {
		t.Fatalf("the roll's checkpoint adopted %d runs and wrote %d, want the sealed segment adopted and nothing written", got, w)
	}
	next, ok, err := wal.LatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("no checkpoint: %v", err)
	}
	manifest := wal.JournalSize(filepath.Join(wal.SnapDirOf(dir), fmt.Sprintf("snap-%016d.snap", next)))
	if got := snapBytes.Value() - b0; got != manifest {
		t.Fatalf("the checkpoint wrote %d bytes under snap/, its manifest is %d", got, manifest)
	}
	tail := journalTailPaths(dir)
	if len(tail) != 2 || linkedRun(t, dir, tail[0]) == "" {
		t.Fatalf("tail %v: the sealed segment is no run under snap/", tail)
	}
}

// TestCheckpointAloneHoldsTheStore: what a node serves once it has booted
// is what its checkpoint holds — wal.Open over the data dir, reading
// snap/ alone, recovers the served store's digest: after a primary's
// restart from a crash, after a clean restart, and on a promoted
// follower's dir.
func TestCheckpointAloneHoldsTheStore(t *testing.T) {
	shrinkJournal(t, 2<<10)
	_, b := testBundle(t)
	checkpointed := func(t *testing.T, dir, served string) {
		t.Helper()
		img := copyTree(t, dir) // wal.Open starts a segment of its own
		l, st, _, err := wal.Open(img, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close() //nolint:errcheck // read-only use
		if got := wal.StoreDigest(st); got != served {
			t.Fatalf("the checkpoint holds %d events (digest %s), the node serves digest %s", st.Len(), got, served)
		}
	}
	cfg := Config{DataDir: t.TempDir(), Bundle: b, SnapshotEvery: 150}
	prim, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Shutdown(context.Background()) //nolint:errcheck // test teardown
	prim.replReg.Attach("parked")             // no unlink under the copy below
	ts := httptest.NewServer(prim.Handler())
	defer ts.Close()
	loadAndFinalize(t, ts, b)
	fcfg := Config{DataDir: t.TempDir(), Bundle: b, ReplicaOf: ts.URL}
	foll, err := Open(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer foll.Shutdown(context.Background()) //nolint:errcheck // test teardown
	newTickStream(t, ts, b, time.Second).post(25, 40)
	waitReplicaCaughtUp(t, foll, prim)

	t.Run("primary restarted after a crash", func(t *testing.T) {
		ccfg := cfg
		ccfg.DataDir = copyTree(t, cfg.DataDir)
		s, err := Open(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		served := wal.StoreDigest(s.Store())
		if s.Recovery().TailApplied == 0 {
			t.Fatal("the crash image had nothing above its checkpoint: the case is not tested")
		}
		checkpointed(t, ccfg.DataDir, served)
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Run("and restarted cleanly", func(t *testing.T) {
			s, err := Open(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown(context.Background()) //nolint:errcheck // test teardown
			checkpointed(t, ccfg.DataDir, wal.StoreDigest(s.Store()))
		})
	})
	t.Run("promoted follower", func(t *testing.T) {
		info, err := foll.Promote()
		if err != nil {
			t.Fatal(err)
		}
		if info.Digest != wal.StoreDigest(prim.Store()) {
			t.Fatal("the promoted store differs from the primary's")
		}
		checkpointed(t, fcfg.DataDir, info.Digest)
	})
}

// TestOneFsyncPerCommitGroup: the journal's fsync is the only one on the
// batch path. Over commit groups that roll nothing, journal.fsyncs rises
// by one a group and wal.fsyncs never moves: nothing writes the event WAL.
// On a primary a group is an acknowledged ingest batch; on a follower it
// is what a heartbeat makes durable.
func TestOneFsyncPerCommitGroup(t *testing.T) {
	const groups = 4
	jfsyncs, wfsyncs := obs.GetCounter("journal.fsyncs"), obs.GetCounter("wal.fsyncs")
	_, b := testBundle(t)
	prim, err := Open(Config{DataDir: t.TempDir(), Bundle: b})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(prim.Handler())
	defer ts.Close()
	defer prim.Shutdown(context.Background()) //nolint:errcheck // test teardown
	w0 := wfsyncs.Value()
	loadAndFinalize(t, ts, b)
	k := newTickStream(t, ts, b, time.Second)
	k.post(1, 40)
	foll, err := Open(Config{DataDir: t.TempDir(), Bundle: b, ReplicaOf: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer foll.Shutdown(context.Background()) //nolint:errcheck // test teardown
	waitReplicaCaughtUp(t, foll, prim)
	// From here the test is the follower's stream: it hands the follower
	// the primary's records itself, a heartbeat behind each group.
	foll.follower.Load().client.Stop()
	foll.follower.Load().client.Wait()

	expect := func(who string, j0 int64, dj int64) {
		t.Helper()
		if gj, gw := jfsyncs.Value()-j0, wfsyncs.Value()-w0; gj != dj || gw != 0 {
			t.Fatalf("%s: %d journal and %d WAL fsyncs, want %d and 0", who, gj, gw, dj)
		}
	}
	j0 := jfsyncs.Value()
	k.post(groups, 4000)
	expect("primary, one group a batch", j0, groups)

	paths, _ := journalFiles(t, prim.cfg.DataDir)
	var recs [][]byte
	for _, rec := range journalRecords(t, paths[len(paths)-1]) {
		if r, err := wal.ParseJournalRecord(rec); err != nil {
			t.Fatal(err)
		} else if r.Seq > int(foll.follower.Load().appliedSeq.Load()) {
			recs = append(recs, rec)
		}
	}
	if len(recs) != groups {
		t.Fatalf("%d records for the follower, want %d", len(recs), groups)
	}
	j0 = jfsyncs.Value()
	for _, rec := range recs {
		if err := foll.handleJournalMsg(replica.Msg{Type: replica.MsgJournalRec, Rec: rec}); err != nil {
			t.Fatal(err)
		}
		hb := replica.Msg{Type: replica.MsgHeartbeat, Sealed: int(prim.journaled.Load()),
			JournalBytes: prim.jour.Offset(), WALNext: prim.st.NextID()}
		if err := foll.handleJournalMsg(hb); err != nil {
			t.Fatal(err)
		}
	}
	expect("follower, one group a heartbeat", j0, groups)
	if got, want := wal.StoreDigest(foll.st), wal.StoreDigest(prim.st); got != want {
		t.Fatal("the follower's store differs from the primary's")
	}
}

// truncatedImage runs a primary until its journal has dropped tail
// segments, parks a follower so that more pile up sealed, and returns the
// crash image of that directory with the live store's digest.
func truncatedImage(t *testing.T, cfg Config) (dir, digest string) {
	t.Helper()
	cfg.DataDir = t.TempDir()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background()) //nolint:errcheck // test teardown
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loadAndFinalize(t, ts, cfg.Bundle)
	k := newTickStream(t, ts, cfg.Bundle, time.Second)
	k.post(60, 40)
	// The applier drops behind the acknowledgement; let the pass that
	// follows the last batch finish before pinning what is left.
	time.Sleep(50 * time.Millisecond)
	s.replReg.Attach("parked")
	k.post(20, 40)
	dir = copyTree(t, cfg.DataDir)
	tail, err := wal.RecoverJournalTail(dir)
	if err != nil || len(tail) < 3 || tail[0].Header.Offset == wal.JournalSize(wal.JournalHead(dir)) {
		t.Fatalf("want a truncated journal with sealed segments left: tail %+v, %v", tail, err)
	}
	return dir, wal.StoreDigest(s.Store())
}

// TestCheckpointLostIsAnError: once tail segments have been dropped, the
// checkpoints that let them go are the only copy of their events.
// Deleting snap/ then is not a refill but a refusal, by name, that leaves
// the directory as it found it. The same deletion while the journal still
// reaches back to ID 0 refills the store.
func TestCheckpointLostIsAnError(t *testing.T) {
	shrinkJournal(t, 2<<10)
	_, b := testBundle(t)
	lose := func(dir string) {
		if err := wal.RemoveCheckpoints(dir); err != nil {
			t.Fatal(err)
		}
	}
	lostDirs := []string{"/snap"}

	t.Run("truncated journal", func(t *testing.T) {
		cfg := Config{Bundle: b, SnapshotEvery: 150}
		dir, want := truncatedImage(t, cfg)
		cfg.DataDir = dir
		// Intact, the image opens to the live store.
		s, err := Open(cfg)
		if err != nil || wal.StoreDigest(s.Store()) != want {
			t.Fatalf("the undamaged image: %v", err)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		lose(dir)
		before := treeOf(t, dir, lostDirs...)
		for attempt := 0; attempt < 2; attempt++ {
			s, err := Open(cfg)
			if !errors.Is(err, ErrCheckpointLost) {
				if err == nil {
					s.Shutdown(context.Background()) //nolint:errcheck // test teardown
				}
				t.Fatalf("open %d over a lost checkpoint behind a truncated journal: err %v, want ErrCheckpointLost", attempt, err)
			}
			if after := treeOf(t, dir, lostDirs...); after != before {
				t.Fatalf("the refused open touched the directory:\n%s\n---\n%s", before, after)
			}
		}
	})
	t.Run("untruncated journal", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{DataDir: dir, Bundle: b, SnapshotEvery: 150}
		s, ts, _ := pinnedPrimary(t, cfg, 60)
		want := wal.StoreDigest(s.Store())
		ts.Close()
		crashed := copyTree(t, dir)
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		lose(crashed)
		cfg.DataDir = crashed
		s2, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Shutdown(context.Background()) //nolint:errcheck // test teardown
		if rec := s2.Recovery(); rec.TailVerified != 0 || rec.TailApplied == 0 || wal.StoreDigest(s2.Store()) != want {
			t.Fatalf("a lost checkpoint under a whole journal: %+v, digest equal: %v", rec, wal.StoreDigest(s2.Store()) == want)
		}
	})
}

// TestOverlapVerified: what a checkpoint and the retained tail both hold
// is checked, not trusted. Damage under a run both manifests reference,
// a tail segment that no longer frames, and a tail record that frames but
// says something else than the checkpoint holds are each refused — behind a
// truncated journal there is nothing to rebuild from — and never served.
// And whoever writes through the frontier during a replay is checked the
// same way: a collector's adds below it store nothing.
func TestOverlapVerified(t *testing.T) {
	shrinkJournal(t, 2<<10)
	_, b := testBundle(t)
	cfg := Config{Bundle: b, SnapshotEvery: 150}
	base, _ := truncatedImage(t, cfg)
	refused := func(t *testing.T, dir string, want error) {
		t.Helper()
		c := cfg
		c.DataDir = dir
		s, err := Open(c)
		if err == nil {
			s.Shutdown(context.Background()) //nolint:errcheck // test teardown
			t.Fatal("the damaged directory was opened and served")
		}
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("refused with %v, want %v", err, want)
		}
		t.Log(err)
	}
	flip := func(t *testing.T, path string, at int64) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[at] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("run under both manifests", func(t *testing.T) {
		dir := copyTree(t, base)
		runs, err := filepath.Glob(filepath.Join(wal.SnapDirOf(dir), "run-*.run"))
		if err != nil || len(runs) < 3 {
			t.Fatalf("snap/ holds %d runs (%v), want an old one both manifests reference", len(runs), err)
		}
		sort.Strings(runs)
		flip(t, runs[0], wal.JournalSize(runs[0])/2)
		refused(t, dir, ErrCheckpointDiverged)
	})
	t.Run("sealed tail segment torn", func(t *testing.T) {
		dir := copyTree(t, base)
		tail := journalTailPaths(dir)
		if len(tail) < 2 {
			t.Fatalf("%d tail segments, want a sealed one", len(tail))
		}
		flip(t, tail[0], wal.JournalSize(tail[0])/2)
		refused(t, dir, nil)
	})
	t.Run("tail record disagrees with the WAL", func(t *testing.T) {
		dir := copyTree(t, base)
		tail := journalTailPaths(dir)
		// Re-frame the segment's records with one router renamed in an event
		// block's string table: every CRC holds, the placement may even stay,
		// the events that name it are other ones.
		var out []byte
		renamed := false
		torn, err := wal.ScanJournal(tail[0], func(p []byte) error {
			rec := append([]byte(nil), p...)
			if r, err := wal.ParseJournalRecord(rec); err != nil || r.Kind != wal.JournalEventKind {
				out = wal.AppendFrame(out, rec)
				return nil
			}
			if i := strings.Index(string(rec), "load-r"); i >= 0 && !renamed {
				rec[i], renamed = 'x', true
			}
			out = wal.AppendFrame(out, rec)
			return nil
		})
		if err != nil || torn >= 0 || !renamed {
			t.Fatalf("rewriting %s: torn %d, %v, renamed %v", tail[0], torn, err, renamed)
		}
		if err := os.WriteFile(tail[0], out, 0o644); err != nil {
			t.Fatal(err)
		}
		refused(t, dir, ErrCheckpointDiverged)
	})
	t.Run("collector writes below the frontier", func(t *testing.T) {
		topo, err := conf.Parse(b.Configs, b.Inventory)
		if err != nil {
			t.Fatal(err)
		}
		// The feed phase through a collector, as replayHead runs it.
		feedPhase := func(st store.Store, skip string) {
			t.Helper()
			c := collector.New(topo, st, b.Start.Year())
			c.WindowStart, c.WindowEnd = b.Start, b.Start.Add(b.Duration)
			for _, src := range collector.Sources {
				if feed, ok := b.Feeds[src]; ok && src != skip {
					if err := c.Ingest(src, strings.NewReader(feed)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := closeFeeds(c, b.CDN); err != nil {
				t.Fatal(err)
			}
		}
		held := store.New()
		feedPhase(held, "")
		n, digest := held.Len(), wal.StoreDigest(held)
		if n == 0 {
			t.Fatal("the feed phase stored nothing")
		}
		// The same phase replayed from ID 0 over a checkpoint that holds it
		// all: every one of the collector's writes is verified, none stored.
		fs := newFrontierStore(checkpoint{st: held}, 0)
		fs.next = 0
		feedPhase(fs, "")
		if fs.err != nil || fs.present != n || fs.added != 0 || wal.StoreDigest(held) != digest {
			t.Fatalf("replay below the frontier: err %v, %d of %d events verified, %d added, store unchanged: %v",
				fs.err, fs.present, n, fs.added, wal.StoreDigest(held) == digest)
		}
		// A collector that derives other events than the checkpoint holds is
		// caught at the first one, and stores nothing either.
		fs = newFrontierStore(checkpoint{st: held}, 0)
		fs.next = 0
		feedPhase(fs, collector.SourceSyslog)
		if !errors.Is(fs.err, ErrCheckpointDiverged) || fs.added != 0 || wal.StoreDigest(held) != digest {
			t.Fatalf("a diverging replay below the frontier: err %v, %d added, store unchanged: %v",
				fs.err, fs.added, wal.StoreDigest(held) == digest)
		}
	})
}

var cutFixture = flag.Bool("cut-fixture", false, "re-cut testdata/datadir-format<N> and its .want from this version")

// TestParentDataDirBoots: each fixture is a data dir a parent version
// wrote. The one in this version's FORMAT, datadir-format<N>, must boot
// here to the store digest and the SHA-256 of each application's
// /v1/diagnose body its .want records, with its checkpoint and refilled
// without it; what this version journals behind it reboots to the live
// store, with and without the checkpoint. Every older one is refused by
// name, its files untouched: boot reads only what this version writes
// (DESIGN.md §11).
//
//   - datadir-format10: three feeds (JSON, wire, JSON), a JSON and a wire
//     event batch on either side of the finalize record, a checkpoint
//     every 150 events, a clean shutdown. go test -run
//     TestParentDataDirBoots -cut-fixture re-cuts it, after a FORMAT bump.
//   - datadir-format9: the same load, written while the server still
//     appended every batch to the event WAL as well.
//   - datadir-format1: the same load, written when FORMAT and the
//     replication protocol were two numbers.
//   - datadir-pr27, -pr28, -pr29: written before FORMAT, with journal
//     kinds 1, 3 and 4 and legacy WAL segments among them.
func TestParentDataDirBoots(t *testing.T) {
	current := filepath.Join("testdata", fmt.Sprintf("datadir-format%d", replica.ProtocolVersion))
	if *cutFixture {
		cutFormatFixture(t, current)
	}
	t.Run(filepath.Base(current), func(t *testing.T) { parentDataDirBoots(t, current) })
	for _, fixture := range []string{"datadir-format9", "datadir-format1", "datadir-pr27", "datadir-pr28", "datadir-pr29"} {
		t.Run(fixture, func(t *testing.T) {
			_, b := testBundle(t)
			dir := copyTree(t, filepath.Join("testdata", fixture))
			if err := refusedUntouched(t, Config{DataDir: dir, Bundle: b}, dir, ErrFormat); !strings.Contains(err.Error(), "FORMAT") {
				t.Fatalf("err = %v, want a refusal naming FORMAT", err)
			}
		})
	}
}

// TestJournalRecordCodecReadsFixture: every record of the committed format
// fixture's journal files — feeds, finalize, segment headers, event
// batches — parses through wal's one record codec and re-encodes to its
// very bytes: the codec is the format, not a reading of it.
func TestJournalRecordCodecReadsFixture(t *testing.T) {
	dir := filepath.Join("testdata", fmt.Sprintf("datadir-format%d", replica.ProtocolVersion))
	kinds := map[byte]int{}
	for _, path := range append([]string{wal.JournalHead(dir)}, journalTailPaths(dir)...) {
		for i, rec := range journalRecords(t, path) {
			r, err := wal.ParseJournalRecord(rec)
			if err != nil {
				t.Fatalf("%s record %d: %v", path, i, err)
			}
			if again := wal.AppendJournalRecord(nil, r); !bytes.Equal(again, rec) {
				t.Fatalf("%s record %d re-encodes to %x, the file holds %x", path, i, again, rec)
			}
			kinds[r.Kind]++
		}
	}
	for _, k := range []byte{wal.JournalFeedKind, wal.JournalFinalizeKind, wal.JournalSegmentKind, wal.JournalEventKind} {
		if kinds[k] == 0 {
			t.Errorf("the fixture's journal holds no record of kind %d (%v)", k, kinds)
		}
	}
}

// cutFormatFixture writes dir as TestParentDataDirBoots describes it, and
// beside it dir.want: the store's digest and each application's
// /v1/diagnose hash as this version served them.
func cutFormatFixture(t *testing.T, dir string) {
	_, b := testBundle(t)
	for _, p := range []string{dir, dir + ".want"} {
		if err := os.RemoveAll(p); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(Config{DataDir: dir, Bundle: b, SnapshotEvery: 150})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	expect := func(what string, code int, body []byte) {
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", what, code, body)
		}
	}
	for i, src := range collector.Sources[:3] {
		if i == 1 {
			code, body := postWire(t, ts, wire.AppendFeed(nil, src, b.Feeds[src]))
			expect(src, code, body)
			continue
		}
		code, body := post(t, ts, "/v1/ingest", IngestRequest{Source: src, Lines: b.Feeds[src]})
		expect(src, code, body)
	}
	ticks := newTickStream(t, ts, b, time.Second)
	events := func() {
		code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: ticks.batch(20)})
		expect("json event batch", code, body)
		ins, err := decodeEvents(ticks.batch(20))
		if err != nil {
			t.Fatal(err)
		}
		code, body = postWire(t, ts, wire.AppendEvents(nil, ins))
		expect("wire event batch", code, body)
	}
	events()
	code, body := post(t, ts, "/v1/finalize", struct{}{})
	expect("finalize", code, body)
	events()
	var hashes strings.Builder
	for _, app := range []string{"bgpflap", "cdn", "pim", "backbone"} {
		code, body := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
		expect("diagnose "+app, code, body)
		fmt.Fprintf(&hashes, "%x  %s\n", sha256.Sum256(body), app)
	}
	digest := wal.StoreDigest(s.Store())
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir+".want", 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{"DIGEST": digest + "\n", "DIAGNOSE": hashes.String()} {
		if err := os.WriteFile(filepath.Join(dir+".want", name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func parentDataDirBoots(t *testing.T, fixture string) {
	digest, err := os.ReadFile(fixture + ".want/DIGEST")
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := os.ReadFile(fixture + ".want/DIAGNOSE")
	if err != nil {
		t.Fatal(err)
	}
	_, b := testBundle(t)
	dir := copyTree(t, fixture)
	reopen := func(what string, wantRefilled bool, want string) *Server {
		t.Helper()
		s, refilled := openRefilled(t, dir, b)
		if rec := s.Recovery(); !rec.Finalized || refilled != wantRefilled {
			t.Fatalf("%s: recovery %+v, boot checkpointed %v, want finalized and %v", what, rec, refilled, wantRefilled)
		}
		if got := wal.StoreDigest(s.Store()); got != want {
			t.Fatalf("%s: digest %s, want %s", what, got, want)
		}
		return s
	}
	for _, c := range []struct {
		what    string
		rebuilt bool
	}{{"as written", false}, {"without its checkpoint", true}} {
		if c.rebuilt {
			removeCheckpoints(t, dir)
		}
		s := reopen(c.what, c.rebuilt, strings.TrimSpace(string(digest)))
		ts := httptest.NewServer(s.Handler())
		var got strings.Builder
		for _, app := range []string{"bgpflap", "cdn", "pim", "backbone"} {
			code, body := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
			if code != http.StatusOK {
				t.Fatalf("%s: diagnose %s: %d %s", c.what, app, code, body)
			}
			fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(body), app)
		}
		ts.Close()
		if got.String() != string(hashes) {
			t.Errorf("%s: diagnose bodies hash to\n%s, the parent version served\n%s", c.what, got.String(), hashes)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// Once more over the files as the parent version left them, so that
	// this version's records land behind its records, not behind a refilled
	// checkpoint's.
	dir = copyTree(t, fixture)
	parentTail := journalTailPaths(dir)
	if len(parentTail) == 0 {
		t.Fatal("the fixture has no tail segment")
	}
	active, size := parentTail[len(parentTail)-1], wal.JournalSize(parentTail[len(parentTail)-1])
	s := openServer(t, dir, b)
	// Nothing is dropped behind this version's checkpoint: the refill below
	// needs the whole journal.
	s.replReg.Attach("parked")
	ts := httptest.NewServer(s.Handler())
	newTickStream(t, ts, b, time.Second).post(2, 10)
	live := wal.StoreDigest(s.Store())
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := wal.JournalSize(active); got <= size {
		t.Fatalf("%s is %d bytes, it was %d: the blocks did not land behind the parent version's records", active, got, size)
	}
	whole := copyTree(t, dir)
	reopen("with this version's records behind its own", false, live).Shutdown(context.Background()) //nolint:errcheck // test teardown
	dir = whole
	removeCheckpoints(t, dir)
	reopen("with this version's records behind its own, without its checkpoint", true, live).Shutdown(context.Background()) //nolint:errcheck // test teardown
}

// TestOutOfRangeFeedLineReplays: a feed line stamped where the logs cannot
// hold it is malformed when it is posted and again when the journal's
// replay re-parses it at boot — the same tallies, the same store — and the
// line beside it is parsed both times.
func TestOutOfRangeFeedLineReplays(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	s := openServer(t, dir, b)
	ts := httptest.NewServer(s.Handler())
	// A line of the corpus's own SNMP feed, and the same line in year 5138.
	good, _, _ := strings.Cut(b.Feeds[collector.SourceSNMP], "\n")
	_, rest, _ := strings.Cut(good, ",")
	feed := good + "\n99999999999," + rest + "\n"
	if code, body := post(t, ts, "/v1/ingest", IngestRequest{Source: collector.SourceSNMP, Lines: feed}); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	ts.Close()
	summary := func(s *Server) collector.SourceStats {
		for _, src := range s.coll.Summary().Sources {
			if src.Source == collector.SourceSNMP {
				return src.SourceStats
			}
		}
		return collector.SourceStats{}
	}
	posted, digest := summary(s), wal.StoreDigest(s.Store())
	if posted.Malformed != 1 || posted.Parsed != 1 {
		t.Fatalf("posted: %+v, want the one line parsed and the other malformed", posted)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s = openServer(t, dir, b)
	defer s.Shutdown(context.Background()) //nolint:errcheck // test teardown
	if got := summary(s); got != posted || wal.StoreDigest(s.Store()) != digest {
		t.Fatalf("replayed: %+v, digest equal %v; posted: %+v", got, wal.StoreDigest(s.Store()) == digest, posted)
	}
}
