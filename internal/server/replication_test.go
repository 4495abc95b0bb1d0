package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grca/internal/obs"
	"grca/internal/replica"
	"grca/internal/wal"
)

// waitReplicaCaughtUp blocks until the follower has applied every
// durably journaled sequence.
func waitReplicaCaughtUp(t *testing.T, foll, prim *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		target := int(prim.journaled.Load())
		applied := int(foll.follower.Load().appliedSeq.Load())
		if applied >= target {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stalled: applied seq %d, want %d", applied, target)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaParityAndPromote is the replication subsystem's core
// contract: a follower caught up to a quiesced primary has a
// byte-identical store digest and byte-identical diagnose/breakdown
// bodies, redirects writes to the primary, exposes lag gauges, and —
// promoted — becomes a primary that accepts writes.
func TestReplicaParityAndPromote(t *testing.T) {
	// Shards: 1 is how bench/ opens a server; most tests leave it 0.
	t.Run("shards=1", func(t *testing.T) {
		_, b := testBundle(t)
		prim, err := Open(Config{DataDir: t.TempDir(), Bundle: b, Shards: 1, SnapshotEvery: 400})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(prim.Handler())
		loadAndFinalize(t, ts, b)
		// Feeds, finalize, and both event encodings: every journal
		// record kind reaches the follower's stream apply, the applier
		// crash recovery's replay shares.
		for i, evs := range lifecycleBatches(b) {
			code, body := postLifecycleBatch(t, ts, i, evs)
			if code != http.StatusOK {
				t.Fatalf("event batch %d: %d %s", i, code, body)
			}
		}

		foll, err := Open(Config{
			DataDir: t.TempDir(), Bundle: b, Shards: 1,
			ReplicaOf: ts.URL,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts2 := httptest.NewServer(foll.Handler())
		waitReplicaCaughtUp(t, foll, prim)

		// Byte-identical state.
		if got, want := wal.StoreDigest(foll.st), wal.StoreDigest(prim.st); got != want {
			t.Fatalf("store digest differs: follower %s, primary %s", got, want)
		}

		// Byte-identical read surfaces.
		for _, app := range []string{"bgpflap", "cdn", "pim", "backbone"} {
			code, pbody := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
			if code != http.StatusOK {
				t.Fatalf("primary diagnose %s: %d %s", app, code, pbody)
			}
			code, fbody := post(t, ts2, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
			if code != http.StatusOK {
				t.Fatalf("replica diagnose %s: %d %s", app, code, fbody)
			}
			if !bytes.Equal(pbody, fbody) {
				t.Fatalf("diagnose %s differs between primary and replica", app)
			}
			code, pbody = get(t, ts, "/v1/breakdown?app="+app)
			if code != http.StatusOK {
				t.Fatalf("primary breakdown %s: %d %s", app, code, pbody)
			}
			code, fbody = get(t, ts2, "/v1/breakdown?app="+app)
			if code != http.StatusOK {
				t.Fatalf("replica breakdown %s: %d %s", app, code, fbody)
			}
			if !bytes.Equal(pbody, fbody) {
				t.Fatalf("breakdown %s differs between primary and replica", app)
			}
		}

		// Write fencing: ingest and finalize 307 to the primary.
		noRedirect := &http.Client{
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		}
		resp, err := noRedirect.Post(ts2.URL+"/v1/ingest", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("replica ingest status %d, want 307", resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != ts.URL+"/v1/ingest" {
			t.Fatalf("redirect location %q, want %q", loc, ts.URL+"/v1/ingest")
		}

		// Replication status and lag gauges.
		code, body := get(t, ts2, "/v1/replication/status")
		if code != http.StatusOK {
			t.Fatalf("replication status: %d %s", code, body)
		}
		var rs ReplicationStatusJSON
		if err := json.Unmarshal(body, &rs); err != nil {
			t.Fatal(err)
		}
		if rs.Role != "replica" || rs.Primary != ts.URL || len(rs.ShardLag) != 1 {
			t.Fatalf("replica status = %s", body)
		}
		// Caught up, the replay stands where the primary's store does.
		if got, want := rs.ShardLag[0].WALNext, prim.st.NextID(); got != want {
			t.Fatalf("the caught-up replica's replay stands at event %d, the primary's store at %d: %s", got, want, body)
		}
		code, body = get(t, ts, "/v1/replication/status")
		if code != http.StatusOK {
			t.Fatalf("primary replication status: %d %s", code, body)
		}
		if err := json.Unmarshal(body, &rs); err != nil {
			t.Fatal(err)
		}
		// One follower, on one stream.
		if rs.Role != "primary" || len(rs.Followers) != 1 || rs.Followers[0].Streams != 1 {
			t.Fatalf("primary status = %s", body)
		}
		code, body = get(t, ts2, "/v1/stats")
		if code != http.StatusOK {
			t.Fatalf("replica stats: %d", code)
		}
		if !bytes.Contains(body, []byte("replica.follower.applied.seq")) {
			t.Fatalf("replica stats carry no lag gauges")
		}

		// Promote: the replica becomes a primary in place and accepts writes.
		code, body = post(t, ts2, "/v1/replication/promote", struct{}{})
		if code != http.StatusOK {
			t.Fatalf("promote: %d %s", code, body)
		}
		var info PromoteInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if want := wal.StoreDigest(prim.st); info.Role != "primary" || info.Digest != want {
			t.Fatalf("promote info = %s, want a primary with the store digest %s", body, want)
		}
		// The node that answered is the primary now, under the new boot ID.
		code, body = get(t, ts2, "/v1/replication/status")
		if err := json.Unmarshal(body, &rs); err != nil || code != http.StatusOK || rs.Role != "primary" || rs.BootID != info.BootID {
			t.Fatalf("post-promote status: %d %s, want a primary with boot ID %s", code, body, info.BootID)
		}
		code, body = post(t, ts2, "/v1/ingest", IngestRequest{Events: lifecycleBatches(b)[0]})
		if code != http.StatusOK {
			t.Fatalf("post-promote ingest: %d %s", code, body)
		}

		ts2.Close()
		if err := foll.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		ts.Close()
		if err := prim.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFailoverPromoteMatchesCleanReplay kills the primary abruptly
// (connections severed, no shutdown), promotes the follower, and checks
// the promoted node against a clean single-node replay of the
// follower's own journal: identical store digests and identical
// diagnose/breakdown bodies. Then the old primary's directory is
// reopened as a replica of the promoted node, and refused.
func TestFailoverPromoteMatchesCleanReplay(t *testing.T) {
	_, b := testBundle(t)
	primDir, follDir, cleanDir := t.TempDir(), t.TempDir(), t.TempDir()
	prim := openServer(t, primDir, b)
	ts := httptest.NewServer(prim.Handler())
	loadAndFinalize(t, ts, b)

	foll, err := Open(Config{DataDir: follDir, Bundle: b, ReplicaOf: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(foll.Handler())

	// Ingest riding while replication streams: post every batch, then cut
	// the primary without any graceful handoff.
	for i, evs := range lifecycleBatches(b) {
		code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: evs})
		if code != http.StatusOK {
			t.Fatalf("event batch %d: %d %s", i, code, body)
		}
	}
	waitReplicaCaughtUp(t, foll, prim)
	ts.CloseClientConnections()
	ts.Close()

	code, body := post(t, ts2, "/v1/replication/promote", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("promote: %d %s", code, body)
	}
	var info PromoteInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}

	// Clean replay: the follower's journal — segment 0 and the tail it
	// rolled where the primary rolled — copied verbatim into a fresh data
	// dir beside its FORMAT, opened as a plain single node.
	files := append([]string{wal.JournalHead(follDir)}, journalTailPaths(follDir)...)
	if len(files) < 2 {
		t.Fatalf("the follower's journal is %v: it did not roll behind finalize", files)
	}
	for _, f := range append(files, formatPath(follDir)) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cleanDir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	clean := openServer(t, cleanDir, b)
	tsClean := httptest.NewServer(clean.Handler())

	if want := wal.StoreDigest(clean.st); info.Digest != want {
		t.Fatalf("promoted digest %s != clean replay %s", info.Digest, want)
	}
	for _, app := range []string{"bgpflap", "cdn", "pim", "backbone"} {
		code, pbody := post(t, ts2, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
		if code != http.StatusOK {
			t.Fatalf("promoted diagnose %s: %d %s", app, code, pbody)
		}
		code, cbody := post(t, tsClean, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
		if code != http.StatusOK {
			t.Fatalf("clean diagnose %s: %d %s", app, code, cbody)
		}
		if !bytes.Equal(pbody, cbody) {
			t.Fatalf("diagnose %s differs between promoted node and clean replay", app)
		}
		code, pbody = get(t, ts2, "/v1/breakdown?app="+app)
		if code != http.StatusOK {
			t.Fatalf("promoted breakdown %s: %d %s", app, code, pbody)
		}
		code, cbody = get(t, tsClean, "/v1/breakdown?app="+app)
		if code != http.StatusOK {
			t.Fatalf("clean breakdown %s: %d %s", app, code, cbody)
		}
		if !bytes.Equal(pbody, cbody) {
			t.Fatalf("breakdown %s differs between promoted node and clean replay", app)
		}
	}

	// The promoted node is a writable primary.
	code, body = post(t, ts2, "/v1/ingest", IngestRequest{Events: lifecycleBatches(b)[0]})
	if code != http.StatusOK {
		t.Fatalf("post-promote ingest: %d %s", code, body)
	}
	code, body = get(t, ts2, "/v1/replication/status")
	if code != http.StatusOK {
		t.Fatalf("post-promote status: %d", code)
	}
	var rs ReplicationStatusJSON
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Role != "primary" {
		t.Fatalf("post-promote role %q, want primary", rs.Role)
	}

	// The old primary comes back pointed at the node that replaced it.
	// Its journal may hold acknowledged records that never shipped, so it
	// is refused as a replica, and its directory is left as it was.
	if err := prim.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	journal, _ := os.ReadFile(wal.JournalHead(primDir))
	ex, err := Open(Config{DataDir: primDir, Bundle: b, ReplicaOf: ts2.URL})
	if !errors.Is(err, ErrPrimaryHistory) {
		if err == nil {
			ex.Shutdown(context.Background()) //nolint:errcheck // test teardown
		}
		t.Fatalf("ex-primary dir opened as a replica: err %v, want ErrPrimaryHistory", err)
	}
	after, _ := os.ReadFile(wal.JournalHead(primDir))
	if _, err := os.Stat(replicaFile(primDir)); !os.IsNotExist(err) || len(journal) == 0 || !bytes.Equal(journal, after) {
		t.Fatalf("refused open touched the dir: marker stat %v, journal %d -> %d bytes", err, len(journal), len(after))
	}

	tsClean.Close()
	if err := clean.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	if err := foll.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareReplicaState covers the REPLICA marker: a boot-ID change
// wipes the shipped state — the root journal, head and tail segments, and
// the checkpoints — and keeps the follower's stable ID. Nothing in a dir that has
// no marker at all is shipped state: it is refused, never deleted.
func TestPrepareReplicaState(t *testing.T) {
	// No marker but serving state on disk: a primary wrote it. Refused,
	// nothing deleted, no marker stamped.
	for _, rel := range []string{"journal.log", "journal-0000000000000042.log", "snap"} {
		exDir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(exDir, rel), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := prepareReplicaState(exDir, "boot-a"); !errors.Is(err, ErrPrimaryHistory) {
			t.Fatalf("dir holding %s: err %v, want ErrPrimaryHistory", rel, err)
		}
		_, gone := os.Stat(filepath.Join(exDir, rel))
		if _, err := os.Stat(replicaFile(exDir)); gone != nil || !os.IsNotExist(err) {
			t.Fatalf("refusal over %s: state stat %v, marker stat %v", rel, gone, err)
		}
	}

	// A marker torn by a crash — its temp file left, never renamed — is no
	// marker: beside an empty dir it is a fresh follower's.
	dir := t.TempDir()
	if err := os.WriteFile(replicaFile(dir)+".tmp", []byte("boot-"), 0o644); err != nil {
		t.Fatal(err)
	}
	id1, err := prepareReplicaState(dir, "boot-a")
	if err != nil {
		t.Fatal(err)
	}
	if id1 == "" {
		t.Fatal("empty follower id")
	}
	// The marker is written through a temp file and a rename: none is left.
	if left, _ := filepath.Glob(replicaFile(dir) + ".*"); len(left) != 0 {
		t.Fatalf("prepare left %v beside the marker", left)
	}
	jp, snapDir := wal.JournalHead(dir), wal.SnapDirOf(dir)
	tailSeg := filepath.Join(dir, "journal-0000000000000042.log")
	tailSeg2 := filepath.Join(dir, "journal-0000000000000043.log")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snapDir, "snap-0000000000000009.snap"), []byte("manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{jp, tailSeg, tailSeg2} {
		if err := os.WriteFile(p, []byte("journal"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Same boot: state survives, ID is stable.
	id2, err := prepareReplicaState(dir, "boot-a")
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id1 {
		t.Fatalf("follower id changed across same-boot reopen: %q -> %q", id1, id2)
	}
	for _, p := range []string{jp, tailSeg, snapDir} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("shipped state wiped on same-boot reopen: %v", err)
		}
	}
	// New boot: shipped state wiped, ID still stable.
	id3, err := prepareReplicaState(dir, "boot-b")
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id1 {
		t.Fatalf("follower id changed across resync: %q -> %q", id1, id3)
	}
	if data, err := os.ReadFile(replicaFile(dir)); err != nil || string(data) != "boot-b\n"+id1+"\n" {
		t.Fatalf("marker after resync: %q, %v", data, err)
	}
	if left, _ := filepath.Glob(replicaFile(dir) + ".*"); len(left) != 0 {
		t.Fatalf("prepare left %v beside the marker", left)
	}
	// The tail segments too: left behind, they would replay as the tail of
	// whatever head the new incarnation ships. The marker alone stays.
	for _, p := range []string{jp, tailSeg, tailSeg2, snapDir} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived a boot-ID change: %v", p, err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 1 || left[0] != replicaFile(dir) {
		t.Fatalf("the resync left %v, want the marker alone", left)
	}
}

// TestStaleMarkerTempFiles: a crash inside a marker's replace leaves
// FORMAT.tmp or REPLICA.tmp behind, holding anything. Neither is a marker:
// a dir holding both opens as a primary and as a replica, fresh or not,
// and reads the real markers beside them.
func TestStaleMarkerTempFiles(t *testing.T) {
	_, b := testBundle(t)
	plant := func(dir string) {
		t.Helper()
		for _, p := range []string{formatPath(dir) + ".tmp", replicaFile(dir) + ".tmp"} {
			if err := os.WriteFile(p, []byte("garbage a crash left\x00\xff"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func(path string) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	format := strconv.Itoa(replica.ProtocolVersion) + "\n"

	// A primary, fresh and reopened.
	primDir := t.TempDir()
	plant(primDir)
	prim := openServer(t, primDir, b)
	if got := read(formatPath(primDir)); got != format {
		t.Fatalf("the fresh primary's FORMAT reads %q, want %q", got, format)
	}
	ts := httptest.NewServer(prim.Handler())
	loadAndFinalize(t, ts, b)
	ts.Close()
	if err := prim.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	plant(primDir)
	prim = openServer(t, primDir, b)
	defer prim.Shutdown(context.Background()) //nolint:errcheck // test teardown
	if prim.follower.Load() != nil || !prim.isFinalized() {
		t.Fatal("the primary did not reopen as the finalized primary it was")
	}
	if _, err := os.Stat(replicaFile(primDir)); !os.IsNotExist(err) {
		t.Fatalf("the primary holds a REPLICA marker: %v", err)
	}
	ts = httptest.NewServer(prim.Handler())
	defer ts.Close()

	// A replica, fresh and reopened: the same marker, and nothing wiped.
	follDir := t.TempDir()
	plant(follDir)
	foll, err := Open(Config{DataDir: follDir, Bundle: b, ReplicaOf: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	waitReplicaCaughtUp(t, foll, prim)
	marker := read(replicaFile(follDir))
	if !strings.HasPrefix(marker, prim.bootID+"\n") || read(formatPath(follDir)) != format {
		t.Fatalf("the fresh replica's markers read %q and %q", marker, read(formatPath(follDir)))
	}
	if err := foll.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	plant(follDir)
	foll, err = Open(Config{DataDir: follDir, Bundle: b, ReplicaOf: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer foll.Shutdown(context.Background()) //nolint:errcheck // test teardown
	if got := read(replicaFile(follDir)); got != marker {
		t.Fatalf("the reopened replica's marker reads %q, want %q", got, marker)
	}
	if got, want := foll.st.Len(), prim.st.Len(); got != want {
		t.Fatalf("the reopened replica recovered %d events, the primary holds %d", got, want)
	}
	waitReplicaCaughtUp(t, foll, prim)
	if got, want := wal.StoreDigest(foll.st), wal.StoreDigest(prim.st); got != want {
		t.Fatalf("the reopened replica's store digest is %s, the primary's %s", got, want)
	}
}

// TestDivergentRollVoidsMarker: a tail segment header whose first event ID
// is not where the follower's replay stands means the same records led
// somewhere else here. The stream stops for good, the REPLICA marker loses
// its boot ID and keeps its stream ID, and the next Open against the same
// primary takes the shipped state for another incarnation's: it wipes the
// journal and the checkpoints, recovers nothing, and catches up afresh.
func TestDivergentRollVoidsMarker(t *testing.T) {
	shrinkJournal(t, 2<<10)
	_, b := testBundle(t)
	prim, err := Open(Config{DataDir: t.TempDir(), Bundle: b, SnapshotEvery: 150})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Shutdown(context.Background()) //nolint:errcheck // test teardown
	// forged is the event ID a forged segment header claims; at 0 the
	// journal stream is the primary's, behind the gate.
	var forged atomic.Int64
	g := newGate()
	h := prim.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replication/journal" {
			h.ServeHTTP(w, r)
			return
		}
		if id := int(forged.Load()); id != 0 {
			from, err := strconv.Atoi(r.URL.Query().Get("from"))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			hdr := wal.AppendJournalSegmentHeader(nil, wal.JournalSegmentHeader{FirstSeq: from + 1, FirstID: id, Front: id})
			w.Write(replica.AppendJournalRec(replica.AppendHello(nil, prim.bootID, replica.StreamJournal, from), hdr)) //nolint:errcheck // test server
			return
		}
		h.ServeHTTP(gatedWriter{w, g}, r)
	}))
	defer ts.Close()
	defer g.set(false) // runs first: a parked stream must end before ts.Close waits on it
	loadAndFinalize(t, ts, b)
	k := newTickStream(t, ts, b, time.Second)
	k.post(20, 40)

	dir := t.TempDir()
	foll, err := Open(Config{DataDir: dir, Bundle: b, ReplicaOf: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	waitReplicaCaughtUp(t, foll, prim)
	marker, err := os.ReadFile(replicaFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(marker), "\n")
	if len(lines) != 3 || lines[0] != prim.bootID || lines[1] == "" {
		t.Fatalf("the caught-up follower's marker reads %q", marker)
	}
	tails, _ := filepath.Glob(filepath.Join(dir, "journal-*.log"))
	snaps, _ := filepath.Glob(filepath.Join(wal.SnapDirOf(dir), "*"))
	if len(tails) == 0 || len(snaps) == 0 {
		t.Fatalf("the follower holds %d tail segments and %d checkpoint files; the test needs both", len(tails), len(snaps))
	}

	// Cut the stream; the reconnect is handed a roll to an event ID the
	// replay does not stand at.
	at := foll.st.NextID()
	forged.Store(int64(at + 7))
	ts.CloseClientConnections()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(foll.follower.Load().status(foll).StreamError, "restart the replica to resync") {
		if time.Now().After(deadline) {
			t.Fatalf("the divergent roll did not stop the stream: %+v", foll.follower.Load().status(foll))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := foll.st.NextID(); got != at {
		t.Fatalf("the divergent roll moved the replay from event ID %d to %d", at, got)
	}
	if data, err := os.ReadFile(replicaFile(dir)); err != nil || string(data) != "\n"+lines[1]+"\n" {
		t.Fatalf("the voided marker reads %q (%v), want no boot ID and the stream ID %q", data, err, lines[1])
	}
	if err := foll.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Reopened with the stream parked, the follower has wiped what it was
	// shipped and recovered an empty store; released, it catches up.
	forged.Store(0)
	g.set(true)
	foll, err = Open(Config{DataDir: dir, Bundle: b, ReplicaOf: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer foll.Shutdown(context.Background()) //nolint:errcheck // test teardown
	defer g.set(false)                        // runs first: Shutdown waits for the parked stream
	for _, p := range append(tails, snaps...) {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived the reopen over a voided marker: %v", p, err)
		}
	}
	if n := wal.JournalSize(wal.JournalHead(dir)); n != 0 {
		t.Errorf("the reopen over a voided marker kept %d bytes of journal.log", n)
	}
	if n := foll.st.Len(); n != 0 {
		t.Fatalf("the reopened follower recovered %d events from the state it was to wipe", n)
	}
	if data, err := os.ReadFile(replicaFile(dir)); err != nil || string(data) != prim.bootID+"\n"+lines[1]+"\n" {
		t.Fatalf("the reopened follower's marker reads %q (%v)", data, err)
	}
	g.set(false)
	waitReplicaCaughtUp(t, foll, prim)
	if got, want := wal.StoreDigest(foll.st), wal.StoreDigest(prim.st); got != want {
		t.Fatalf("the resynced follower's store digest is %s, the primary's %s", got, want)
	}
}

// TestFetchPrimaryMetaTimesOut: a primary that accepts the connection
// and never answers must fail the rendezvous after its bounded attempts
// instead of hanging a starting follower forever.
func TestFetchPrimaryMetaTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // held, never read or answered, until the test ends
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, err := fetchPrimaryMeta("http://"+ln.Addr().String(), 20*time.Millisecond, time.Millisecond)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("black-hole primary produced a meta document")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fetchPrimaryMeta still blocked on a primary that never answers")
	}
}

// compareReplica holds a caught-up follower against its quiesced primary:
// the store digest and the diagnose and breakdown bodies of every
// application, byte for byte.
func compareReplica(t *testing.T, prim, foll *Server, ts, ts2 *httptest.Server) {
	t.Helper()
	if got, want := wal.StoreDigest(foll.st), wal.StoreDigest(prim.st); got != want {
		t.Fatalf("store digest differs: follower %s (%d events), primary %s (%d events)",
			got, foll.st.Len(), want, prim.st.Len())
	}
	for _, app := range []string{"bgpflap", "cdn", "pim", "backbone"} {
		_, pbody := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
		code, fbody := post(t, ts2, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
		if code != http.StatusOK || !bytes.Equal(pbody, fbody) {
			t.Fatalf("diagnose %s differs between primary and replica (replica answered %d)", app, code)
		}
		_, pbody = get(t, ts, "/v1/breakdown?app="+app)
		code, fbody = get(t, ts2, "/v1/breakdown?app="+app)
		if code != http.StatusOK || !bytes.Equal(pbody, fbody) {
			t.Fatalf("breakdown %s differs between primary and replica (replica answered %d):\n%s\n---\n%s", app, code, pbody, fbody)
		}
	}
}

// imageCutter is a journal stream's ResponseWriter that ends the stream
// inside the checkpoint image: the chunk that carries the image's start is
// cut at byte at of the image, and nothing goes out after it.
type imageCutter struct {
	http.ResponseWriter
	at  int
	cut bool
}

func (w *imageCutter) Write(p []byte) (int, error) {
	if w.cut {
		return 0, errors.New("cut")
	}
	var out []byte
	for rest := p; len(rest) > 0 && !w.cut; { // a stream write is whole frames
		payload, r2, ok := wal.ReadFrame(rest)
		if !ok {
			return 0, errors.New("a stream write that is not whole frames")
		}
		rest = r2
		if m, err := replica.ParseMsg(payload); err == nil && m.Type == replica.MsgSnapChunk && len(m.Chunk) > w.at {
			out, w.cut = replica.AppendSnapChunk(out, m.Chunk[:w.at]), true
			continue
		}
		out = wal.AppendFrame(out, payload)
	}
	if _, err := w.ResponseWriter.Write(out); err != nil || w.cut {
		return 0, errors.Join(err, errors.New("cut"))
	}
	return len(p), nil
}

func (w *imageCutter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// snapshotImage reads the newest checkpoint under dir as a primary ships
// it: the manifest and every run it references, byte for byte.
func snapshotImage(t *testing.T, dir string) []byte {
	t.Helper()
	im, err := wal.OpenSnapshotImage(dir)
	if err != nil || im == nil {
		t.Fatalf("no checkpoint image under %s: %v", dir, err)
	}
	defer im.Close()
	data, err := io.ReadAll(im)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// snapFiles lists the files under dir's snap/ matching pattern, by name.
func snapFiles(t *testing.T, dir, pattern string) map[string]os.FileInfo {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(wal.SnapDirOf(dir), pattern))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]os.FileInfo{}
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			out[filepath.Base(p)] = fi
		}
	}
	return out
}

// TestLateFollowerBootstrapsFromCheckpoint: a follower that attaches, on
// an empty directory, to a primary whose journal has long dropped the
// segments behind its snapshots is sent segment 0, a store checkpoint, and
// the retained tail — and lands on the primary's store and read surfaces.
// The checkpoint is kept as the files it was sent as, byte for byte, and
// nothing of it is written again, then or at the follower's next roll;
// a first stream cut inside the image leaves a temp file and no manifest,
// and the install's compaction removes it. Its directory then restarts to
// the same store without another bootstrap, and promotes to a primary
// holding it.
func TestLateFollowerBootstrapsFromCheckpoint(t *testing.T) {
	shrinkJournal(t, 2<<10)
	// Shards: 1 is how bench/ opens a server; most tests leave it 0.
	t.Run("shards=1", func(t *testing.T) {
		_, b := testBundle(t)
		prim, err := Open(Config{DataDir: t.TempDir(), Bundle: b, Shards: 1, SnapshotEvery: 150})
		if err != nil {
			t.Fatal(err)
		}
		defer prim.Shutdown(context.Background()) //nolint:errcheck // test teardown
		// The follower needs the journal stream alone: no other replication
		// route of the primary answers it. Its first stream is cut inside the
		// checkpoint image's first run, its second waits until the test has
		// looked at what the cut left, and every later one passes a gate.
		h := prim.Handler()
		cutter, g := &imageCutter{}, newGate()
		var streams atomic.Int32
		resume := make(chan struct{})
		var resumeOnce sync.Once
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			p := r.URL.Path
			if strings.HasPrefix(p, "/v1/replication/") && p != "/v1/replication/meta" && p != "/v1/replication/journal" {
				http.NotFound(w, r)
				return
			}
			if p == "/v1/replication/journal" {
				switch streams.Add(1) {
				case 1:
					cutter.ResponseWriter = w
					w = cutter
				case 2:
					select {
					case <-resume:
					case <-r.Context().Done():
						return
					}
					fallthrough
				default:
					w = gatedWriter{w, g}
				}
			}
			h.ServeHTTP(w, r)
		}))
		defer ts.Close()
		defer resumeOnce.Do(func() { close(resume) })
		loadAndFinalize(t, ts, b)
		dropped := obs.GetCounter("journal.segments.dropped").Value()
		// Symptoms and their evidence first, so they sit in dropped
		// segments; then ballast over many segments and snapshots.
		for i, evs := range lifecycleBatches(b) {
			if code, body := postLifecycleBatch(t, ts, i, evs); code != http.StatusOK {
				t.Fatalf("event batch %d: %d %s", i, code, body)
			}
		}
		k := newTickStream(t, ts, b, time.Second)
		k.at = k.at.Add(200 * time.Hour) // past the lifecycle's drain tick
		k.post(3, 4000)                  // segments past crumb size: runs that are journal segments
		k.post(80, 40)
		if got := obs.GetCounter("journal.segments.dropped").Value() - dropped; got < 3 {
			t.Fatalf("the primary dropped %d journal segments, want at least 3 truncations before the follower attaches", got)
		}
		// The checkpoint ships as one image over several runs, adopted
		// journal segments among them.
		runs, err := filepath.Glob(filepath.Join(wal.SnapDirOf(prim.cfg.DataDir), "run-*.run"))
		if err != nil || len(runs) < 3 {
			t.Fatalf("the primary's snapshot spans %d runs (%v), want ≥ 3", len(runs), err)
		}
		adopted := 0
		for _, r := range runs {
			if _, ok, err := wal.ReadJournalSegmentHeader(r); err == nil && ok {
				adopted++
			}
		}
		if adopted == 0 {
			t.Fatalf("none of the primary's %d runs is a journal segment", len(runs))
		}
		// The cut: the image's manifest, as the primary's snap/ holds it, and
		// 64 bytes of its first run.
		next, ok, err := wal.LatestSnapshot(prim.cfg.DataDir)
		if err != nil || !ok {
			t.Fatalf("the primary holds no checkpoint: %v", err)
		}
		man, err := os.Stat(filepath.Join(wal.SnapDirOf(prim.cfg.DataDir), fmt.Sprintf("snap-%016d.snap", next)))
		if err != nil {
			t.Fatal(err)
		}
		cutter.at = int(man.Size()) + 64
		primImage := snapshotImage(t, prim.cfg.DataDir)

		follDir := t.TempDir()
		loaded := mReplCheckpoints.Value()
		runsWritten := obs.GetCounter("wal.snapshot.runs.written")
		written := runsWritten.Value()
		fcfg := Config{DataDir: follDir, Bundle: b, Shards: 1, ReplicaOf: ts.URL}
		foll, err := Open(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		first := foll // shut down below; here only when the test fails first
		defer func() {
			resumeOnce.Do(func() { close(resume) }) // its stream may be parked
			if first != nil {
				first.Shutdown(context.Background()) //nolint:errcheck // test teardown
			}
		}()
		for deadline := time.Now().Add(30 * time.Second); len(snapFiles(t, follDir, "run-*.tmp")) == 0; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the cut stream left no partial run in the follower's snap/")
			}
		}
		if m := snapFiles(t, follDir, "snap-*.snap"); len(m) != 0 {
			t.Fatalf("the stream cut inside a run left manifests %v", m)
		}
		resumeOnce.Do(func() { close(resume) })
		ts2 := httptest.NewServer(foll.Handler())
		waitReplicaCaughtUp(t, foll, prim)
		if got := mReplCheckpoints.Value() - loaded; got != 1 {
			t.Fatalf("the late follower loaded %d checkpoints, want 1", got)
		}
		compareReplica(t, prim, foll, ts, ts2)
		// The primary has been idle: what the follower's snap/ holds is what
		// it was sent, nothing was written from its store, and the install's
		// compaction took the cut's temp file.
		if !bytes.Equal(snapshotImage(t, follDir), primImage) {
			t.Fatal("the follower's newest checkpoint is not, byte for byte, the primary's manifest and runs")
		}
		if got := runsWritten.Value() - written; got != 0 {
			t.Fatalf("the bootstrap wrote %d runs from the store", got)
		}
		if tmp := snapFiles(t, follDir, "run-*.tmp"); len(tmp) != 0 {
			t.Fatalf("temp files %v outlived the install's compaction", tmp)
		}
		if got, want := foll.jour.Offset(), prim.jour.Offset(); got != want {
			t.Fatalf("follower's journal stands at logical byte %d, the primary's at %d", got, want)
		}
		if files, _ := journalFiles(t, follDir); len(files) < 2 {
			t.Fatalf("the follower's journal is %v: it did not roll where the primary rolled", files)
		}
		// A crash between the checkpoint and the local roll that replaces the
		// tail: the checkpoint durable in snap/, the journal still
		// journal.log alone. (The checkpoints of the follower's later rolls
		// stand in for it: each reaches past journal.log's end just the same.)
		cut := copyTree(t, follDir)
		if snaps, _ := filepath.Glob(filepath.Join(wal.SnapDirOf(cut), "snap-*.snap")); len(snaps) == 0 {
			t.Fatal("the follower holds no checkpoint manifest")
		}
		for _, p := range journalTailPaths(cut) {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}

		// More of the stream, live, through the frontier filter's far side,
		// and rolls: primary and follower checkpoint the same store over the
		// same manifest, so they write the same runs — the primary before
		// each batch's answer, the follower once its stream is let through —
		// and no run the follower was sent is written again.
		sent, manifests := snapFiles(t, follDir, "run-*.run"), snapFiles(t, follDir, "snap-*.snap")
		g.set(true)
		written = runsWritten.Value()
		k.post(5, 40)
		primWrote := runsWritten.Value() - written
		g.set(false)
		waitReplicaCaughtUp(t, foll, prim)
		compareReplica(t, prim, foll, ts, ts2)
		if follWrote := runsWritten.Value() - written - primWrote; follWrote != primWrote {
			t.Fatalf("the follower's rolls wrote %d runs, its primary's %d", follWrote, primWrote)
		}
		rolled := false
		for name := range snapFiles(t, follDir, "snap-*.snap") {
			rolled = rolled || manifests[name] == nil
		}
		if !rolled {
			t.Fatal("the follower took no checkpoint while the stream went on")
		}
		if !bytes.Equal(snapshotImage(t, follDir), snapshotImage(t, prim.cfg.DataDir)) {
			t.Fatal("the follower's checkpoint after its roll is not the primary's")
		}
		for name, fi := range snapFiles(t, follDir, "run-*.run") {
			if was := sent[name]; was != nil && !os.SameFile(was, fi) {
				t.Fatalf("the follower wrote run %s it was sent again", name)
			}
		}

		// Restart from its own directory: the journal begins behind a
		// checkpoint, so its own checkpoint of that is what it stands on.
		ts2.Close()
		first = nil
		if err := foll.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		active := activeRecords(t, follDir)
		foll, err = Open(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		defer foll.Shutdown(context.Background()) //nolint:errcheck // test teardown
		ts2 = httptest.NewServer(foll.Handler())
		defer ts2.Close()
		// It stands on its own checkpoint: the sealed tail is verified
		// against it, and only the active segment — which a follower, rolling
		// where its primary rolls, never checkpoints — is applied.
		if rec := foll.Recovery(); rec.TailVerified == 0 || rec.TailApplied != active {
			t.Fatalf("the restarted follower did not stand on its own checkpoint: %+v, %d records in its active segment", rec, active)
		}
		waitReplicaCaughtUp(t, foll, prim)
		if got := mReplCheckpoints.Value() - loaded; got != 1 {
			t.Fatalf("the restart bootstrapped again (%d checkpoints loaded in all)", got)
		}
		compareReplica(t, prim, foll, ts, ts2)

		code, body := post(t, ts2, "/v1/replication/promote", struct{}{})
		if code != http.StatusOK {
			t.Fatalf("promote: %d %s", code, body)
		}
		var info PromoteInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if want := wal.StoreDigest(prim.st); info.Digest != want {
			t.Fatalf("promoted digest %s, want the primary's %s (%+v)", info.Digest, want, info)
		}
		if code, body := post(t, ts2, "/v1/ingest", IngestRequest{Events: k.batch(10)}); code != http.StatusOK {
			t.Fatalf("post-promote ingest: %d %s", code, body)
		}

		// The crash cut reopens standing on the snapshot, or — its journal
		// ends before what the snapshot holds — refilled from that journal
		// and bootstrapped again by name; in no case with a hole (no
		// retention here: every ID below the replay's frontier is live).
		loaded = mReplCheckpoints.Value()
		fcfg.DataDir = cut
		cutFoll, err := Open(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cutFoll.Shutdown(context.Background()) //nolint:errcheck // test teardown
		t.Logf("the crash cut reopened: %+v", cutFoll.Recovery())
		if n, next := cutFoll.st.Len(), cutFoll.st.NextID(); n != next {
			t.Fatalf("the crash cut reopened with %d events below ID %d (%+v)", n, next, cutFoll.Recovery())
		}
		ts3 := httptest.NewServer(cutFoll.Handler())
		defer ts3.Close()
		waitReplicaCaughtUp(t, cutFoll, prim)
		if got := mReplCheckpoints.Value() - loaded; got != 1 {
			t.Fatalf("the crash cut loaded %d checkpoints to catch up, want 1 (%+v)", got, cutFoll.Recovery())
		}
		compareReplica(t, prim, cutFoll, ts, ts3)
	})
}

// gate parks whatever writes through it while it is shut.
type gate struct {
	mu   sync.Mutex
	cond *sync.Cond
	shut bool
}

func newGate() *gate {
	g := &gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gate) set(shut bool) {
	g.mu.Lock()
	g.shut = shut
	g.mu.Unlock()
	g.cond.Broadcast()
}

// gatedWriter is a stream's ResponseWriter behind a gate.
type gatedWriter struct {
	http.ResponseWriter
	g *gate
}

func (w gatedWriter) Write(p []byte) (int, error) {
	w.g.mu.Lock()
	for w.g.shut {
		w.g.cond.Wait()
	}
	w.g.mu.Unlock()
	return w.ResponseWriter.Write(p)
}

func (w gatedWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestLaggingFollowerPinsJournal: a journal stream parked mid-journal
// keeps every segment it has yet to read on the primary's disk, through
// as many snapshots as go by; released, it ships them all with no gap and
// no bootstrap, and they go. Past the hard cap the primary stops waiting:
// the oldest segments are dropped from under the parked stream, which
// ends at the gap instead of shipping across it, and the reconnect brings
// the follower back through a checkpoint.
func TestLaggingFollowerPinsJournal(t *testing.T) {
	shrinkJournal(t, 2<<10)
	_, b := testBundle(t)
	primDir := t.TempDir()
	prim, err := Open(Config{DataDir: primDir, Bundle: b, SnapshotEvery: 150})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Shutdown(context.Background()) //nolint:errcheck // test teardown
	g := newGate()
	h := prim.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/replication/") && r.URL.Path != "/v1/replication/meta" {
			w = gatedWriter{w, g} // every stream the follower holds
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	loadAndFinalize(t, ts, b)
	k := newTickStream(t, ts, b, time.Second)
	k.post(20, 40)

	foll, err := Open(Config{DataDir: t.TempDir(), Bundle: b, ReplicaOf: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer foll.Shutdown(context.Background()) //nolint:errcheck // test teardown
	ts2 := httptest.NewServer(foll.Handler())
	defer ts2.Close()
	// The last defer, so the first to run: a failure with the stream parked
	// must release it before ts.Close waits on that stream's handler.
	defer g.set(false)
	waitReplicaCaughtUp(t, foll, prim)
	loaded := mReplCheckpoints.Value()
	droppedCtr := obs.GetCounter("journal.segments.dropped")
	files := func() int { paths, _ := journalFiles(t, primDir); return len(paths) }
	waitFiles := func(what string, ok func(n int) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !ok(files()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the primary holds %d journal files", what, files())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Parked: segments pile up behind the stream, across many checkpoints.
	g.set(true)
	before, snaps, floor := files(), obs.GetCounter("wal.snapshots").Value(), olderManifest(t, primDir)
	k.post(40, 40)
	if got := obs.GetCounter("wal.snapshots").Value() - snaps; got < 6 {
		t.Fatalf("%d checkpoints while the stream was parked, want several", got)
	}
	if got := files(); got < before+12 {
		t.Fatalf("%d journal files with the stream parked, %d before: segments the follower has yet to read were dropped", got, before)
	}
	// The journal is all a follower pins: the primary's checkpoints move
	// on behind their own rolls.
	if got := olderManifest(t, primDir); got <= floor {
		t.Fatalf("with the stream parked the primary's older manifest stayed at ID %d (%d before)", got, floor)
	}
	applied := foll.follower.Load().appliedSeq.Load()
	g.set(false)
	waitReplicaCaughtUp(t, foll, prim)
	if foll.follower.Load().appliedSeq.Load() < applied+30 {
		t.Fatalf("the follower applied up to %d while parked at about %d: the stream was not parked", foll.follower.Load().appliedSeq.Load(), applied)
	}
	if got := mReplCheckpoints.Value() - loaded; got != 0 {
		t.Fatalf("the released follower loaded %d checkpoints, want none: every segment was kept for it", got)
	}
	compareReplica(t, prim, foll, ts, ts2)
	k.post(1, 40) // a commit group: the pass that drops what the follower now holds
	waitReplicaCaughtUp(t, foll, prim)
	waitFiles("released and caught up", func(n int) bool { return n <= before+3 })

	// Past the hard cap the pin stops holding.
	prim.pinCap.Store(3)
	g.set(true)
	dropped := droppedCtr.Value()
	k.post(40, 40)
	if got := droppedCtr.Value() - dropped; got < 8 {
		t.Fatalf("%d journal segments dropped past a cap of 3 with the stream parked, want the tail to keep going", got)
	}
	g.set(false)
	waitReplicaCaughtUp(t, foll, prim)
	if got := mReplCheckpoints.Value() - loaded; got != 1 {
		t.Fatalf("the follower loaded %d checkpoints after the cap dropped segments from under its stream, want 1", got)
	}
	compareReplica(t, prim, foll, ts, ts2)
}

// TestFollowerJournalBounded is TestJournalBoundedUnderRetention on a
// follower: it snapshots its own store on the primary's schedule and drops
// its own journal behind its own older manifest, so over twenty retention
// windows its journal stays segment 0 plus what lies above that manifest
// plus one segment, its snap/ stays compacted, and a restart stands on its
// own checkpoint — no tail record applied but the active segment's, which
// a follower never checkpoints — to the live store.
func TestFollowerJournalBounded(t *testing.T) {
	const (
		segBytes  = 4 << 10
		retention = 10 * time.Minute
		step      = 30 * time.Second // 20 batches a window
		per       = 40
		batches   = 20 * 20
	)
	shrinkJournal(t, segBytes)
	_, b := testBundle(t)
	prim, err := Open(Config{DataDir: t.TempDir(), Bundle: b, Retention: retention, SnapshotEvery: 300})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(prim.Handler())
	defer ts.Close()
	defer prim.Shutdown(context.Background()) //nolint:errcheck // test teardown
	loadAndFinalize(t, ts, b)

	follDir := t.TempDir()
	fcfg := Config{DataDir: follDir, Bundle: b, Retention: retention, SnapshotEvery: 300, ReplicaOf: ts.URL}
	foll, err := Open(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	waitReplicaCaughtUp(t, foll, prim)
	head := wal.JournalSize(wal.JournalHead(follDir))
	dropped := obs.GetCounter("journal.segments.dropped").Value()

	// Each batch's journal bytes — the follower journals the primary's
	// records verbatim — and the last event ID it allocated.
	type journaled struct {
		bytes  int64
		lastID int
	}
	var log []journaled
	k := newTickStream(t, ts, b, step)
	for i := 0; i < batches; i++ {
		before := prim.jour.Offset()
		k.post(1, per)
		log = append(log, journaled{prim.jour.Offset() - before, prim.st.NextID() - 1})
	}
	waitReplicaCaughtUp(t, foll, prim)
	want := wal.StoreDigest(foll.st)
	if want != wal.StoreDigest(prim.st) {
		t.Fatal("the caught-up follower's store differs from the primary's")
	}
	ever := foll.jour.Offset()
	if err := foll.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	floor := olderManifest(t, follDir)
	var since int64
	for _, j := range log {
		if j.lastID >= floor {
			since += j.bytes
		}
	}
	files, onDisk := journalFiles(t, follDir)
	bound := head + since + segBytes + 2*log[0].bytes + int64(len(files))*64
	if onDisk > bound {
		t.Fatalf("the follower's journal holds %d bytes in %d files; segment 0 (%d) + records since its older manifest at ID %d (%d) + one segment allows %d",
			onDisk, len(files), head, floor, since, bound)
	}
	// Over the tail: journal.log, the feeds, is kept whole and would
	// dominate a ratio over everything.
	if tail, everTail := onDisk-head, ever-head; tail > everTail/4 {
		t.Fatalf("the follower's journal tail holds %d of the %d bytes ever journaled behind finalize: it is not following retention", tail, everTail)
	}
	if got := obs.GetCounter("journal.segments.dropped").Value() - dropped; got < 20 {
		t.Fatalf("%d journal segments dropped over %d batches, want at least 20", got, batches)
	}
	snaps, _ := filepath.Glob(filepath.Join(wal.SnapDirOf(follDir), "snap-*.snap"))
	if _, err := os.Stat(wal.WALDirOf(follDir)); !os.IsNotExist(err) || len(snaps) > 2 {
		t.Fatalf("the follower holds %d manifests (want ≤ 2), and wal/: %v", len(snaps), err)
	}

	active := activeRecords(t, follDir)
	foll, err = Open(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer foll.Shutdown(context.Background()) //nolint:errcheck // test teardown
	if rec := foll.Recovery(); rec.TailApplied != active || rec.JournalSegments != len(files) {
		t.Fatalf("restart: %+v with %d journal files on disk, %d records in the active segment", rec, len(files), active)
	}
	if got := wal.StoreDigest(foll.st); got != want {
		t.Fatal("the follower reopened from its own checkpoint + tail differs from its live store")
	}
}

// TestMixedVersionPeersRefused: a follower pointed at a protocol-4 to -9
// primary is refused by the hello's version before a record is applied —
// a v5 primary's event batches are the JSON and wire bodies this follower
// still reads, a v7 primary's raw feed records are ones it still reads too,
// and the refusal stands on the version alone — and a primary of this
// version opens its stream with a hello whose version comes first, which
// an older follower's ParseMsg refuses the same way, before it reads
// anything else (a v7 follower could not apply the DEFLATE feed records
// behind it).
func TestMixedVersionPeersRefused(t *testing.T) {
	_, b := testBundle(t)
	rec := wal.AppendJournalRecord(nil, wal.JournalRecord{Kind: wal.JournalFinalizeKind})
	for _, v := range []byte{4, 5, 6, 7, 8, 9} {
		old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/replication/meta":
				writeJSON(w, http.StatusOK, ReplicationMetaJSON{BootID: "old-boot", Shards: 1,
					Sealed: []int{0}, JournalBytes: []int64{0}, WALNext: []int{0}})
			case "/v1/replication/journal":
				// What a primary of that version sends a follower resuming at -1.
				hello := []byte{replica.MsgHello, v, 8, 'o', 'l', 'd', '-', 'b', 'o', 'o', 't', replica.StreamJournal, 1}
				w.Write(replica.AppendJournalRec(wal.AppendFrame(nil, hello), rec)) //nolint:errcheck // test server
			default:
				http.NotFound(w, r)
			}
		}))
		foll, err := Open(Config{DataDir: t.TempDir(), Bundle: b, ReplicaOf: old.URL})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for !strings.Contains(foll.follower.Load().status(foll).StreamError, fmt.Sprintf("protocol version %d", v)) {
			if time.Now().After(deadline) {
				t.Fatalf("a protocol-%d primary's stream was not refused by its version: %+v", v, foll.follower.Load().status(foll))
			}
			time.Sleep(5 * time.Millisecond)
		}
		if applied, journaled := foll.follower.Load().appliedSeq.Load(), foll.jour.Offset(); applied != -1 || journaled != 0 {
			t.Fatalf("the refused protocol-%d stream applied up to sequence %d and journaled %d bytes", v, applied, journaled)
		}
		if err := foll.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		old.Close()
	}

	prim := openServer(t, t.TempDir(), b)
	ts := httptest.NewServer(prim.Handler())
	defer ts.Close()
	defer prim.Shutdown(context.Background()) //nolint:errcheck // test teardown
	resp, err := http.Get(ts.URL + "/v1/replication/journal?id=v4&from=-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	first, err := wal.NewFrameReader(resp.Body).Next()
	if err != nil || len(first) < 2 || first[0] != replica.MsgHello || first[1] != replica.ProtocolVersion {
		t.Fatalf("the stream opens with %v (%v), want a hello whose first field is version %d", first, err, replica.ProtocolVersion)
	}
}

// TestJournalCursorBelowFresh: a journal stream request whose cursor is
// below -1, a fresh follower's, is a 400 that registers no follower, so
// it cannot set a negative pin under the real followers; -1 streams.
func TestJournalCursorBelowFresh(t *testing.T) {
	_, b := testBundle(t)
	prim := openServer(t, t.TempDir(), b)
	ts := httptest.NewServer(prim.Handler())
	defer ts.Close()
	defer prim.Shutdown(context.Background()) //nolint:errcheck // test teardown
	for _, from := range []string{"-2", "-9223372036854775808"} {
		resp, err := http.Get(ts.URL + "/v1/replication/journal?id=bad&from=" + from)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("from=%s: %d, want 400", from, resp.StatusCode)
		}
	}
	if fs := prim.replReg.Status(); len(fs) != 0 {
		t.Fatalf("a refused cursor registered followers %+v", fs)
	}
	if pin := prim.replReg.PinJournal(); pin != -1 {
		t.Fatalf("a refused cursor pinned the journal at %d", pin)
	}
	resp, err := http.Get(ts.URL + "/v1/replication/journal?id=fresh&from=-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	first, err := wal.NewFrameReader(resp.Body).Next()
	if resp.StatusCode != http.StatusOK || err != nil || len(first) < 1 || first[0] != replica.MsgHello {
		t.Fatalf("from=-1: %d, first frame %v (%v); want a hello", resp.StatusCode, first, err)
	}
}

// TestDepartedFollowerDetached: a follower that closes its journal stream,
// the primary still up, reads as disconnected within two journal polls
// (50 ms each) — its stream ends on the request's context, not at the next
// write that fails — and its pin's grace clock starts at the close, not
// at the stream's last shipment.
func TestDepartedFollowerDetached(t *testing.T) {
	_, b := testBundle(t)
	prim := openServer(t, t.TempDir(), b)
	ts := httptest.NewServer(prim.Handler())
	defer ts.Close()
	defer prim.Shutdown(context.Background()) //nolint:errcheck // test teardown
	resp, err := http.Get(ts.URL + "/v1/replication/journal?id=gone&from=-1")
	if err != nil {
		t.Fatal(err)
	}
	if first, err := wal.NewFrameReader(resp.Body).Next(); err != nil || len(first) < 1 || first[0] != replica.MsgHello {
		t.Fatalf("first frame %v (%v); want a hello", first, err)
	}
	status := func() replica.FollowerStatus {
		t.Helper()
		code, body := get(t, ts, "/v1/replication/status")
		var rs ReplicationStatusJSON
		if err := json.Unmarshal(body, &rs); err != nil || code != http.StatusOK || len(rs.Followers) != 1 {
			t.Fatalf("replication status: %d %s (%v), want one follower", code, body, err)
		}
		return rs.Followers[0]
	}
	if f := status(); !f.Connected {
		t.Fatalf("the streaming follower reads %+v, want connected", f)
	}
	time.Sleep(200 * time.Millisecond) // an idle stream: the grace clock would run from here

	closed := time.Now()
	resp.Body.Close()
	f := status()
	for f.Connected && time.Since(closed) < 100*time.Millisecond {
		time.Sleep(2 * time.Millisecond)
		f = status()
	}
	if f.Connected {
		t.Fatalf("%v after the follower closed its stream it reads %+v, want disconnected", time.Since(closed), f)
	}
	if since := time.Since(closed).Seconds(); f.IdleSecs > since {
		t.Fatalf("the departed follower has been idle %.3f s by its row, but closed its stream %.3f s ago: the grace clock did not start at the close", f.IdleSecs, since)
	}
}
