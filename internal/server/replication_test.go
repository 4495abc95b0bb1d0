package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"grca/internal/obs"
	"grca/internal/wal"
)

// waitReplicaCaughtUp blocks until the follower has applied every
// durably journaled sequence and its WAL sink reaches the primary's
// frontier.
func waitReplicaCaughtUp(t *testing.T, foll, prim *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		target := int(prim.journaled.Load())
		applied := int(foll.follower.appliedSeq.Load())
		walOK := int(foll.follower.walNext.Load()) >= prim.log.Frontier()
		if applied >= target && walOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stalled: applied seq %d, want %d (wal caught up: %v)", applied, target, walOK)
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
		primDir := t.TempDir()
		prim, err := Open(Config{DataDir: primDir, Bundle: b, Shards: 1, SnapshotEvery: 400})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(prim.Handler())
		loadAndFinalize(t, ts, b)
		// Ballast: enough padded ticks that the store auto-snapshots
		// several times with runs past crumb size, so the follower —
		// attaching only after all of it, hence after compaction — has
		// to bootstrap its WAL from a snapshot of several runs.
		ballastAt := b.Start.Add(b.Duration).Add(30 * time.Minute)
		for i := 0; i < 4; i++ {
			evs := make([]EventJSON, 400)
			for j := range evs {
				n := i*len(evs) + j
				at := ballastAt.Add(time.Duration(n) * time.Millisecond)
				evs[j] = EventJSON{
					Name: "synthetic tick", Start: at, End: at,
					Loc:   LocationJSON{Type: "router", A: fmt.Sprintf("load-r%d", n%97)},
					Attrs: map[string]string{"pad": strings.Repeat("p", 200)},
				}
			}
			if code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: evs}); code != http.StatusOK {
				t.Fatalf("ballast batch %d: %d %s", i, code, body)
			}
		}
		runs, err := filepath.Glob(filepath.Join(wal.SnapDirOf(primDir), "run-*.run"))
		if err != nil || len(runs) < 3 {
			t.Fatalf("the primary holds %d snapshot runs (%v), want ≥ 3", len(runs), err)
		}
		// Feeds, finalize, and both event encodings: every journal
		// record kind reaches the follower's stream apply and, at the
		// promotion's reopen, crash recovery's replay — the shared
		// applier's two callers.
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
		if rs.ShardLag[0].SnapBootstraps == 0 {
			t.Fatalf("the WAL stream caught up without a snapshot bootstrap: %s", body)
		}
		code, body = get(t, ts, "/v1/replication/status")
		if code != http.StatusOK {
			t.Fatalf("primary replication status: %d %s", code, body)
		}
		if err := json.Unmarshal(body, &rs); err != nil {
			t.Fatal(err)
		}
		if rs.Role != "primary" || len(rs.Followers) == 0 {
			t.Fatalf("primary status = %s", body)
		}
		code, body = get(t, ts2, "/v1/stats")
		if code != http.StatusOK {
			t.Fatalf("replica stats: %d", code)
		}
		if !bytes.Contains(body, []byte("replica.follower.applied.seq")) {
			t.Fatalf("replica stats carry no lag gauges")
		}

		// Promote: the replica reopens as a primary and accepts writes.
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
	// dir, opened as a plain single node.
	files := append([]string{journalPath(follDir)}, journalTailPaths(follDir)...)
	if len(files) < 2 {
		t.Fatalf("the follower's journal is %v: it did not roll behind finalize", files)
	}
	for _, f := range files {
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
	journal, _ := os.ReadFile(journalPath(primDir))
	ex, err := Open(Config{DataDir: primDir, Bundle: b, ReplicaOf: ts2.URL})
	if !errors.Is(err, ErrPrimaryHistory) {
		if err == nil {
			ex.Shutdown(context.Background()) //nolint:errcheck // test teardown
		}
		t.Fatalf("ex-primary dir opened as a replica: err %v, want ErrPrimaryHistory", err)
	}
	after, _ := os.ReadFile(journalPath(primDir))
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
// the WAL — and keeps the follower's stable ID. Nothing in a dir that has
// no marker at all is shipped state: it is refused, never deleted.
func TestPrepareReplicaState(t *testing.T) {
	// No marker but serving state on disk: a primary wrote it. Refused,
	// nothing deleted, no marker stamped.
	for _, rel := range []string{"journal.log", "journal-0000000000000042.log", "wal", "snap"} {
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

	dir := t.TempDir()
	id1, err := prepareReplicaState(dir, "boot-a")
	if err != nil {
		t.Fatal(err)
	}
	if id1 == "" {
		t.Fatal("empty follower id")
	}
	jp, walDir := journalPath(dir), wal.WALDirOf(dir)
	tailSeg := filepath.Join(dir, "journal-0000000000000042.log")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{jp, tailSeg} {
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
	for _, p := range []string{jp, tailSeg, walDir} {
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
	// The tail segment too: left behind, it would replay as the tail of
	// whatever head the new incarnation ships.
	for _, p := range []string{jp, tailSeg, walDir} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived a boot-ID change: %v", p, err)
		}
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

// TestLateFollowerBootstrapsFromCheckpoint: a follower that attaches, on
// an empty directory, to a primary whose journal has long dropped the
// segments behind its snapshots is sent segment 0, a store checkpoint, and
// the retained tail — and lands on the primary's store
// and read surfaces. Its directory then restarts to the same store
// without another bootstrap, and promotes to a primary holding it.
func TestLateFollowerBootstrapsFromCheckpoint(t *testing.T) {
	shrinkJournal(t, 8<<10)
	// Shards: 1 is how bench/ opens a server; most tests leave it 0.
	t.Run("shards=1", func(t *testing.T) {
		_, b := testBundle(t)
		prim, err := Open(Config{DataDir: t.TempDir(), Bundle: b, Shards: 1, SnapshotEvery: 150})
		if err != nil {
			t.Fatal(err)
		}
		defer prim.Shutdown(context.Background()) //nolint:errcheck // test teardown
		ts := httptest.NewServer(prim.Handler())
		defer ts.Close()
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
		k.post(40, 40)
		if got := obs.GetCounter("journal.segments.dropped").Value() - dropped; got < 3 {
			t.Fatalf("the primary dropped %d journal segments, want at least 3 truncations before the follower attaches", got)
		}

		follDir := t.TempDir()
		loaded := mReplCheckpoints.Value()
		fcfg := Config{DataDir: follDir, Bundle: b, Shards: 1, ReplicaOf: ts.URL}
		foll, err := Open(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		ts2 := httptest.NewServer(foll.Handler())
		waitReplicaCaughtUp(t, foll, prim)
		if got := mReplCheckpoints.Value() - loaded; got != 1 {
			t.Fatalf("the late follower loaded %d checkpoints, want 1", got)
		}
		compareReplica(t, prim, foll, ts, ts2)
		if got, want := foll.jour.Offset(), prim.jour.Offset(); got != want {
			t.Fatalf("follower's journal stands at logical byte %d, the primary's at %d", got, want)
		}
		if files, _ := journalFiles(t, follDir); len(files) < 2 {
			t.Fatalf("the follower's journal is %v: it did not roll where the primary rolled", files)
		}

		// More of the stream, live, through the frontier filter's far side.
		k.post(5, 40)
		waitReplicaCaughtUp(t, foll, prim)
		compareReplica(t, prim, foll, ts, ts2)

		// Restart from its own directory: the journal begins behind a
		// checkpoint, so the sink's shipped state is what it stands on.
		ts2.Close()
		if err := foll.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		foll, err = Open(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		defer foll.Shutdown(context.Background()) //nolint:errcheck // test teardown
		ts2 = httptest.NewServer(foll.Handler())
		defer ts2.Close()
		if rec := foll.Recovery(); rec.TailApplied+rec.TailVerified == 0 || rec.Batches == 0 {
			t.Fatalf("the restarted follower replayed nothing of its own journal: %+v", rec)
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
			t.Fatalf("promoted digest %s, want the primary's %s (%+v)", info.Digest, want, info.Recovery)
		}
		if code, body := post(t, ts2, "/v1/ingest", IngestRequest{Events: k.batch(10)}); code != http.StatusOK {
			t.Fatalf("post-promote ingest: %d %s", code, body)
		}
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
	shrinkJournal(t, 8<<10)
	_, b := testBundle(t)
	primDir := t.TempDir()
	prim, err := Open(Config{DataDir: primDir, Bundle: b, SnapshotEvery: 150})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Shutdown(context.Background()) //nolint:errcheck // test teardown
	g := newGate()
	defer g.set(false)
	h := prim.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replication/journal" {
			w = gatedWriter{w, g}
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

	// Parked: segments pile up behind the stream, across many snapshots.
	g.set(true)
	before, snaps := files(), obs.GetCounter("wal.snapshots").Value()
	k.post(40, 40)
	if got := obs.GetCounter("wal.snapshots").Value() - snaps; got < 6 {
		t.Fatalf("%d snapshots while the stream was parked, want several", got)
	}
	if got := files(); got < before+12 {
		t.Fatalf("%d journal files with the stream parked, %d before: segments the follower has yet to read were dropped", got, before)
	}
	applied := foll.follower.appliedSeq.Load()
	g.set(false)
	waitReplicaCaughtUp(t, foll, prim)
	if foll.follower.appliedSeq.Load() < applied+30 {
		t.Fatalf("the follower applied up to %d while parked at about %d: the stream was not parked", foll.follower.appliedSeq.Load(), applied)
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
