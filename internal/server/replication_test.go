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
	"testing"
	"time"

	"grca/internal/wal"
)

// waitReplicaCaughtUp blocks until the follower has applied every
// durably journaled sequence and its WAL sinks reach the primary's
// frontiers.
func waitReplicaCaughtUp(t *testing.T, foll, prim *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		target := int(prim.journaled.Load())
		applied := int(foll.follower.appliedSeq.Load())
		walOK := true
		for i := range prim.shards {
			if int(foll.follower.walNext[i].Load()) < prim.shards[i].log.Frontier() {
				walOK = false
				break
			}
		}
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
// contract at 1 and 4 shards: a follower caught up to a quiesced
// primary has byte-identical per-shard store digests and byte-identical
// diagnose/breakdown bodies, redirects writes to the primary, exposes
// lag gauges, and — promoted — becomes a primary that accepts writes.
func TestReplicaParityAndPromote(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, b := testBundle(t)
			primDir := t.TempDir()
			prim, err := Open(Config{DataDir: primDir, Bundle: b, Shards: shards, SnapshotEvery: 400})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(prim.Handler())
			loadAndFinalize(t, ts, b)
			// Ballast: enough padded ticks that every shard auto-snapshots
			// several times with runs past crumb size, so the follower —
			// attaching only after all of it, hence after compaction — has
			// to bootstrap each shard from a snapshot of several runs.
			ballastAt := b.Start.Add(b.Duration).Add(30 * time.Minute)
			for i := 0; i < 4*shards; i++ {
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
			for i := 0; i < shards; i++ {
				runs, err := filepath.Glob(filepath.Join(wal.SnapDirOf(shardDir(primDir, shards, i)), "run-*.run"))
				if err != nil || len(runs) < 3 {
					t.Fatalf("primary shard %d holds %d snapshot runs (%v), want ≥ 3", i, len(runs), err)
				}
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
				DataDir: t.TempDir(), Bundle: b, Shards: shards,
				ReplicaOf: ts.URL,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts2 := httptest.NewServer(foll.Handler())
			waitReplicaCaughtUp(t, foll, prim)

			// Byte-identical state: merged and per-shard digests.
			if got, want := wal.StoreDigest(foll.st), wal.StoreDigest(prim.st); got != want {
				t.Fatalf("merged store digest differs: follower %s, primary %s", got, want)
			}
			for i := range prim.shards {
				got, want := wal.StoreDigest(foll.shards[i].st), wal.StoreDigest(prim.shards[i].st)
				if got != want {
					t.Fatalf("shard %d digest differs: follower %s, primary %s", i, got, want)
				}
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
			if rs.Role != "replica" || rs.Primary != ts.URL || len(rs.ShardLag) != shards {
				t.Fatalf("replica status = %s", body)
			}
			for _, lag := range rs.ShardLag {
				if lag.SnapBootstraps == 0 {
					t.Fatalf("shard %d caught up without a snapshot bootstrap: %s", lag.Shard, body)
				}
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
			if info.Role != "primary" || len(info.Digests) != shards {
				t.Fatalf("promote info = %s", body)
			}
			for i := range prim.shards {
				if want := wal.StoreDigest(prim.shards[i].st); info.Digests[i] != want {
					t.Fatalf("promoted shard %d digest %s, want %s", i, info.Digests[i], want)
				}
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
}

// TestFailoverPromoteMatchesCleanReplay kills the primary abruptly
// (connections severed, no shutdown), promotes the follower, and checks
// the promoted node against a clean single-node replay of the
// follower's own journal: identical per-shard digests and identical
// diagnose/breakdown bodies. Then the old primary's directory is
// reopened as a replica of the promoted node, and refused.
func TestFailoverPromoteMatchesCleanReplay(t *testing.T) {
	_, b := testBundle(t)
	const shards = 2
	primDir, follDir, cleanDir := t.TempDir(), t.TempDir(), t.TempDir()
	prim, err := Open(Config{DataDir: primDir, Bundle: b, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(prim.Handler())
	loadAndFinalize(t, ts, b)

	foll, err := Open(Config{
		DataDir: follDir, Bundle: b, Shards: shards,
		ReplicaOf: ts.URL,
	})
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

	// Clean replay: the follower's journal, copied verbatim into a fresh
	// data dir, opened as a plain single node.
	data, err := os.ReadFile(journalPath(follDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath(cleanDir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cleanDir, "SHARDS"), []byte("2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	clean, err := Open(Config{DataDir: cleanDir, Bundle: b, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	tsClean := httptest.NewServer(clean.Handler())

	for i := range clean.shards {
		if want := wal.StoreDigest(clean.shards[i].st); info.Digests[i] != want {
			t.Fatalf("promoted shard %d digest %s != clean replay %s", i, info.Digests[i], want)
		}
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
	ex, err := Open(Config{DataDir: primDir, Bundle: b, Shards: shards, ReplicaOf: ts2.URL})
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
// wipes the shipped state — the root journal and every shard's WAL —
// and keeps the follower's stable ID. A previous version's per-shard
// journal is not shipped state: it is left for checkShardMarker to
// refuse, never silently deleted. Nor is anything in a dir that has no
// marker at all.
func TestPrepareReplicaState(t *testing.T) {
	// No marker but serving state on disk: a primary wrote it. Refused,
	// nothing deleted, no marker stamped.
	for _, rel := range []string{"journal.log", "shard-1/wal", "shard-0/snap"} {
		exDir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(exDir, rel), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := prepareReplicaState(exDir, 2, "boot-a"); !errors.Is(err, ErrPrimaryHistory) {
			t.Fatalf("dir holding %s: err %v, want ErrPrimaryHistory", rel, err)
		}
		_, gone := os.Stat(filepath.Join(exDir, rel))
		if _, err := os.Stat(replicaFile(exDir)); gone != nil || !os.IsNotExist(err) {
			t.Fatalf("refusal over %s: state stat %v, marker stat %v", rel, gone, err)
		}
	}

	dir := t.TempDir()
	id1, err := prepareReplicaState(dir, 2, "boot-a")
	if err != nil {
		t.Fatal(err)
	}
	if id1 == "" {
		t.Fatal("empty follower id")
	}
	jp, walDir := journalPath(dir), filepath.Join(shardDir(dir, 2, 1), "wal")
	old := journalPath(shardDir(dir, 2, 1))
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{jp, old} {
		if err := os.WriteFile(p, []byte("journal"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Same boot: state survives, ID is stable.
	id2, err := prepareReplicaState(dir, 2, "boot-a")
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id1 {
		t.Fatalf("follower id changed across same-boot reopen: %q -> %q", id1, id2)
	}
	if _, err := os.Stat(jp); err != nil {
		t.Fatalf("journal wiped on same-boot reopen: %v", err)
	}
	// New boot: shipped state wiped, ID still stable.
	id3, err := prepareReplicaState(dir, 2, "boot-b")
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id1 {
		t.Fatalf("follower id changed across resync: %q -> %q", id1, id3)
	}
	for _, p := range []string{jp, walDir} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived a boot-ID change: %v", p, err)
		}
	}
	if _, err := os.Stat(old); err != nil {
		t.Fatalf("old per-shard journal deleted by the resync wipe: %v", err)
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
