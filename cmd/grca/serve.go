package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"grca/internal/obs"
	"grca/internal/platform"
	"grca/internal/server"
	"grca/internal/wal"
)

// serveOptions holds serve's flag values.
type serveOptions struct {
	addr, dataDir, bundleDir, fsync, metricsAddr, replicaOf string
	retention, timeout                                      time.Duration
	snapshotEvery, shards, maxInflight                      int
}

// serveFlags registers serve's flags onto o. It is split from runServe
// so a test can hold README's flag table to exactly this set.
func serveFlags(o *serveOptions) *flag.FlagSet {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable state directory (WAL, snapshots, journal; required)")
	fs.StringVar(&o.bundleDir, "bundle", "", "dataset bundle directory supplying configs + manifest (required)")
	// A vestige like -shards: bench/ passes -fsync batch. Both values name
	// the one policy, the journal's fsync per commit group. ROADMAP item
	// 1(e) deletes it.
	fs.StringVar(&o.fsync, "fsync", "batch", "accepted for compatibility: batch and interval both mean one journal fsync per commit group")
	fs.IntVar(&o.snapshotEvery, "snapshot-every", 50000, "snapshot the store every N WAL records (0 = only on shutdown/eviction)")
	fs.DurationVar(&o.retention, "retention", 0, "evict events older than this behind the stream head (0 = keep everything)")
	// A vestige of the multi-lane pipeline: bench/ passes -shards 1 and may
	// not change with the code it measures. ROADMAP item 1(e) deletes it.
	fs.IntVar(&o.shards, "shards", 1, "accepted for compatibility and must be 1: the commit pipeline is single-lane (DESIGN.md §15)")
	fs.IntVar(&o.maxInflight, "max-inflight", 64, "ingest queue depth; beyond it clients get 429")
	fs.DurationVar(&o.timeout, "request-timeout", 60*time.Second, "per-request applier wait bound")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "",
		"serve expvar/pprof on a dedicated address (e.g. :6060); "+
			"when unset, the same handlers are mounted on the main -addr under /debug/")
	fs.StringVar(&o.replicaOf, "replica-of", "",
		"run as a live read replica of the primary at this base URL (e.g. http://primary:8080); "+
			"writes are redirected there until `grca promote`")
	return fs
}

// runServe starts the durable diagnosis service: the bundle supplies the
// configuration archive and deployment metadata, feeds arrive over HTTP,
// and everything accepted survives restarts via the WAL + ingest journal
// under -data-dir.
func runServe(args []string) error {
	var o serveOptions
	if err := serveFlags(&o).Parse(args); err != nil {
		return err
	}
	if o.dataDir == "" || o.bundleDir == "" {
		return fmt.Errorf("serve: -data-dir and -bundle are required")
	}
	if o.shards != 1 {
		return fmt.Errorf("serve: -shards %d: the commit pipeline is single-lane and multi-shard data dirs are not migrated (DESIGN.md §15)", o.shards)
	}
	if _, err := wal.ParseFsyncPolicy(o.fsync); err != nil {
		return err
	}
	bundle, err := platform.Load(o.bundleDir)
	if err != nil {
		return err
	}
	if o.metricsAddr != "" {
		bound, shutdown, err := obs.ServeDebug(o.metricsAddr)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "metrics: expvar at http://%s/debug/vars, pprof at http://%s/debug/pprof/\n", bound, bound)
	}

	s, err := server.Open(server.Config{
		DataDir:        o.dataDir,
		Bundle:         bundle,
		SnapshotEvery:  o.snapshotEvery,
		Retention:      o.retention,
		MaxInflight:    o.maxInflight,
		RequestTimeout: o.timeout,
		ReplicaOf:      o.replicaOf,
		// No dedicated metrics listener: expose /debug/ on the main
		// address so a single-port deployment still has expvar/pprof.
		Debug: o.metricsAddr == "",
	})
	if err != nil {
		return err
	}
	rec := s.Recovery()
	phase := "loading"
	if rec.Finalized {
		phase = "serving"
	}
	fmt.Fprintf(os.Stderr, "serve: recovered %d batches, %d events (phase %s", rec.Batches, rec.Events, phase)
	if rec.SnapshotsSkipped > 0 {
		fmt.Fprintf(os.Stderr, "; %d unreadable checkpoints skipped", rec.SnapshotsSkipped)
	}
	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	fmt.Fprintf(os.Stderr, "): checkpoint open %v beside head replay %v, tail apply %v over %d journal segments (%d records applied, %d verified), serving install %v\n",
		ms(rec.CheckpointOpen), ms(rec.HeadReplay), ms(rec.TailApply), rec.JournalSegments, rec.TailApplied, rec.TailVerified, ms(rec.ServingInstall))
	if o.replicaOf != "" {
		fmt.Fprintf(os.Stderr, "serve: replica of %s — writes redirect to the primary until promotion\n", o.replicaOf)
	}

	bound, err := s.Start(o.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s (data under %s)\n", bound, o.dataDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(os.Stderr, "serve: %v — draining\n", got)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("serve: shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "serve: stopped cleanly")
	return nil
}

// runPromote flips a running replica into a standalone primary: it
// seals the replication streams, finishes replay, reopens through the
// normal recovery path (which checks the shipped journal against the
// shipped WAL state), and reports the promoted node's store digest.
func runPromote(args []string) error {
	fs := flag.NewFlagSet("promote", flag.ExitOnError)
	addr := fs.String("addr", "", "base URL of the replica to promote (e.g. http://127.0.0.1:8081; required)")
	timeout := fs.Duration("timeout", 5*time.Minute, "how long to wait for the promotion replay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("promote: -addr is required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(*addr, "/")+"/v1/replication/promote", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("promote: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("promote: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var info server.PromoteInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("promote: bad response: %v", err)
	}
	fmt.Printf("promoted: role=%s boot=%s applied_seq=%d\n", info.Role, info.BootID, info.AppliedSeq)
	fmt.Printf("recovered %d batches, %d events (finalized=%v)\n",
		info.Recovery.Batches, info.Recovery.Events, info.Recovery.Finalized)
	// "shard 0" is the form the benchmark's promoted-digest check parses
	// (bench/ may not change with the code it measures; ROADMAP item 1(e)).
	fmt.Printf("shard 0 digest %s\n", info.Digest)
	return nil
}
