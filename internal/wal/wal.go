// Package wal gives the G-RCA event store durability. The paper's
// platform ran as a shared service continuously fed by many applications
// (§II); this package is what lets the reproduction survive a restart
// without replaying raw feeds.
//
// The serving pipeline writes each batch once, to the ingest journal
// (journal.go): CRC32C-framed records, the feed phase in journal.log and
// everything after it in tail segments. Its checkpoints (Checkpointer,
// snapshot.go) are manifests over immutable ID-range runs, and a sealed
// tail segment whose events are all still live is adopted as its range's
// run by hard link. Recovery is the newest readable checkpoint plus the
// journal's tail.
//
// This package is the one codec of both formats, on disk and on the
// replication stream alike. A journal record is read and written through
// ParseJournalRecord and AppendJournalRecord, with the kind table beside
// them (journal.go), by the serving pipeline, the replication source and
// follower and the segment header and run readers here. A checkpoint is
// read by restoreSnapshot at every boot, run by run into the store; a
// follower writes the one its primary streams into its own snap/ as the
// very files it was sent (ImageWriter, ship.go) and installs it through
// that same reader (Checkpointer.Install).
//
// Log, the event WAL below — a segmented write-ahead log of normalized
// instances that a store's append hook feeds, with its own snapshots — is
// a vestige: no server writes it, and its record append and segments stay
// only because bench/ still drives them (ROADMAP item 1(b)). Open also
// reads a server's data dir: with no segment there, it is the newest
// checkpoint alone.
//
// # Layout and invariants of the event WAL
//
//	<dir>/wal/seg-<firstID>.log          record file, IDs ascending from firstID
//	<dir>/snap/snap-<nextID>.snap        manifest of the snapshot covering IDs < nextID
//	<dir>/snap/run-<lo>-<hi>-<count>.run immutable run: the instances live in [lo, hi)
//
// Segments and runs are one kind of file — a record file: the magic
// frame, then one block frame per commit group (or per maxBlockEvents of
// one), each a group's instances in the ingest journal's event-block
// encoding behind their IDs (encode.go). Record files an earlier version
// wrote hold one legacy record per frame; they are read, never appended
// to. So a snapshot seals the active segment and hard-links it under
// snap/ as its newest run instead of writing the records again
// (snapshot.go). A sealed segment is immutable: no append and no
// truncation ever lands in an inode a run shares.
//
// Every frame carries its store IDs explicitly: the IDs a store holds
// ascend strictly but may be sparse, so position in the log cannot
// determine the ID. The log observes every insert through the store's
// append hook, rejects any ID regression, and encodes what it kept at the
// flush. Recovery restores the newest readable snapshot, then replays
// exactly the records with ID ≥ the snapshot's next-ID. A torn final
// frame (crash mid-write) is truncated, not fatal: the recovered store is
// the longest committed prefix of the log, a torn group lost whole.
// Snapshots make the segments below them redundant, so Snapshot deletes
// them — with the store's retention eviction triggering snapshots, disk
// usage stays bounded the same way the store's window bounds memory.
//
// # Concurrency
//
// One Log serves one Store. Inserts may come from any goroutine (the
// append hook buffers under the log's own lock), but Commit, Snapshot,
// and Close are meant to be driven by a single owner — the serving
// pipeline's applier loop.
package wal

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"grca/internal/event"
	"grca/internal/obs"
	"grca/internal/store"
)

// Durability metrics: commits are the groups written, fsyncs the segments
// sealed (the journal's group fsync, not the log's, is the commit point);
// pending records are what the next Commit will write.
var (
	mAppends    = obs.GetCounter("wal.appends")
	mCommits    = obs.GetCounter("wal.commits")
	mFsyncs     = obs.GetCounter("wal.fsyncs")
	mSnapshots  = obs.GetCounter("wal.snapshots")
	mCompacted  = obs.GetCounter("wal.segments.compacted")
	mPending    = obs.GetGauge("wal.pending.records")
	mCommitSecs = obs.GetHistogram("wal.commit.seconds", obs.LatencyBuckets)

	// Snapshot write amplification: bytes is everything written under
	// snap/ (manifests, and the runs that had to be written from the
	// store; adopting a sealed segment links it and writes nothing);
	// adopted and written against reused runs says how much of each
	// snapshot was delta. failed counts snapshots that returned an error,
	// unreadable the ones recovery had to skip.
	mSnapBytes       = obs.GetCounter("wal.snapshot.bytes")
	mSnapRunsWritten = obs.GetCounter("wal.snapshot.runs.written")
	mSnapRunsAdopted = obs.GetCounter("wal.snapshot.runs.adopted")
	mSnapRunsReused  = obs.GetCounter("wal.snapshot.runs.reused")
	mSnapFailed      = obs.GetCounter("wal.snapshots.failed")
	mSnapUnreadable  = obs.GetCounter("wal.snapshots.unreadable")
)

// FsyncPolicy is a vestige: the log has one durability behaviour, and
// both policies name it. It stays because bench/ passes FsyncBatch and
// may not change with the code it measures; ROADMAP item 1(e) deletes it.
type FsyncPolicy string

const (
	// FsyncBatch and FsyncInterval both mean what the log always does:
	// Commit writes a group's frames and syncs nothing, and a segment is
	// synced once, when it is sealed. The serving pipeline fsyncs the
	// ingest journal ahead of every Commit, so a kill -9 never needed the
	// log's sync (the page cache survives it), and after a power cut boot
	// re-applies from the journal what the log had not sealed.
	FsyncBatch    FsyncPolicy = "batch"
	FsyncInterval FsyncPolicy = "interval"
)

// ParseFsyncPolicy resolves a policy name as written on the command line.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(strings.ToLower(strings.TrimSpace(s))) {
	case FsyncBatch:
		return FsyncBatch, nil
	case FsyncInterval:
		return FsyncInterval, nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (have batch, interval)", s)
}

// Options tunes a Log. The zero value takes every documented default.
type Options struct {
	// Fsync is ignored: see FsyncPolicy.
	Fsync FsyncPolicy
	// SegmentBytes is the soft segment-rotation threshold (default 64MiB);
	// flushes rotate between frames, so a segment only exceeds it by the
	// last frame written to it.
	SegmentBytes int64
	// SnapshotEvery, when positive, auto-snapshots after that many
	// records have been committed since the last snapshot. Zero leaves
	// snapshots to explicit Snapshot calls (shutdown, eviction hooks).
	SnapshotEvery int
	// Retention, when positive, is the store's retention window. It is
	// applied to the store before recovery so that replay re-evicts
	// exactly as the original run did — recovering with a different
	// retention than the log was written under yields a different store.
	Retention time.Duration
}

func (o *Options) defaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
}

// Recovery reports what Open reconstructed.
type Recovery struct {
	// SnapshotNext is the next-ID bound of the snapshot restored (0 =
	// started from an empty store).
	SnapshotNext int
	// SnapshotLive is how many live instances the snapshot held.
	SnapshotLive int
	// SnapshotsSkipped is how many newer snapshots were unreadable and
	// passed over on the way to the one restored (or to none).
	SnapshotsSkipped int
	// LostBelow, when positive, says the recovered store may have a hole:
	// compaction removes the segments wholly below the older retained
	// manifest, so with neither that manifest nor a newer one readable the
	// records below its next-ID bound — this value — are in no file this
	// recovery could read. The log alone cannot fill it; the serving
	// pipeline refills the store from the ingest journal, or refuses it.
	LostBelow int
	// Replayed is how many tail records were replayed from segments.
	Replayed int
	// TruncatedBytes is how much torn tail was cut off the log.
	TruncatedBytes int64
	// DroppedSegments counts whole segments discarded beyond a torn
	// record.
	DroppedSegments int
}

// segInfo is what the log knows of one segment file without reading it
// back: the IDs of its first and last record, how many it holds, and the
// size and CRC32C of the whole file, kept as flushLocked writes (recovery
// re-derives them for the segments it reads). It is everything a manifest
// entry says of a run, which is what lets a snapshot adopt the file.
type segInfo struct {
	path        string
	first, last int
	count       int
	size        int64
	crc         uint32
}

// Log is an open write-ahead log bound to one store.
type Log struct {
	dir  string
	opts Options
	st   *store.Memory

	mu        sync.Mutex
	pend      []event.Instance // appended since the last flush, IDs ascending
	buf       []byte           // the frame being written, reused
	seg       *os.File         // active segment; nil between a seal and the next flush
	cur       segInfo          // the active segment so far
	sealed    []segInfo        // closed segments holding records no snapshot covers yet
	nextSeq   int              // lowest ID the next appended record may carry
	sinceSnap int              // records committed since the latest durable snapshot
	closed    bool
	err       error // first write/sync failure; sticky

	snapMu sync.Mutex // serializes Snapshot end to end
	// snap is the latest durable snapshot's manifest — the runs the next
	// snapshot keeps or rewrites. Written by recovery and, under snapMu, by
	// Snapshot.
	snap manifest
}

// Open recovers the log under dir into a fresh store and returns both,
// with the store's append hook attached so every subsequent insert is
// logged. dir is created as needed.
func Open(dir string, opts Options) (*Log, *store.Memory, Recovery, error) {
	opts.defaults()
	for _, sub := range []string{walDir(dir), snapDir(dir)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, nil, Recovery{}, err
		}
	}
	l := &Log{dir: dir, opts: opts, st: store.New()}
	if opts.Retention > 0 {
		l.st.SetRetention(opts.Retention)
	}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, rec, err
	}
	l.st.OnAppend(l.record)
	return l, l.st, rec, nil
}

// record is the store append hook: it keeps the instance for the next
// flush, which encodes it. Called under the store's write lock, so it
// only touches the log's own state, and does nothing it can put off.
func (l *Log) record(in *event.Instance) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if in.ID < l.nextSeq {
		// The store and log disagree on IDs — a second writer bypassed
		// recovery, or IDs regressed. Poison the log rather than persist
		// a corrupt order. (IDs above nextSeq are legal: the sequence may
		// be sparse.)
		if l.err == nil {
			l.err = fmt.Errorf("wal: append ID %d, log expects ≥ %d", in.ID, l.nextSeq)
		}
		return
	}
	l.pend = append(l.pend, *in)
	l.nextSeq = in.ID + 1
	mAppends.Inc()
	mPending.Set(int64(len(l.pend)))
}

// Commit writes the pending records to the active segment as block
// frames and syncs nothing: the caller's journal fsync, taken before the
// records were stored, is the commit point, and the segment is synced once,
// when it is sealed. Written records survive kill -9 (the page cache does);
// a power cut may take the unsealed tail, which the journal re-applies.
// Commit also rotates segments past the size threshold and triggers an
// auto-snapshot when SnapshotEvery is due. The error it returns is the
// write's alone: a failed auto-snapshot takes nothing back from records
// already written, so it is counted (wal.snapshots.failed) and retried by
// the next Commit instead of being reported against an acknowledged batch.
func (l *Log) Commit() error {
	if err := l.flush(); err != nil {
		return err
	}
	l.mu.Lock()
	due := l.opts.SnapshotEvery > 0 && l.sinceSnap >= l.opts.SnapshotEvery
	l.mu.Unlock()
	if due {
		l.Snapshot() //nolint:errcheck // counted; sinceSnap still due, so the next Commit retries
	}
	return nil
}

func (l *Log) flush() error {
	began := obs.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked(began)
}

func (l *Log) flushLocked(began time.Time) error {
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if len(l.pend) == 0 {
		return nil
	}
	// The pending group goes out as block frames, rotating between frames,
	// so every record of a segment is consecutive from the ID in its name
	// and SegmentBytes bounds segment size.
	for rest := l.pend; len(rest) > 0; {
		n := blockLen(rest)
		if l.seg == nil || l.cur.size >= l.opts.SegmentBytes {
			if err := l.rotateAtLocked(rest[0].ID); err != nil {
				l.err = err
				return err
			}
		}
		l.buf = appendBlockFrame(l.buf[:0], rest[:n])
		if err := l.writeLocked(l.buf); err != nil {
			l.err = err
			return err
		}
		if l.cur.count == 0 {
			l.cur.first = rest[0].ID
		}
		l.cur.last = rest[n-1].ID
		l.cur.count += n
		rest = rest[n:]
	}
	l.sinceSnap += len(l.pend)
	if cap(l.pend) > maxPendKept {
		l.pend = nil
	} else {
		clear(l.pend) // the store may evict them before the next group overwrites them
		l.pend = l.pend[:0]
	}
	mCommits.Inc()
	mPending.Set(0)
	mCommitSecs.ObserveDuration(obs.Since(began))
	return nil
}

// sealLocked syncs and closes the active segment for good: nothing is
// ever written to the file again, and the next flush opens a successor.
// It is the log's only fsync of a segment. Every caller seals after the
// journal fsync that covers the segment's records (the applier syncs the
// journal before it stores a group, a follower before it commits or
// snapshots), so the log is never durable ahead of the journal.
func (l *Log) sealLocked() error {
	if l.seg == nil {
		return nil
	}
	if err := fileSync(l.seg); err != nil {
		return err
	}
	mFsyncs.Inc()
	if err := l.seg.Close(); err != nil {
		return err
	}
	if l.cur.count > 0 {
		l.sealed = append(l.sealed, l.cur)
	}
	l.seg, l.cur = nil, segInfo{}
	return nil
}

// rotateAtLocked seals the active segment and opens a fresh one named for
// the ID of the next record it will hold.
func (l *Log) rotateAtLocked(first int) error {
	if err := l.sealLocked(); err != nil {
		return err
	}
	path := segPath(l.dir, first)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	return l.startLocked(f, segInfo{path: path})
}

// startLocked makes f, holding cur so far, the active segment: a file with
// nothing in it yet is a block file from its first frame on.
func (l *Log) startLocked(f *os.File, cur segInfo) error {
	l.seg, l.cur = f, cur
	if cur.size > 0 {
		return nil
	}
	return l.writeLocked(magicFrame)
}

// writeLocked appends b to the active segment, keeping the size and the
// running CRC32C a manifest entry would take from the file.
func (l *Log) writeLocked(b []byte) error {
	n, err := l.seg.Write(b)
	l.cur.size += int64(n)
	l.cur.crc = crc32.Update(l.cur.crc, castagnoli, b[:n])
	return err
}

// Close writes pending records and closes the active segment without
// syncing it: the segment stays unsealed, the next Open appends to it. It
// does not snapshot; callers wanting a fast next boot call Snapshot
// first.
func (l *Log) Close() error {
	flushErr := l.flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return flushErr
	}
	l.closed = true
	if l.seg != nil {
		if err := l.seg.Close(); err != nil && flushErr == nil {
			flushErr = err
		}
		l.seg = nil
	}
	return flushErr
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

func walDir(dir string) string  { return filepath.Join(dir, "wal") }
func snapDir(dir string) string { return filepath.Join(dir, "snap") }

func segPath(dir string, first int) string {
	return filepath.Join(walDir(dir), fmt.Sprintf("seg-%016d.log", first))
}

// listNumbered returns the numbered files matching prefix/suffix in dir,
// sorted ascending by their embedded number.
func listNumbered(dir, prefix, suffix string) ([]string, []int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type nf struct {
		name string
		n    int
	}
	var out []nf
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		num, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix))
		if err != nil {
			continue
		}
		out = append(out, nf{name, num})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].n < out[j].n })
	names := make([]string, len(out))
	nums := make([]int, len(out))
	for i, f := range out {
		names[i] = filepath.Join(dir, f.name)
		nums[i] = f.n
	}
	return names, nums, nil
}

// linkedRuns indexes snap/'s run files by name, for telling which segment
// shares its inode with one. It holds every file named like a run, also
// the orphans of a snapshot that never got its manifest.
func linkedRuns(dir string) (map[string]os.FileInfo, error) {
	entries, err := os.ReadDir(snapDir(dir))
	if err != nil {
		return nil, err
	}
	runs := map[string]os.FileInfo{}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "run-") {
			continue
		}
		if fi, err := e.Info(); err == nil { // gone since the listing: not a link any more
			runs[e.Name()] = fi
		}
	}
	return runs, nil
}

// recover restores the newest readable snapshot and replays the segment
// tail. On a torn or corrupt record it truncates the log there and drops
// any later segments: the recovered store is the longest committed
// prefix.
//
// Segments the snapshot covers are not opened at all: one whose
// successor's name is at or below the snapshot's next-ID (every record
// in a segment lies below its successor's name), and one that is the same
// file as a run the restored manifest references. A fallback to the older
// manifest lowers that bound, and then they are read.
func (l *Log) recover() (Recovery, error) {
	rec, tail, reopen, err := l.replay()
	if err != nil {
		return rec, err
	}
	// Reopen the last segment for appending — unless that would leave a
	// numbering gap (all its records predate the snapshot restore point,
	// or no segment was read), it shares its inode with a run (appends
	// there would land in the run), or it is a legacy file, which takes no
	// block frames. Then start fresh. (After a tear the file is no longer
	// what any run was linked to; see replay.)
	if reopen {
		f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return rec, err
		}
		return rec, l.startLocked(f, tail)
	}
	if tail.count > 0 {
		l.sealed = append(l.sealed, tail)
	} else if tail.path != "" {
		// A segment with no record that is not taking the appends — the
		// rotation of a group torn before its frame, named past a hole in
		// the IDs — would sort behind the one that does: it goes.
		if err := os.Remove(tail.path); err != nil {
			return rec, err
		}
	}
	return rec, l.rotateAtLocked(l.nextSeq)
}

// maxPendKept bounds the pending room a flush keeps for the next group
// (about 8 MB of instances): commit groups of ordinary batches reuse it,
// and a burst — a whole feed's events stored at once — gives it back.
const maxPendKept = 1 << 16

// replay is recovery's read side: it restores the store and leaves the
// log positioned (nextSeq, sinceSnap, sealed), writing nothing but
// the cut of a torn tail. tail is the last segment read and kept; reopen
// says it may take the next appends.
func (l *Log) replay() (rec Recovery, tail segInfo, reopen bool, err error) {
	if l.snap, _, err = loadCheckpoint(l.dir, l.st, &rec); err != nil {
		return rec, tail, false, err
	}
	segs, firsts, err := listNumbered(walDir(l.dir), "seg-", ".log")
	if err != nil {
		return rec, tail, false, err
	}
	runs, err := linkedRuns(l.dir)
	if err != nil {
		return rec, tail, false, err
	}
	restored := map[string]bool{}
	for _, r := range l.snap.runs {
		restored[runName(r)] = true
	}
	expected := rec.SnapshotNext // next ID the store will assign
	tailLinked := false          // tail shares its inode with a run
	var tailFrames fileFrames    // the tail's encoding
	var ins []event.Instance     // one frame's decode, reused
	torn := false
	for i, path := range segs {
		if torn {
			if err := os.Remove(path); err != nil {
				return rec, tail, false, err
			}
			rec.DroppedSegments++
			continue
		}
		if firsts[i] < 0 {
			return rec, tail, false, fmt.Errorf("wal: segment %s has a negative first ID", path)
		}
		if i+1 < len(segs) && firsts[i+1] <= rec.SnapshotNext {
			continue
		}
		fi, err := os.Stat(path)
		if err != nil {
			return rec, tail, false, err
		}
		linked := ""
		for name, run := range runs {
			if os.SameFile(fi, run) {
				linked = name
				break
			}
		}
		if restored[linked] {
			continue
		}
		if tail.count > 0 {
			l.sealed = append(l.sealed, tail)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return rec, tail, false, err
		}
		// Replay is one pass over the frames: each is checked (CRC, torn
		// tail, IDs ascending), and one whose last ID is at or above
		// expected is decoded as it is read and its instances from
		// expected on — a frame may straddle it — put into the store.
		rest := data
		// An empty segment resumes at its name: first > last says so.
		tail, tailLinked, tailFrames = segInfo{path: path, first: firsts[i], last: firsts[i] - 1}, linked != "", fileFrames{}
		for len(rest) > 0 {
			payload, r2, ok := readFrame(rest)
			if !ok {
				// Torn tail: cut the file back to the committed prefix. A
				// sealed segment was synced whole before any run linked it,
				// so a tear there is the disk's doing, the run over the same
				// bytes is unreadable with it, and the cut loses nothing.
				torn = true
				rec.TruncatedBytes += int64(len(rest))
				if err := os.Truncate(path, tail.size); err != nil {
					return rec, tail, false, err
				}
				break
			}
			s, err := tailFrames.span(payload)
			if err != nil {
				return rec, tail, false, fmt.Errorf("wal: %s: %v", path, err)
			}
			if s.count > 0 {
				if tail.count > 0 && s.first <= tail.last {
					return rec, tail, false, fmt.Errorf("wal: %s record ID %d not ascending (previous %d)", path, s.first, tail.last)
				}
				if tail.count == 0 {
					tail.first = s.first
				}
				tail.last = s.last
				tail.count += s.count
				if s.last >= expected {
					if ins, err = tailFrames.decode(ins, payload, s); err != nil {
						// Framing intact but the payload is gibberish — not
						// a torn write: refuse to guess.
						return rec, tail, false, fmt.Errorf("wal: %s %v", path, err)
					}
					// IDs ascend, so what the store already holds is a
					// prefix; the rest goes in with one PutAll, whose error
					// names the refused ID.
					fresh := ins
					for fresh[0].ID < expected {
						fresh = fresh[1:]
					}
					if err := l.st.PutAll(fresh); err != nil {
						return rec, tail, false, fmt.Errorf("wal: %s replay: %v", path, err)
					}
					rec.Replayed += len(fresh)
					expected = s.last + 1
				}
			}
			tail.size += int64(frameHeader + len(payload))
			rest = r2
		}
		tail.crc = crc32.Checksum(data[:tail.size], castagnoli)
	}
	l.nextSeq = expected
	l.sinceSnap = expected - rec.SnapshotNext
	reopen = tail.path != "" && tail.last+1 == l.nextSeq && (torn || !tailLinked) && (tailFrames.block || tail.size == 0)
	return rec, tail, reopen, nil
}
