package wal

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/store"
)

// genEvents builds a deterministic mix of instances: varied names,
// locations, durations, attribute maps, and mild time disorder — the
// shapes the collector actually stores.
func genEvents(seed int64, n int) []event.Instance {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2010, 1, 5, 0, 0, 0, 0, time.UTC)
	names := []string{"BGP neighbor flap", "Interface down", "Link congestion", "syslog:LINK-3-UPDOWN"}
	out := make([]event.Instance, n)
	for i := range out {
		start := base.Add(time.Duration(i)*11*time.Second - time.Duration(rng.Intn(20))*time.Second)
		in := event.Instance{
			Name:  names[rng.Intn(len(names))],
			Start: start,
			End:   start.Add(time.Duration(rng.Intn(600)) * time.Second),
			Loc:   locus.Between(locus.Interface, fmt.Sprintf("r%d.pop%02d", rng.Intn(6), rng.Intn(3)), fmt.Sprintf("ge-0/0/%d", rng.Intn(4))),
		}
		if rng.Intn(2) == 0 {
			in.Attrs = event.NewAttrs(map[string]string{
				"raw":  fmt.Sprintf("line %d", i),
				"peer": fmt.Sprintf("10.0.%d.%d", rng.Intn(8), rng.Intn(250)),
			})
		}
		out[i] = in
	}
	return out
}

// digestOfPrefix returns the digest of a store holding exactly the first
// k generated events.
func digestOfPrefix(ins []event.Instance, k int) string {
	st := store.New()
	st.AddAll(ins[:k])
	return StoreDigest(st)
}

func TestRoundtripCleanClose(t *testing.T) {
	dir := t.TempDir()
	ins := genEvents(1, 500)
	l, st, rec, err := Open(dir, Options{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotNext != 0 || rec.Replayed != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	st.AddAll(ins)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, st2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec2.Replayed != len(ins) {
		t.Fatalf("replayed %d records, want %d", rec2.Replayed, len(ins))
	}
	if got, want := StoreDigest(st2), StoreDigest(st); got != want {
		t.Fatal("recovered store digest differs from the original")
	}
	// Appends continue with the right IDs after recovery.
	more := genEvents(2, 50)
	st2.AddAll(more)
	if err := l2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, st3, rec3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec3.Replayed != len(ins)+len(more) {
		t.Fatalf("second recovery replayed %d, want %d", rec3.Replayed, len(ins)+len(more))
	}
	if st3.Len() != len(ins)+len(more) {
		t.Fatalf("recovered %d events, want %d", st3.Len(), len(ins)+len(more))
	}
}

// TestCrashRecoveryProperty is the torn-write property test: commit
// groups of random sizes over IDs with holes (a failed batch leaves them)
// go out as one block frame each; the log is cut at a byte offset —
// inside and just past a segment's magic frame, then at random: between
// frames, inside a block, inside a frame header — and recovery must
// produce a store byte-identical to the groups wholly below the cut, never
// an error: a torn frame loses exactly its own group. The recovered log
// then takes appends on both sides of a snapshot and reopens to all of
// them.
func TestCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ins := genEvents(7, 400)
	for i, id := 0, 0; i < len(ins); i++ {
		id += 1 + rng.Intn(3)*rng.Intn(2)
		ins[i].ID = id
	}
	var groups []int // where each commit group ends in ins
	for i := 0; i < len(ins); {
		i = min(len(ins), i+1+rng.Intn(40))
		groups = append(groups, i)
	}
	for trial := 0; trial < 25; trial++ {
		dir := t.TempDir()
		l, st, _, err := Open(dir, Options{SegmentBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		ends := make([]int, len(groups)) // log bytes once each group is committed
		for k, lo := range append([]int{0}, groups[:len(groups)-1]...) {
			for _, in := range ins[lo:groups[k]] {
				if _, err := st.Put(in); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			ends[k] = logBytes(t, dir)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		bounds, starts := frameBounds(t, dir)
		total := ends[len(ends)-1]
		cut := rng.Intn(total + 1)
		switch k := trial - 1; {
		case trial == 0:
			cut = total // no damage
		case k/2 < len(starts)-1 && k < 10:
			// A segment rotated for a group a crash then tore before it,
			// its name often past a hole in the IDs.
			cut = starts[1+k/2] + []int{3, len(magicFrame)}[k%2]
		}
		crashAt(t, dir, cut)

		// Longest committed prefix: the groups wholly below the cut.
		k := 0
		for k < len(groups) && ends[k] <= cut {
			k++
		}
		n := 0
		if k > 0 {
			n = groups[k-1]
		}
		l2, st2, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("trial %d (cut %d): recovery failed: %v", trial, cut, err)
		}
		if got, want := StoreDigest(st2), digestOfIDs(t, ins[:n]); got != want {
			t.Fatalf("trial %d: cut %d bytes → recovered %d events, digest mismatch vs the %d groups committed below it",
				trial, cut, st2.Len(), k)
		}
		// What was cut off is the torn frame's head, back to its start.
		b := 0
		for _, at := range bounds {
			if at <= cut {
				b = at
			}
		}
		if rec.TruncatedBytes != int64(cut-b) {
			t.Fatalf("trial %d: cut %d, %d bytes past the frame before it, recovery truncated %d", trial, cut, cut-b, rec.TruncatedBytes)
		}
		// The log must keep working after a torn recovery: append,
		// snapshot, append, close, reopen, and the tail must be there.
		extra := genEvents(int64(1000+trial), 10)
		st2.AddAll(extra[:5])
		if err := l2.Snapshot(); err != nil {
			t.Fatal(err)
		}
		st2.AddAll(extra[5:])
		if err := l2.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		_, st3, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st3.Len() != n+len(extra) {
			t.Fatalf("trial %d (cut %d): post-crash appends lost events: %d, want %d", trial, cut, st3.Len(), n+len(extra))
		}
	}
	snapshotCrashCuts(t)
}

// snapshotCrashCuts is TestCrashRecoveryProperty's second half: the
// crash lands inside Snapshot rather than inside an append. A log under
// retention is driven until a sweep's snapshot has runs to rewrite beside
// a sealed segment to adopt, the directory is imaged before and after
// that one Snapshot call, and each state a crash between its steps can
// leave is recovered — and then appended to and snapshotted again, which
// must leave every run a retained manifest references as it was.
func snapshotCrashCuts(t *testing.T) {
	// Sweeps come every 60 events or so, each snapshot copying the crumb
	// the active segment still is, until the segment passes crumbBytes and
	// is sealed and adopted: the 29th sweep is such a one.
	const crashSweep = 29
	opts := Options{Retention: 30 * time.Hour}
	dir := t.TempDir()
	l, st, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var before, after, want string
	sweeps := 0
	st.OnEvict(func([]*event.Instance, time.Time) {
		if sweeps++; sweeps == crashSweep {
			// Snapshot syncs first; the crash images start from there.
			if err := l.Sync(); err != nil {
				t.Error(err)
			}
			before = copyDir(t, dir)
		}
		if err := l.Snapshot(); err != nil {
			t.Errorf("snapshot on evict: %v", err)
		}
		if sweeps == crashSweep {
			after, want = copyDir(t, dir), StoreDigest(st)
		}
	})
	stream := raggedEvents(53, 12000, 12*time.Hour)
	fed := 0
	for after == "" && fed < len(stream) {
		st.Add(stream[fed])
		fed++
	}
	if after == "" {
		t.Fatal("the stream never reached the sweep under test")
	}
	was, is, segs := fileInfos(t, snapDir(before)), fileInfos(t, snapDir(after)), fileInfos(t, walDir(after))
	// segmentOf names the segment a run of the after image is a link to.
	segmentOf := func(run string) string {
		for name, seg := range segs {
			if os.SameFile(seg, is[run]) {
				return name
			}
		}
		return ""
	}
	written, linked, replaced := 0, 0, 0
	for name := range is {
		switch {
		case !strings.HasPrefix(name, "run-") || was[name] != nil:
		case segmentOf(name) != "":
			linked++
		default:
			written++
		}
	}
	for name := range was {
		if strings.HasPrefix(name, "run-") && is[name] == nil {
			replaced++
		}
	}
	if len(manifests(t, before)) != 2 || written == 0 || linked == 0 || replaced == 0 {
		t.Fatalf("snapshot under test wrote %d runs, linked %d and retired %d over %d manifests: want a rewrite beside an adopted tail, two generations",
			written, linked, replaced, len(manifests(t, before)))
	}
	// overlay puts after's snap/ files that keep(name) selects onto a
	// fresh copy of before: a linked run as a link to the copy's segment
	// (Snapshot syncs first, so before holds it whole), any other by value.
	overlay := func(keep func(name string) bool) string {
		cut := copyDir(t, before)
		for name := range is {
			if !keep(name) {
				continue
			}
			if seg := segmentOf(name); seg != "" {
				if err := os.Link(filepath.Join(walDir(cut), seg), filepath.Join(snapDir(cut), name)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			data, err := os.ReadFile(filepath.Join(snapDir(after), name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(snapDir(cut), name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return cut
	}
	isRun := func(name string) bool { return strings.HasPrefix(name, "run-") }
	cuts := []struct {
		name string
		dir  string
		// fromNew: recovery must restore the new manifest — true from
		// its rename on, the previous one until then.
		fromNew bool
	}{
		// Sealing changes no byte on disk: the segment is closed, that is all.
		{"sealed, not linked; a run written but not renamed", func() string {
			cut := copyDir(t, before)
			tmp := filepath.Join(snapDir(cut), "run-0000000000000000-0000000000000009-3.run.tmp")
			if err := os.WriteFile(tmp, []byte("half a run"), 0o644); err != nil {
				t.Fatal(err)
			}
			return cut
		}(), false},
		{"linked, no manifest; written runs not renamed", overlay(func(name string) bool { return segmentOf(name) != "" }), false},
		{"linked and renamed, no manifest", overlay(isRun), false},
		{"manifest renamed, compaction not run", overlay(func(string) bool { return true }), true},
		{"compaction done", after, true},
	}
	beforeNext, _, _ := LatestSnapshot(before)
	afterNext, _, _ := LatestSnapshot(after)
	for _, cut := range cuts {
		l2, st2, rec, err := Open(cut.dir, opts)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", cut.name, err)
		}
		wantNext := beforeNext
		if cut.fromNew {
			wantNext = afterNext
		}
		if rec.SnapshotNext != wantNext || rec.SnapshotsSkipped != 0 {
			t.Fatalf("%s: recovery %+v, want the snapshot at %d and none skipped", cut.name, rec, wantNext)
		}
		if StoreDigest(st2) != want {
			t.Fatalf("%s: recovered %d events, digest differs from the store that crashed (%d events)", cut.name, st2.Len(), st.Len())
		}
		// The manifests the crash left must outlive what follows: appends
		// (none may land in a segment a run is a name of), and snapshots,
		// the first of which collects whatever the crash orphaned.
		for round := 0; round < 2; round++ {
			for _, in := range stream[fed+round*40:][:40] {
				st2.Add(in)
			}
			if err := l2.Commit(); err != nil {
				t.Fatalf("%s: commit after recovery: %v", cut.name, err)
			}
			if err := l2.Snapshot(); err != nil {
				t.Fatalf("%s: snapshot after recovery: %v", cut.name, err)
			}
			checkManifestsIntact(t, cut.dir)
			checkNoOrphans(t, cut.dir)
		}
		live := StoreDigest(st2)
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		_, st3, rec, err := Open(cut.dir, opts)
		if err != nil || rec.SnapshotsSkipped != 0 {
			t.Fatalf("%s: reopening after the appends: %+v, %v", cut.name, rec, err)
		}
		if StoreDigest(st3) != live {
			t.Fatalf("%s: the store reopened after the appends differs from the live one", cut.name)
		}
	}
}

// logBytes returns the bytes under dir's wal/.
func logBytes(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	for _, fi := range fileInfos(t, walDir(dir)) {
		n += int(fi.Size())
	}
	return n
}

// frameBounds returns every offset of dir's log — its segments end to end,
// as crashAt counts — at which a frame begins or ends, and those at which
// a segment begins.
func frameBounds(t *testing.T, dir string) (bounds, starts []int) {
	t.Helper()
	segs, _, err := listNumbered(walDir(dir), "seg-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bounds, starts = append(bounds, off), append(starts, off)
		for rest := data; len(rest) > 0; {
			_, r2, ok := readFrame(rest)
			if !ok {
				t.Fatalf("%s does not frame", path)
			}
			off += len(rest) - len(r2)
			bounds, rest = append(bounds, off), r2
		}
	}
	return bounds, starts
}

// crashAt simulates kill -9 at a global byte offset: the segment holding
// the offset is truncated there and every later segment vanishes, as if
// the page cache beyond the synced prefix was lost.
func crashAt(t *testing.T, dir string, cut int) {
	t.Helper()
	segs, _, err := listNumbered(walDir(dir), "seg-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	off := int64(cut)
	for _, path := range segs {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case off >= fi.Size():
			off -= fi.Size()
		case off <= 0:
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		default:
			if err := os.Truncate(path, off); err != nil {
				t.Fatal(err)
			}
			off = 0
		}
	}
}

// TestSnapshotTailReplayDeterminism: with periodic snapshots and
// commits interleaved, recovery = snapshot + tail replay; the result
// must be byte-identical to a store that simply held every event (the
// same equivalence the PR-4 cache-on/off tests pin for diagnosis).
func TestSnapshotTailReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	ins := genEvents(11, 900)
	l, st, _, err := Open(dir, Options{SegmentBytes: 4 << 10, SnapshotEvery: 120})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ins); i += 30 {
		end := i + 30
		if end > len(ins) {
			end = len(ins)
		}
		st.AddAll(ins[i:end])
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, _, err := listNumbered(snapDir(dir), "snap-", ".snap")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no auto-snapshot was written")
	}
	if len(snaps) > 2 {
		t.Fatalf("%d snapshots retained, want ≤ 2", len(snaps))
	}

	_, st2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotNext == 0 {
		t.Fatal("recovery ignored the snapshot")
	}
	if rec.Replayed >= len(ins) {
		t.Fatalf("replayed %d records despite a snapshot at %d", rec.Replayed, rec.SnapshotNext)
	}
	if got, want := StoreDigest(st2), digestOfPrefix(ins, len(ins)); got != want {
		t.Fatal("snapshot+tail recovery is not byte-identical to the full store")
	}
}

// TestSnapshotCompactionBoundsDisk: segments fully covered by the older
// retained snapshot are deleted (the newest snapshot keeps its history
// around as its own fallback, so compaction trails one snapshot behind).
func TestSnapshotCompactionBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	ins := genEvents(13, 600)
	l, st, _, err := Open(dir, Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Commit groups of 25, a frame of about 800 bytes each: the 2 KiB
	// segments rotate every few groups.
	commitGroups := func(ins []event.Instance) {
		for i := 0; i < len(ins); i += 25 {
			st.AddAll(ins[i:min(i+25, len(ins))])
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	commitGroups(ins[:500])
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	before, _, err := listNumbered(walDir(dir), "seg-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	if len(before) < 3 {
		t.Fatalf("test needs several segments, got %d", len(before))
	}
	commitGroups(ins[500:])
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	after, firsts, err := listNumbered(walDir(dir), "seg-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Fatalf("second snapshot compacted nothing: %d segments before, %d after", len(before), len(after))
	}
	// Everything fully below the older snapshot (next-ID 500) must be
	// gone: at most one surviving segment may start below it.
	if len(after) > 1 && firsts[1] <= 500 {
		t.Fatalf("segment fully below the older snapshot survived: firsts=%v", firsts)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := StoreDigest(st2), StoreDigest(st); got != want {
		t.Fatal("compaction changed the recovered state")
	}
}

// TestEvictionSnapshotRecovery: retention eviction plus the OnEvict →
// Snapshot wiring (what grca serve uses) must recover to the evicted
// store's exact state, not resurrect evicted events.
func TestEvictionSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	l, st, _, err := Open(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	st.SetRetention(30 * time.Minute)
	st.OnEvict(func([]*event.Instance, time.Time) {
		if err := l.Snapshot(); err != nil {
			t.Errorf("snapshot on evict: %v", err)
		}
	})
	base := time.Date(2010, 1, 5, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 300; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		st.Add(event.Instance{Name: "tick", Start: at, End: at, Loc: locus.At(locus.Router, "r0")})
		if i%20 == 19 {
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.Len() == 300 {
		t.Fatal("retention evicted nothing")
	}
	first, last, ok := st.Span()
	if !ok || last.Sub(first) > 40*time.Minute {
		t.Fatalf("span %v–%v exceeds retention+slack", first, last)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := StoreDigest(st2), StoreDigest(st); got != want {
		t.Fatal("recovered store differs from the evicted original")
	}
}

// TestRecoverySkipsCoveredSegments: a segment whose successor is named at
// or below the restored snapshot's next-ID holds nothing recovery needs,
// and is not opened — shown by putting garbage under its name, which a
// scan would take for a torn record and drop every later segment for.
func TestRecoverySkipsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	ins := genEvents(71, 6100) // 3000 a snapshot: well past crumb size
	l, st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, upTo := range []int{3000, 6000} {
		st.AddAll(ins[upTo-3000 : upTo])
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	st.AddAll(ins[6000:])
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	want := StoreDigest(st)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, firsts, err := listNumbered(walDir(dir), "seg-", ".log")
	if err != nil || len(segs) != 2 || firsts[0] != 3000 || firsts[1] != 6000 {
		t.Fatalf("segments %v (%v), want the sealed one at 3000 and the tail at 6000", firsts, err)
	}
	// Under a new inode: the old one is the newest run's, too.
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], []byte("not a record frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, st2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotNext != 6000 || rec.Replayed != 100 || rec.TruncatedBytes != 0 || rec.DroppedSegments != 0 {
		t.Fatalf("recovery %+v: want the snapshot at 6000, the 100-record tail, and the segment below untouched", rec)
	}
	if StoreDigest(st2) != want {
		t.Fatal("recovered store differs from the one that was closed")
	}
}

// TestRecoveryStraddlingFrame: a block frame whose IDs straddle the
// restored snapshot's next is decoded whole, and only its instances at or
// above next are replayed.
func TestRecoveryStraddlingFrame(t *testing.T) {
	dir := t.TempDir()
	ins := genEvents(73, 10)
	for i := range ins {
		ins[i].ID = 2 * i
	}
	for _, sub := range []string{walDir(dir), snapDir(dir)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(segPath(dir, 0), appendBlockFrame(append([]byte(nil), magicFrame...), ins), 0o644); err != nil {
		t.Fatal(err)
	}
	run := appendBlockFrame(append([]byte(nil), magicFrame...), ins[:5])
	r := runInfo{lo: 0, hi: 9, count: 5, size: int64(len(run)), crc: crc32.Checksum(run, castagnoli)}
	if err := os.WriteFile(runFile(dir, r), run, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := writeManifest(dir, manifest{next: 9, live: 5, runs: []runInfo{r}}); err != nil {
		t.Fatal(err)
	}
	l, st, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.SnapshotNext != 9 || rec.Replayed != 5 || StoreDigest(st) != digestOfIDs(t, ins) {
		t.Fatalf("recovery %+v over a frame of IDs 0…18 behind a snapshot at 9: want the 5 instances above it replayed", rec)
	}
}

// digestOfIDs returns the digest of a store holding exactly ins, their
// IDs as given.
func digestOfIDs(t *testing.T, ins []event.Instance) string {
	t.Helper()
	st := store.New()
	for _, in := range ins {
		if _, err := st.Put(in); err != nil {
			t.Fatal(err)
		}
	}
	return StoreDigest(st)
}

func TestIntervalFsyncCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	ins := genEvents(17, 100)
	l, st, _, err := Open(dir, Options{Fsync: FsyncInterval, FsyncInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st.AddAll(ins)
	// No explicit Commit: Close must flush the pending tail.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != len(ins) {
		t.Fatalf("interval-fsync close lost events: %d, want %d", st2.Len(), len(ins))
	}
}

// TestTornSnapshotFallsBack damages snapshots every way a crash or a bad
// disk can and checks recovery falls back — to the previous manifest when
// there is one, to the segments alone when there is not — without ever
// trusting the damaged one, and says how many it skipped.
func TestTornSnapshotFallsBack(t *testing.T) {
	flip := func(t *testing.T, path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// build leaves a closed log holding generations snapshots gen events
	// apart (a run each, well over crumb size) and a 100-event tail.
	const gen = 3000
	build := func(t *testing.T, generations int) (dir, want string) {
		t.Helper()
		dir = t.TempDir()
		ins := genEvents(19, generations*gen+100)
		l, st, _, err := Open(dir, Options{SegmentBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < generations; g++ {
			// In commit groups of 100: the 4 KiB segments are crumbs, so
			// every run is written, none a second name of a segment.
			for i := g * gen; i < (g+1)*gen; i += 100 {
				st.AddAll(ins[i : i+100])
				if err := l.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		st.AddAll(ins[generations*gen:])
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if n := len(manifests(t, dir)); n != min(generations, 2) {
			t.Fatalf("%d manifests after %d snapshots", n, generations)
		}
		return dir, StoreDigest(st)
	}
	// run returns the file of the run covering [lo, lo+gen).
	run := func(t *testing.T, dir string, lo int) string {
		t.Helper()
		return runFile(dir, runInfo{lo: lo, hi: lo + gen, count: gen})
	}
	cases := []struct {
		name        string
		generations int
		damage      func(t *testing.T, dir string)
		snapNext    int  // SnapshotNext recovery must report
		skipped     int  // SnapshotsSkipped it must report
		whole       bool // the recovered store must equal the original
	}{
		// Compaction trails one snapshot behind, so with a single snapshot
		// the full segment history is still there and rebuilds everything.
		{"only manifest corrupt", 1, func(t *testing.T, dir string) { flip(t, snapFile(dir, gen)) }, 0, 1, true},
		{"only run corrupt", 1, func(t *testing.T, dir string) { flip(t, run(t, dir, 0)) }, 0, 1, true},
		// Two generations: the older manifest, the run both share and the
		// segments above it rebuild the identical store.
		{"newest manifest corrupt", 3, func(t *testing.T, dir string) { flip(t, snapFile(dir, 3*gen)) }, 2 * gen, 1, true},
		{"newest manifest truncated", 3, func(t *testing.T, dir string) {
			if err := os.Truncate(snapFile(dir, 3*gen), 20); err != nil {
				t.Fatal(err)
			}
		}, 2 * gen, 1, true},
		{"run only the newest references missing", 3, func(t *testing.T, dir string) {
			if err := os.Remove(run(t, dir, 2*gen)); err != nil {
				t.Fatal(err)
			}
		}, 2 * gen, 1, true},
		{"run only the newest references corrupt", 3, func(t *testing.T, dir string) { flip(t, run(t, dir, 2*gen)) }, 2 * gen, 1, true},
		// A run both manifests reference: neither is readable, and the
		// segments below the older one are compacted away, so the store
		// cannot be whole — but recovery must neither panic nor trust it.
		{"run both reference corrupt", 3, func(t *testing.T, dir string) { flip(t, run(t, dir, gen)) }, 0, 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, want := build(t, tc.generations)
			tc.damage(t, dir)
			l, st, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if rec.SnapshotNext != tc.snapNext || rec.SnapshotsSkipped != tc.skipped {
				t.Fatalf("recovery %+v, want SnapshotNext %d with %d skipped", rec, tc.snapNext, tc.skipped)
			}
			if got := StoreDigest(st) == want; got != tc.whole {
				t.Fatalf("recovered store (%d live) equals the original: %v, want %v", st.Len(), got, tc.whole)
			}
		})
	}
}

// TestFloor: Floor is the next-ID bound of the older of the two retained
// manifests — what the serving pipeline drops the ingest journal behind —
// through snapshots, an idle re-snapshot (which makes the latest manifest
// the older one's equal) and a reopen, which recovers the same store.
func TestFloor(t *testing.T) {
	dir := t.TempDir()
	ins := genEvents(47, 900)
	l, st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := func(wantFloor int) {
		t.Helper()
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if got := l.Floor(); got != wantFloor {
			t.Fatalf("floor %d after the snapshot at %d, want %d", got, l.Frontier(), wantFloor)
		}
	}
	if l.Floor() != 0 {
		t.Fatalf("floor %d on an empty log", l.Floor())
	}
	st.AddAll(ins[:300])
	snap(0) // one manifest: it has no fallback
	st.AddAll(ins[300:600])
	snap(300)
	st.AddAll(ins[600:])
	snap(600)
	snap(900) // nothing new: both retained generations now reach 900
	want := StoreDigest(st)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if StoreDigest(got) != want || rec.SnapshotNext != 900 {
		t.Fatalf("reopen: %+v, digest equal: %v", rec, StoreDigest(got) == want)
	}
	if got := l.Floor(); got != 600 {
		t.Fatalf("floor %d after the reopen, want 600: the older manifest file on disk", got)
	}
}

// TestParentDataDirBootsBothWays: testdata/datadir-pr23 is a data dir the
// commit before event.Attrs wrote — genEvents in, a snapshot after 200
// events, 100 more, clean close — with the StoreDigest it held, every file
// of it a legacy record file. It must open here to that digest. The test
// once also held that the same calls here write the same bytes, so that
// the older binary read what this one writes; the block files ended that
// on purpose — no earlier binary reads them — and what stands in its place
// is how this version carries such a dir on: it appends behind the legacy
// segment in a fresh block segment, never into the legacy file, and the
// directory reopens to the live store.
func TestParentDataDirBootsBothWays(t *testing.T) {
	const fixture = "testdata/datadir-pr23"
	want, err := os.ReadFile(filepath.Join(fixture, "DIGEST"))
	if err != nil {
		t.Fatal(err)
	}
	old := copyFixture(t, fixture)
	legacy := map[string][]byte{}
	files, _ := filepath.Glob(filepath.Join(fixture, "wal", "*"))
	for _, p := range files {
		legacy[filepath.Base(p)], _ = os.ReadFile(p)
	}
	l, st, rec, err := Open(old, Options{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := StoreDigest(st); got != strings.TrimSpace(string(want)) || rec.SnapshotNext != 200 || rec.Replayed != 100 {
		t.Fatalf("the older dir opened to digest %s (recovery %+v), it held %s", got, rec, want)
	}

	st.AddAll(genEvents(25, 50))
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	live := StoreDigest(st)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := listNumbered(walDir(old), "seg-", ".log")
	if err != nil || len(segs) != len(legacy)+1 {
		t.Fatalf("segments %v (%v): want the %d legacy ones and one more", segs, err, len(legacy))
	}
	for _, p := range segs[:len(legacy)] {
		if data, _ := os.ReadFile(p); !bytes.Equal(data, legacy[filepath.Base(p)]) {
			t.Errorf("legacy segment %s changed", filepath.Base(p))
		}
	}
	if data, _ := os.ReadFile(segs[len(legacy)]); filepath.Base(segs[len(legacy)]) != "seg-0000000000000300.log" || !bytes.HasPrefix(data, magicFrame) {
		t.Fatalf("the appends went to %s, want a block segment at ID 300", filepath.Base(segs[len(legacy)]))
	}
	l, st, rec, err = Open(old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck // read-only use
	if StoreDigest(st) != live || rec.Replayed != 150 {
		t.Fatalf("reopened behind the block segment: recovery %+v, digest equal to the live store: %v", rec, StoreDigest(st) == live)
	}
}

// copyFixture copies a committed data dir's wal/ and snap/ into a fresh
// directory, where opening it may write.
func copyFixture(t *testing.T, fixture string) string {
	t.Helper()
	dir := t.TempDir()
	files, _ := filepath.Glob(filepath.Join(fixture, "*", "*"))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, strings.TrimPrefix(f, fixture))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestDecodeRecordAttrs: a record's attribute section in any order, with
// duplicates, replays as the canonical set (last wins), and a torn one
// keeps the decoder's error strings.
func TestDecodeRecordAttrs(t *testing.T) {
	in := genEvents(3, 1)[0]
	in.ID, in.Attrs = 7, event.Attrs{}
	bare := appendRecord(nil, &in)
	bare = bare[: len(bare)-1 : len(bare)-1]
	section := func(pairs ...string) []byte {
		b := []byte{byte(len(pairs) / 2)}
		for _, s := range pairs {
			b = appendString(b, s)
		}
		return b
	}
	want := in
	want.Attrs = event.NewAttrs(map[string]string{"a": "2", "b": "3"})
	for _, sec := range [][]byte{section("a", "2", "b", "3"), section("b", "1", "a", "2", "b", "3")} {
		if got, err := decodeRecord(append(bare, sec...)); err != nil || got != want {
			t.Errorf("section %x: decoded %+v (%v), want %+v", sec, got, err, want)
		}
	}
	for _, tc := range []struct {
		sec  []byte
		want string
	}{
		{nil, "wal: truncated attribute count"},
		{[]byte{5, 1, 'a'}, "wal: truncated attribute count"},
		{[]byte{1, 4, 'a'}, "wal: truncated string"},
		{[]byte{1, 1, 'a', 4, 'b'}, "wal: truncated string"},
		{[]byte{1, 1, 'a', 1, 'b', 0}, "wal: 1 trailing bytes after instance"},
	} {
		if _, err := decodeRecord(append(bare, tc.sec...)); err == nil || err.Error() != tc.want {
			t.Errorf("section %x: err %v, want %q", tc.sec, err, tc.want)
		}
	}
}
