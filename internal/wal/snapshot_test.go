package wal

import (
	"encoding/binary"
	"hash/crc32"
	"io"
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

// runFiles lists the run files under dir's snap/ (temp files excluded).
func runFiles(t testing.TB, dir string) []string {
	t.Helper()
	runs, err := filepath.Glob(filepath.Join(snapDir(dir), "run-*.run"))
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func manifests(t testing.TB, dir string) []string {
	t.Helper()
	snaps, _, err := listNumbered(snapDir(dir), "snap-", ".snap")
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// copyDir clones a log directory — a crash image to recover from while
// the original carries on.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		if fi.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// checkManifestsIntact asserts what compaction must never break: every
// retained manifest parses and each run it references is on disk at the
// recorded size.
func checkManifestsIntact(t *testing.T, dir string) {
	t.Helper()
	snaps := manifests(t, dir)
	if len(snaps) > 2 {
		t.Fatalf("%d manifests retained, want ≤ 2", len(snaps))
	}
	for _, p := range snaps {
		m, err := readManifest(p)
		if err != nil {
			t.Fatalf("retained manifest unreadable: %v", err)
		}
		for _, r := range m.runs {
			fi, err := os.Stat(runFile(dir, r))
			if err != nil {
				t.Fatalf("%s references a run compaction deleted: %v", filepath.Base(p), err)
			}
			if fi.Size() != r.size {
				t.Fatalf("%s: run %s is %d bytes, manifest says %d", filepath.Base(p), runName(r), fi.Size(), r.size)
			}
		}
	}
}

// checkNoOrphans asserts compaction collected every run no retained
// manifest references, and every temp file.
func checkNoOrphans(t *testing.T, dir string) {
	t.Helper()
	referenced := map[string]bool{}
	for _, p := range manifests(t, dir) {
		m, err := readManifest(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range m.runs {
			referenced[runName(r)] = true
		}
	}
	entries, err := os.ReadDir(snapDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "run-") && !referenced[e.Name()] {
			t.Fatalf("orphan %s survived compaction", e.Name())
		}
	}
}

// TestSnapshotWriteAmplification is the point of incremental snapshots
// as an exact count: 20 auto-snapshots over a store growing to 200k
// events write about the final snapshot's bytes to snap/ — each record
// once, plus manifests — where re-dumping the store each time wrote
// about ten times that.
func TestSnapshotWriteAmplification(t *testing.T) {
	const total, every, batch = 200_000, 10_000, 1000
	dir := t.TempDir()
	ins := genEvents(23, total)
	l, st, _, err := Open(dir, Options{SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Bytes written to snap/, counted from outside: every file name that
	// appears there (names are never reused with other content) at its
	// size. The metric must agree to the byte.
	seen := map[string]bool{}
	written, snapshots := int64(0), 0
	counter := mSnapBytes.Value()
	for i := 0; i < total; i += batch {
		st.AddAll(ins[i : i+batch])
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(snapDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if seen[e.Name()] {
				continue
			}
			seen[e.Name()] = true
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			written += fi.Size()
			if strings.HasSuffix(e.Name(), ".snap") {
				snapshots++
			}
		}
	}
	if snapshots != total/every {
		t.Fatalf("%d auto-snapshots, want %d", snapshots, total/every)
	}
	if got := mSnapBytes.Value() - counter; got != written {
		t.Fatalf("wal.snapshot.bytes counted %d, snap/ received %d", got, written)
	}
	snaps := manifests(t, dir)
	newest := snaps[len(snaps)-1]
	m, err := readManifest(newest)
	if err != nil {
		t.Fatal(err)
	}
	if m.live != total || len(m.runs) != total/every {
		t.Fatalf("final manifest holds %d instances in %d runs, want %d in %d", m.live, len(m.runs), total, total/every)
	}
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	final := fi.Size()
	for _, r := range m.runs {
		final += r.size
	}
	if limit := final + final/4; written > limit {
		t.Fatalf("20 snapshots wrote %d bytes for a final snapshot of %d (%.2f×, limit 1.25×)",
			written, final, float64(written)/float64(final))
	}
}

// raggedEvents is a stream retention evicts raggedly: starts advance a
// minute per event but arrive up to ten minutes out of order, and one in
// eight events lasts up to long, outliving sweeps while its neighbours in
// the same ID range are evicted around it.
func raggedEvents(seed int64, n int, long time.Duration) []event.Instance {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2010, 1, 5, 0, 0, 0, 0, time.UTC)
	out := make([]event.Instance, n)
	for i := range out {
		start := base.Add(time.Duration(i)*time.Minute - time.Duration(rng.Intn(600))*time.Second)
		dur := time.Duration(rng.Intn(90)) * time.Second
		if rng.Intn(8) == 0 {
			dur = long/6 + time.Duration(rng.Int63n(int64(long-long/6)))
		}
		out[i] = event.Instance{
			Name: "tick", Start: start, End: start.Add(dur),
			Loc:   locus.At(locus.Router, "r"+string(rune('0'+rng.Intn(4)))),
			Attrs: map[string]string{"raw": strings.Repeat("x", rng.Intn(200))},
		}
	}
	return out
}

// TestRaggedEvictionSnapshots drives a log the way grca serve does under
// -retention — one Add at a time, a snapshot from the evict hook on every
// sweep — over a stream whose evictions punch holes all over the ID
// space. After every sweep both retained manifests must still have all
// their runs; at the end the reopened store must equal the live one.
func TestRaggedEvictionSnapshots(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 64 << 10, Retention: 30 * time.Hour}
	l, st, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sweeps, rewrites, reused := 0, mSnapRunsWritten.Value(), mSnapRunsReused.Value()
	st.OnEvict(func([]*event.Instance, time.Time) {
		if err := l.Snapshot(); err != nil {
			t.Errorf("snapshot on evict: %v", err)
		}
		sweeps++
		checkManifestsIntact(t, dir)
		checkNoOrphans(t, dir)
	})
	for i, in := range raggedEvents(29, 12000, 12*time.Hour) {
		st.Add(in)
		if i%25 == 24 {
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sweeps < 10 {
		t.Fatalf("only %d sweeps; the test needs many", sweeps)
	}
	// Ragged means sweeps rewrote runs they took instances from, beyond
	// the one tail each snapshot adds — and still left others alone.
	written, kept := mSnapRunsWritten.Value()-rewrites, mSnapRunsReused.Value()-reused
	if written <= int64(sweeps) || kept == 0 {
		t.Fatalf("%d sweeps wrote %d runs and reused %d: want rewrites beside reuse", sweeps, written, kept)
	}
	want := StoreDigest(st)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotNext == 0 || rec.SnapshotsSkipped != 0 {
		t.Fatalf("recovery %+v: want the newest snapshot, none skipped", rec)
	}
	if got := StoreDigest(st2); got != want {
		t.Fatalf("reopened store (%d live) differs from the live one (%d live)", st2.Len(), st.Len())
	}
}

// TestSnapshotPerInsertKeepsFewRuns is the feed-load-under-retention
// shape: a sweep, hence a snapshot, per stored event. Each snapshot's
// one-record tail must fold into its small neighbour rather than become a
// file of its own.
func TestSnapshotPerInsertKeepsFewRuns(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Retention: 2 * time.Hour}
	l, st, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for _, in := range raggedEvents(31, 300, time.Hour) {
		st.Add(in)
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, len(runFiles(t, dir)))
	}
	if n := len(runFiles(t, dir)); n > 8 || peak > 8 {
		t.Fatalf("%d run files after a snapshot per insert (peak %d), want ≤ 8", n, peak)
	}
	checkManifestsIntact(t, dir)
	want := StoreDigest(st)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if StoreDigest(st2) != want {
		t.Fatal("reopened store differs from the live one")
	}
}

// TestPlanRuns pins the snapshot planner's decisions on a hand-built run
// list.
func TestPlanRuns(t *testing.T) {
	big := int64(crumbBytes)
	prev := []runInfo{
		{lo: 0, hi: 100, count: 100, size: big},   // emptied: dropped
		{lo: 100, hi: 200, count: 100, size: big}, // lost 40: rewritten...
		{lo: 200, hi: 300, count: 100, size: big}, // lost 1: ...but not into its big neighbour
		{lo: 300, hi: 400, count: 100, size: big}, // untouched, big
		{lo: 400, hi: 410, count: 10, size: 700},  // untouched crumb between big runs
		{lo: 410, hi: 500, count: 90, size: big},  // untouched, big
		{lo: 500, hi: 520, count: 20, size: 1400}, // crumb that lost 2...
		{lo: 520, hi: 530, count: 10, size: 700},  // ...takes its untouched crumb neighbour along
		{lo: 530, hi: 600, count: 70, size: big},  // untouched, big
		{lo: 600, hi: 605, count: 5, size: 350},   // untouched crumb beside the tail
	}
	live := map[[2]int]int{
		{0, 100}: 0, {100, 200}: 60, {200, 300}: 99, {300, 400}: 100, {400, 410}: 10, {410, 500}: 90,
		{500, 520}: 18, {520, 530}: 10, {530, 600}: 70, {600, 605}: 5, {605, 620}: 12,
	}
	got := planRuns(prev, 605, 620, func(lo, hi int) int { return live[[2]int{lo, hi}] })
	rewritten := func(r runInfo, count int) plannedRun { r.count = count; return plannedRun{r, true} }
	want := []plannedRun{
		rewritten(prev[1], 60),
		rewritten(prev[2], 99),
		{prev[3], false},
		{prev[4], false},
		{prev[5], false},
		{runInfo{lo: 500, hi: 530, count: 28}, true},
		{prev[8], false},
		{runInfo{lo: 600, hi: 620, count: 17}, true},
	}
	if len(got) != len(want) {
		t.Fatalf("plan has %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("plan[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// hugeCountDump is what the full-dump reader this package used to have
// died on: a CRC-valid header announcing 1<<60 records.
func hugeCountDump() []byte {
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, 0)
	hdr = binary.AppendUvarint(hdr, 1<<60)
	hdr = binary.AppendUvarint(hdr, 1<<60)
	return appendFrame([]byte("GRCASNAP1"), hdr)
}

// TestHugeCountsFallBack: counts far beyond the bytes that could carry
// them — in an old-format dump, a manifest header, a manifest run entry —
// make a snapshot unreadable, never a panic or a giant allocation.
func TestHugeCountsFallBack(t *testing.T) {
	huge := 1 << 60
	cases := map[string][]byte{
		"old-format dump": hugeCountDump(),
		"manifest run count": manifest{base: 0, next: huge, live: huge,
			runs: []runInfo{{lo: 0, hi: huge, count: huge, size: 64}}}.encode(),
		"manifest run list": func() []byte {
			var p []byte
			for _, v := range []uint64{0, 1 << 60, 0, 1 << 60} {
				p = binary.AppendUvarint(p, v)
			}
			return appendFrame([]byte(snapMagic), p)
		}(),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ins := genEvents(37, 50)
			l, st, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			st.AddAll(ins)
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			want := StoreDigest(st)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(snapFile(dir, 50), data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := mSnapUnreadable.Value()
			_, st2, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rec.SnapshotNext != 0 || rec.SnapshotsSkipped != 1 || mSnapUnreadable.Value()-before != 1 {
				t.Fatalf("recovery %+v (unreadable +%d): want the snapshot skipped and counted",
					rec, mSnapUnreadable.Value()-before)
			}
			if StoreDigest(st2) != want {
				t.Fatal("fallback recovery lost data despite intact segments")
			}
		})
	}
}

// TestSnapshotImageRoundtrip: a multi-run snapshot read as one image and
// installed in an empty directory recovers the identical store from a
// single run — and an image whose header lies is refused or, at worst,
// installed as a snapshot recovery then skips.
func TestSnapshotImageRoundtrip(t *testing.T) {
	prim := t.TempDir()
	ins := genEvents(41, 4000) // 1000 a run: well past crumb size, so four runs
	l, st, _, err := Open(prim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i += 1000 {
		st.AddAll(ins[i : i+1000])
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	want := StoreDigest(st)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	im, err := OpenSnapshotImage(prim)
	if err != nil || im == nil {
		t.Fatalf("no image: %v", err)
	}
	if len(im.files) != 4 || im.Next != 4000 {
		t.Fatalf("image over %d runs up to ID %d, want 4 runs up to 4000", len(im.files), im.Next)
	}
	// Compaction deleting the runs mid-stream must not tear the image.
	for _, p := range runFiles(t, prim) {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	data, err := io.ReadAll(im)
	im.Close()
	if err != nil || int64(len(data)) != im.Size {
		t.Fatalf("image read %d bytes (%v), announced %d", len(data), err, im.Size)
	}

	install := func(t *testing.T, data []byte) (string, int, error) {
		dir := t.TempDir()
		if err := os.MkdirAll(snapDir(dir), 0o755); err != nil {
			t.Fatal(err)
		}
		staged := filepath.Join(snapDir(dir), "snap.tmp")
		if err := os.WriteFile(staged, data, 0o644); err != nil {
			t.Fatal(err)
		}
		next, err := InstallSnapshotImage(dir, staged)
		return dir, next, err
	}
	dir, next, err := install(t, data)
	if err != nil || next != 4000 {
		t.Fatalf("install: next %d, %v", next, err)
	}
	if n := len(runFiles(t, dir)); n != 1 {
		t.Fatalf("installed as %d runs, want 1", n)
	}
	_, st2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotLive != 4000 || StoreDigest(st2) != want {
		t.Fatalf("installed image recovered %+v, digest equal: %v", rec, StoreDigest(st2) == want)
	}

	// A header announcing more records than the bytes could hold.
	lying := appendRunHeader(nil, 0, 1<<60, 1<<60)
	if _, _, err := install(t, lying); err == nil {
		t.Fatal("an image announcing 1<<60 records in 30 bytes was installed")
	}
	// A header that is plausible but wrong: installs, and recovery skips it.
	hdrLen := len(appendRunHeader(nil, 0, 4000, 4000))
	wrong := append(appendRunHeader(nil, 0, 4000, 3999), data[hdrLen:]...)
	dir, _, err = install(t, wrong)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rec, err = Open(dir, Options{})
	if err != nil || rec.SnapshotNext != 0 || rec.SnapshotsSkipped != 1 {
		t.Fatalf("recovery over a lying image: %+v, %v", rec, err)
	}
	for _, junk := range [][]byte{nil, []byte("GRCARUN1"), []byte("not an image at all"), hugeCountDump()} {
		if _, _, err := install(t, junk); err == nil {
			t.Fatalf("junk image %q was installed", junk)
		}
	}
}

// TestCommitSurvivesSnapshotFailure: Commit reports the flush, not the
// auto-snapshot. With snap/ unusable every batch still commits, the
// failures are counted, and the next Commit after the fault clears
// catches the snapshot up.
func TestCommitSurvivesSnapshotFailure(t *testing.T) {
	dir := t.TempDir()
	ins := genEvents(43, 300)
	l, st, _, err := Open(dir, Options{SnapshotEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Tests run as root, so permissions stop nothing: make snap/ a file.
	if err := os.Remove(snapDir(dir)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapDir(dir), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	failed := mSnapFailed.Value()
	for i := 0; i < 200; i += 50 {
		st.AddAll(ins[i : i+50])
		if err := l.Commit(); err != nil {
			t.Fatalf("commit of a flushed, synced batch failed on the snapshot: %v", err)
		}
	}
	if got := mSnapFailed.Value() - failed; got != 4 {
		t.Fatalf("wal.snapshots.failed rose by %d, want 4 (one per due commit)", got)
	}
	if l.SinceSnapshot() != 200 {
		t.Fatalf("failed snapshots reset sinceSnap to %d", l.SinceSnapshot())
	}
	if err := l.Snapshot(); err == nil {
		t.Fatal("explicit Snapshot into a broken snap/ reported success")
	}
	// Fault cleared: the next commit's snapshot covers everything.
	if err := os.Remove(snapDir(dir)); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(snapDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	st.AddAll(ins[200:])
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if l.SinceSnapshot() != 0 || len(manifests(t, dir)) != 1 {
		t.Fatalf("snapshot did not catch up: sinceSnap %d, %d manifests", l.SinceSnapshot(), len(manifests(t, dir)))
	}
	want := StoreDigest(st)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotLive != 300 || StoreDigest(st2) != want {
		t.Fatalf("recovery after the fault: %+v, digest equal: %v", rec, StoreDigest(st2) == want)
	}
}

// FuzzSnapshotDecode feeds arbitrary bytes to both snapshot readers, as a
// manifest and as a run. A follower's snap/ holds whatever its primary
// sent, so neither may panic, and neither may allocate for a count the
// bytes present could not carry.
func FuzzSnapshotDecode(f *testing.F) {
	dir := f.TempDir()
	l, st, _, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	st.AddAll(genEvents(47, 20))
	if err := l.Snapshot(); err != nil {
		f.Fatal(err)
	}
	st.AddAll(genEvents(48, 20))
	if err := l.Snapshot(); err != nil {
		f.Fatal(err)
	}
	l.Close()
	for _, p := range append(manifests(f, dir), runFiles(f, dir)...) {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)-3] ^= 0x20
		f.Add(flipped)
	}
	f.Add(hugeCountDump())
	f.Add(appendRunHeader(nil, 0, 1<<60, 1<<60))
	f.Add(manifest{next: 1 << 60, live: 1 << 60, runs: []runInfo{{hi: 1 << 60, count: 1 << 60, size: 8}}}.encode())
	f.Add([]byte("GRCASNAP2 but nothing else"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := parseManifest(data); err == nil {
			if len(m.runs)*5 > len(data) {
				t.Fatalf("%d runs accepted from %d bytes", len(m.runs), len(data))
			}
			for _, r := range m.runs {
				if int64(r.count) > r.size/frameHeader {
					t.Fatalf("run of %d records accepted in %d claimed bytes", r.count, r.size)
				}
			}
		}
		// As a run: take the entry a manifest would have to carry for
		// these bytes to get past the size and CRC check, from the bytes
		// themselves.
		if !strings.HasPrefix(string(data), runMagic) {
			return
		}
		hdr, _, ok := readFrame(data[len(runMagic):])
		if !ok {
			return
		}
		u := uvarints{hdr, true}
		want := runInfo{lo: u.next(), hi: u.next(), count: u.next(), size: int64(len(data)), crc: crc32.Checksum(data, castagnoli)}
		m := manifest{base: want.lo, next: want.hi, live: want.count, runs: []runInfo{want}}
		if !u.ok || m.validate() != nil {
			return
		}
		dst := make([]event.Instance, want.count)
		if err := parseRun(data, want, 2, dst); err == nil {
			fresh := store.New()
			if err := fresh.Restore(m.base, m.next, dst); err != nil {
				t.Fatalf("a run the reader accepted does not restore: %v", err)
			}
		}
	})
}
