package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
	"grca/internal/wire"
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

// fileInfos stats the files in dir, by name.
func fileInfos(t testing.TB, dir string) map[string]os.FileInfo {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]os.FileInfo{}
	for _, e := range entries {
		if out[e.Name()], err = e.Info(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// copyDir clones a log directory — a crash image to recover from while
// the original carries on. Two names of one file in src (a sealed segment
// and the run linked from it) are two names of one file in the clone.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	type copied struct {
		fi   os.FileInfo
		path string
	}
	var done []copied
	err := filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		if fi.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		for _, c := range done {
			if os.SameFile(c.fi, fi) {
				return os.Link(c.path, filepath.Join(dst, rel))
			}
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		done = append(done, copied{fi, filepath.Join(dst, rel)})
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// checkManifestsIntact asserts what neither compaction nor an append may
// ever break: every retained manifest parses and each run it references
// is on disk at the recorded size and CRC.
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
			data, err := os.ReadFile(runFile(dir, r))
			if err != nil {
				t.Fatalf("%s references a run compaction deleted: %v", filepath.Base(p), err)
			}
			if int64(len(data)) != r.size || crc32.Checksum(data, castagnoli) != r.crc {
				t.Fatalf("%s: run %s is %d bytes, manifest says %d, or its CRC differs", filepath.Base(p), runName(r), len(data), r.size)
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

// TestSnapshotWriteAmplification is the point of adopting sealed segments
// as an exact count: 20 auto-snapshots over a store growing to 200k
// events write each record once — into its segment — and to snap/ the
// manifests alone, every run being a second name of a segment.
func TestSnapshotWriteAmplification(t *testing.T) {
	const total, every, batch = 200_000, 10_000, 1000
	dir := t.TempDir()
	ins := genEvents(23, total)
	l, st, _, err := Open(dir, Options{SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Bytes the log's files received, counted from outside: every name
	// that ever appears under wal/ at its largest size (a segment only
	// grows), and every name that appears under snap/ at its size (names
	// are never reused with other content) unless it is a second name of
	// a segment. The snap/ metric must agree to the byte.
	segSizes, seen := map[string]int64{}, map[string]bool{}
	snapBytes, manifestBytes, snapshots := int64(0), int64(0), 0
	counter, adopted := mSnapBytes.Value(), mSnapRunsAdopted.Value()
	for i := 0; i < total; i += batch {
		st.AddAll(ins[i : i+batch])
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		segs := fileInfos(t, walDir(dir))
		for name, fi := range segs {
			segSizes[name] = fi.Size()
		}
	next:
		for name, fi := range fileInfos(t, snapDir(dir)) {
			if seen[name] {
				continue
			}
			seen[name] = true
			if strings.HasSuffix(name, ".snap") {
				snapshots++
				manifestBytes += fi.Size()
			}
			// Compaction trails a snapshot behind, so the segment a new
			// run was linked from is still listed.
			for _, seg := range segs {
				if os.SameFile(seg, fi) {
					continue next
				}
			}
			snapBytes += fi.Size()
		}
	}
	segBytes := int64(0)
	for _, size := range segSizes {
		segBytes += size
	}
	if snapshots != total/every {
		t.Fatalf("%d auto-snapshots, want %d", snapshots, total/every)
	}
	if got := mSnapBytes.Value() - counter; got != snapBytes || snapBytes != manifestBytes {
		t.Fatalf("wal.snapshot.bytes counted %d, snap/ received %d, of which manifests %d: want all three equal",
			got, snapBytes, manifestBytes)
	}
	if got := mSnapRunsAdopted.Value() - adopted; got != total/every {
		t.Fatalf("%d runs adopted, want one per snapshot (%d)", got, total/every)
	}
	snaps := manifests(t, dir)
	m, err := readManifest(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	if m.live != total || len(m.runs) != total/every {
		t.Fatalf("final manifest holds %d instances in %d runs, want %d in %d", m.live, len(m.runs), total, total/every)
	}
	if written, limit := segBytes+snapBytes, segBytes+segBytes/20; written > limit {
		t.Fatalf("20 snapshots brought the log's writes to %d bytes for %d bytes of segments (%.3f×, limit 1.05×)",
			written, segBytes, float64(written)/float64(segBytes))
	}
	checkManifestsIntact(t, dir)
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
			Attrs: event.NewAttrs(map[string]string{"raw": strings.Repeat("x", rng.Intn(200))}),
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
	// A crumb is copied, not sealed: one segment grows, too.
	if segs, _, _ := listNumbered(walDir(dir), "seg-", ".log"); len(segs) > 4 {
		t.Fatalf("%d segment files after a snapshot per insert, want ≤ 4", len(segs))
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
	got := planRuns(prev, 605, 620, nil, func(lo, hi int) int { return live[[2]int{lo, hi}] })
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

// TestPlanRunsSealedTail pins how the tail is planned over sealed
// segments, and which of the planned runs a segment may stand in for.
func TestPlanRunsSealedTail(t *testing.T) {
	big := int64(crumbBytes)
	prev := []runInfo{
		{lo: 0, hi: 100, count: 100, size: big},
		{lo: 100, hi: 120, count: 20, size: 1400}, // a crumb copied while segment a was still open
	}
	sealed := []segInfo{
		{path: "gone", first: 0, last: 99, count: 100, size: big}, // covered by the previous snapshot
		{path: "a", first: 100, last: 199, count: 100, size: big}, // reaches below the tail: merges with its crumb
		{path: "b", first: 200, last: 299, count: 100, size: big}, // wholly in the tail, big: a run of its own
		{path: "c", first: 300, last: 309, count: 10, size: 700},  // a crumb: merges with what the active segment holds
	}
	counts := map[[2]int]int{
		{0, 100}: 100, {100, 120}: 20, {120, 200}: 80, {200, 300}: 100, {300, 310}: 10, {310, 320}: 7,
		{100, 200}: 100,
	}
	live := func(lo, hi int) int { return counts[[2]int{lo, hi}] }
	got := planRuns(prev, 120, 320, sealed, live)
	want := []plannedRun{
		{prev[0], false},
		{runInfo{lo: 100, hi: 200, count: 100}, true},
		{runInfo{lo: 200, hi: 300, count: 100, size: big}, true},
		{runInfo{lo: 300, hi: 320, count: 17}, true},
	}
	if len(got) != len(want) {
		t.Fatalf("plan has %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("plan[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	for i, path := range []string{"a", "b", ""} {
		i++ // the runs to write
		s := adoptable(sealed, got[i].runInfo, live)
		if (s == nil) != (path == "") || s != nil && s.path != path {
			t.Errorf("plan[%d] adopts %+v, want segment %q", i, s, path)
		}
	}
	// Equal counts are not equal contents: a record of b evicted and an
	// instance live beside it in the range.
	counts[[2]int{200, 300}] = 99
	if s := adoptable(sealed, runInfo{lo: 190, hi: 300, count: 100}, live); s != nil {
		t.Errorf("a range holding an instance segment %q does not was adopted from it", s.path)
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
// installed in an empty directory recovers the identical store from the
// same runs — and an image whose manifest lies, or whose runs are not what
// it says, is refused or, at worst, installed as a snapshot recovery then
// skips.
func TestSnapshotImageRoundtrip(t *testing.T) {
	prim := t.TempDir()
	ins := genEvents(41, 12000) // 3000 a run: well past crumb size, so four runs
	l, st, _, err := Open(prim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12000; i += 3000 {
		st.AddAll(ins[i : i+3000])
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
	if len(im.files) != 4 || im.Next != 12000 {
		t.Fatalf("image over %d runs up to ID %d, want 4 runs up to 12000", len(im.files), im.Next)
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

	dir, next, err := installImage(t, data)
	if err != nil || next != 12000 {
		t.Fatalf("install: next %d, %v", next, err)
	}
	if n := len(runFiles(t, dir)); n != 4 {
		t.Fatalf("installed as %d runs, want the image's 4", n)
	}
	_, st2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotLive != 12000 || StoreDigest(st2) != want {
		t.Fatalf("installed image recovered %+v, digest equal: %v", rec, StoreDigest(st2) == want)
	}

	// A manifest announcing more records than the bytes behind it hold.
	lying := manifest{next: 1 << 60, live: 1 << 60, runs: []runInfo{{hi: 1 << 60, count: 1 << 60, size: 1 << 62}}}.encode()
	if _, _, err := installImage(t, lying); err == nil {
		t.Fatal("an image announcing 1<<60 records in its manifest alone was installed")
	}
	// A manifest that is plausible but wrong: installs, and recovery skips it.
	m, hdrLen := imageManifest(t, data)
	m.runs[1].count--
	m.live--
	wrong := append(m.encode(), data[hdrLen:]...)
	dir, _, err = installImage(t, wrong)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rec, err = Open(dir, Options{})
	if err != nil || rec.SnapshotNext != 0 || rec.SnapshotsSkipped != 1 {
		t.Fatalf("recovery over a lying image: %+v, %v", rec, err)
	}
	// A run that is not what its entry says is not installed at all.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-3] ^= 0x20
	if _, _, err := installImage(t, flipped); err == nil {
		t.Fatal("an image with a damaged run was installed")
	}
	for _, junk := range [][]byte{nil, []byte(snapMagic), []byte("not an image at all"), hugeCountDump()} {
		if _, _, err := installImage(t, junk); err == nil {
			t.Fatalf("junk image %q was installed", junk)
		}
	}

	// The same bytes decoded straight into a store — a follower loading a
	// checkpoint off the journal stream — in whatever pieces they arrive.
	for _, piece := range []int{1 << 20, 4096, 7} {
		st3, err := decodeImage(data, piece)
		if err != nil || StoreDigest(st3) != want {
			t.Fatalf("decoded in pieces of %d: %v, digest equal: %v", piece, err, err == nil && StoreDigest(st3) == want)
		}
	}
	for name, bad := range map[string][]byte{
		"lying header":  lying,
		"one short":     wrong,
		"run damaged":   flipped,
		"cut mid-frame": data[:len(data)-5],
		"one byte more": append(data[:len(data):len(data)], 0),
		"junk":          []byte("not an image at all, however long it goes on"),
	} {
		if _, err := decodeImage(bad, 4096); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestMixedImage: a snapshot of a directory an earlier version wrote keeps
// its legacy run beside the block runs this version writes; the image over
// both decodes and installs to the store it was taken from.
func TestMixedImage(t *testing.T) {
	dir := legacyDir(t, genEvents(26, 1000))
	l, st, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.AddAll(genEvents(26, 50))
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := StoreDigest(st)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	im, err := OpenSnapshotImage(dir)
	if err != nil || im == nil {
		t.Fatalf("no image: %v", err)
	}
	data, err := io.ReadAll(im)
	im.Close()
	if err != nil {
		t.Fatal(err)
	}
	m, at := imageManifest(t, data)
	var formats []string
	for _, r := range m.runs {
		formats = append(formats, map[bool]string{true: "block", false: "legacy"}[bytes.HasPrefix(data[at:], magicFrame)])
		at += int(r.size)
	}
	if fmt.Sprint(formats) != "[legacy block]" {
		t.Fatalf("the image's runs are %v, want a legacy one and a block one", formats)
	}
	if st2, err := decodeImage(data, 999); err != nil || StoreDigest(st2) != want {
		t.Fatalf("the mixed image decoded: %v, digest equal: %v", err, err == nil && StoreDigest(st2) == want)
	}
	fresh, _, err := installImage(t, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, st3, _, err := Open(fresh, Options{}); err != nil || StoreDigest(st3) != want {
		t.Fatalf("the mixed image installed: %v, digest equal: %v", err, err == nil && StoreDigest(st3) == want)
	}
}

// legacyDir returns a data dir as an earlier version left it after a
// snapshot of ins: a manifest over one legacy run, well past crumb size,
// and no segment.
func legacyDir(t *testing.T, ins []event.Instance) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(snapDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	var run []byte
	for i := range ins {
		ins[i].ID = i
		run = appendFrame(run, appendRecord(nil, &ins[i]))
	}
	r := runInfo{lo: 0, hi: len(ins), count: len(ins), size: int64(len(run)), crc: crc32.Checksum(run, castagnoli)}
	if r.size < crumbBytes {
		t.Fatalf("a legacy run of %d bytes is a crumb", r.size)
	}
	if err := os.WriteFile(runFile(dir, r), run, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := writeManifest(dir, manifest{next: r.hi, live: r.count, runs: []runInfo{r}}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// installImage stages data in a fresh directory and installs it there.
func installImage(t *testing.T, data []byte) (string, int, error) {
	t.Helper()
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

// imageManifest returns the manifest an image opens with and its length.
func imageManifest(t *testing.T, data []byte) (manifest, int) {
	t.Helper()
	_, rest, ok := readFrame(data[len(snapMagic):])
	if !ok {
		t.Fatal("the image does not open with a manifest")
	}
	n := len(data) - len(rest)
	m, err := parseManifest(data[:n])
	if err != nil {
		t.Fatal(err)
	}
	return m, n
}

// decodeImage runs an ImageDecoder over data, piece bytes at a time, into
// a store that held something else before.
func decodeImage(data []byte, piece int) (*store.Memory, error) {
	var d ImageDecoder
	for len(data) > 0 {
		n := min(piece, len(data))
		if _, err := d.Write(data[:n]); err != nil {
			return nil, err
		}
		data = data[n:]
	}
	base, next, ins, err := d.Finish()
	if err != nil {
		return nil, err
	}
	st := store.New()
	st.AddAll(genEvents(99, 1)) // what the store held before
	return st, st.Replace(base, next, ins)
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

// oldRunHeader is the header run files carried before they became plain
// record files.
func oldRunHeader(lo, hi, count int) []byte {
	var p []byte
	for _, v := range []int{lo, hi, count} {
		p = binary.AppendUvarint(p, uint64(v))
	}
	return appendFrame([]byte("GRCARUN1"), p)
}

// unreadablePairs returns, from a log directory holding one manifest over
// one run, manifest and run bytes recovery must refuse: the run as it
// would be had an append landed in it after its manifest was written, and
// the same records under the header run files carried before they became
// plain record files, with a manifest that vouches for those very bytes.
func unreadablePairs(t testing.TB, dir string) map[string][2][]byte {
	t.Helper()
	m, err := readManifest(manifests(t, dir)[0])
	if err != nil || len(m.runs) != 1 {
		t.Fatalf("want one manifest over one run, have %+v (%v)", m, err)
	}
	run, err := os.ReadFile(runFile(dir, m.runs[0]))
	if err != nil {
		t.Fatal(err)
	}
	extra := genEvents(59, 1)[0]
	extra.ID = m.next
	grown := appendBlockFrame(append([]byte(nil), run...), []event.Instance{extra})
	old := m
	r := m.runs[0]
	headed := append(oldRunHeader(r.lo, r.hi, r.count), run...)
	r.size, r.crc = int64(len(headed)), crc32.Checksum(headed, castagnoli)
	old.runs = []runInfo{r}
	return map[string][2][]byte{
		"run grown after its manifest": {m.encode(), grown},
		"run with the old header":      {old.encode(), headed},
	}
}

// TestForeignRunsFallBack: a run that is not, byte for byte, the records
// its manifest entry describes makes the snapshot unreadable — counted,
// skipped, and the segments rebuild the store.
func TestForeignRunsFallBack(t *testing.T) {
	build := func(t *testing.T) (dir, want string) {
		dir = t.TempDir()
		ins := genEvents(61, 1100)
		l, st, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		st.AddAll(ins[:1000])
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
		st.AddAll(ins[1000:])
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, StoreDigest(st)
	}
	first, _ := build(t)
	for name, pair := range unreadablePairs(t, first) {
		t.Run(name, func(t *testing.T) {
			dir, want := build(t)
			run := runFiles(t, dir)[0]
			// The run is a second name of a segment: replace it, so that
			// the segment keeps the records recovery falls back to.
			if err := os.Remove(run); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(run, pair[1], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(manifests(t, dir)[0], pair[0], 0o644); err != nil {
				t.Fatal(err)
			}
			_, st, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rec.SnapshotNext != 0 || rec.SnapshotsSkipped != 1 {
				t.Fatalf("recovery %+v: want the snapshot skipped and counted", rec)
			}
			if StoreDigest(st) != want {
				t.Fatal("fallback recovery lost data despite intact segments")
			}
		})
	}
}

// TestAdoptedRunMatchesWrittenRun: a run that came to exist as a link to
// a sealed segment decodes to exactly the instances writeRun writes for
// the same range — on dense IDs and on sparse ones — though not from the
// same bytes (a segment's frames follow its commit groups), and its
// manifest entry carries the size and CRC of the file it is.
func TestAdoptedRunMatchesWrittenRun(t *testing.T) {
	for _, stride := range []int{1, 3} {
		t.Run(map[int]string{1: "dense", 3: "sparse"}[stride], func(t *testing.T) {
			dir, scratch := t.TempDir(), t.TempDir()
			if err := os.MkdirAll(snapDir(scratch), 0o755); err != nil {
				t.Fatal(err)
			}
			l, st, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			ins := genEvents(67, 9000) // 3000 a segment: well past crumb size
			adopted := mSnapRunsAdopted.Value()
			for gen := 0; gen < 3; gen++ {
				// Commit groups of 750: four frames a segment.
				for i := gen * 3000; i < (gen+1)*3000; i++ {
					ins[i].ID = 5 + i*stride
					if _, err := st.Put(ins[i]); err != nil {
						t.Fatal(err)
					}
					if i%750 == 749 {
						if err := l.Commit(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := l.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			if got := mSnapRunsAdopted.Value() - adopted; got != 3 {
				t.Fatalf("%d runs adopted, want 3", got)
			}
			m, err := readManifest(manifests(t, dir)[1])
			if err != nil || len(m.runs) != 3 {
				t.Fatalf("newest manifest %+v (%v), want three runs", m, err)
			}
			segs, _, err := listNumbered(walDir(dir), "seg-", ".log")
			if err != nil {
				t.Fatal(err)
			}
			decode := func(path string, r runInfo) []event.Instance {
				t.Helper()
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]event.Instance, r.count)
				if err := parseRun(data, r, 2, got); err != nil {
					t.Fatalf("%s against its entry %+v: %v", path, r, err)
				}
				return got
			}
			for _, r := range m.runs {
				want := runInfo{lo: r.lo, hi: r.hi, count: r.count}
				err := st.Cut(func(c store.Cut) error {
					f, err := writeRun(scratch, &want, c)
					if err != nil {
						return err
					}
					return commitFile(f, runFile(scratch, want))
				})
				if err != nil {
					t.Fatal(err)
				}
				got, written := decode(runFile(dir, r), r), decode(runFile(scratch, want), want)
				for i := range written {
					if got[i] != written[i] {
						t.Fatalf("run %s: instance %d is %+v adopted, %+v written", runName(r), i, got[i], written[i])
					}
				}
				if r.size <= want.size {
					t.Fatalf("run %s: the adopted file is %d bytes, the written one %d: four commit groups should cost more than one frame", runName(r), r.size, want.size)
				}
			}
			// The newest run is still a second name of the segment it was.
			last, err := os.Stat(runFile(dir, m.runs[2]))
			if err != nil {
				t.Fatal(err)
			}
			seg, err := os.Stat(segs[len(segs)-1])
			if err != nil {
				t.Fatal(err)
			}
			if !os.SameFile(last, seg) {
				t.Fatalf("%s is not a link to %s", runName(m.runs[2]), segs[len(segs)-1])
			}
		})
	}
}

// FuzzSnapshotDecode feeds arbitrary bytes to both snapshot readers, as a
// manifest and as a run of either encoding. A follower's snap/ holds whatever its primary
// sent, so neither may panic, and neither may allocate for a count the
// bytes present could not carry. An input that starts with a whole
// manifest frame is that manifest followed by the run its first entry
// references — a snap/ directory in one string — and the run is then
// also held against that entry, as recovery holds it.
func FuzzSnapshotDecode(f *testing.F) {
	snapshot := func(n int) (dir string) {
		dir = f.TempDir()
		l, st, _, err := Open(dir, Options{})
		if err != nil {
			f.Fatal(err)
		}
		st.AddAll(genEvents(47, n))
		if err := l.Snapshot(); err != nil {
			f.Fatal(err)
		}
		l.Close()
		return dir
	}
	for _, n := range []int{20, 3000} { // a written crumb, an adopted segment
		dir := snapshot(n)
		man, err := os.ReadFile(manifests(f, dir)[0])
		if err != nil {
			f.Fatal(err)
		}
		run, err := os.ReadFile(runFiles(f, dir)[0])
		if err != nil {
			f.Fatal(err)
		}
		for _, data := range [][]byte{man, run, append(man[:len(man):len(man)], run...)} {
			f.Add(data)
			f.Add(data[:len(data)/2])
			flipped := append([]byte(nil), data...)
			flipped[len(flipped)-3] ^= 0x20
			f.Add(flipped)
		}
		for _, pair := range unreadablePairs(f, dir) {
			f.Add(append(pair[0], pair[1]...))
		}
	}
	f.Add(hugeCountDump())
	f.Add(oldRunHeader(0, 1<<60, 1<<60))
	f.Add(manifest{next: 1 << 60, live: 1 << 60, runs: []runInfo{{hi: 1 << 60, count: 1 << 60, size: 8}}}.encode())
	f.Add([]byte("GRCASNAP2 but nothing else"))

	// restores checks that a run the reader accepted against want is one
	// the store takes back.
	restores := func(t *testing.T, run []byte, want runInfo) {
		dst := make([]event.Instance, want.count)
		if err := parseRun(run, want, 2, dst); err == nil {
			if err := store.New().Restore(want.lo, want.hi, dst); err != nil {
				t.Fatalf("a run the reader accepted does not restore: %v", err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		man, run := data, data
		if strings.HasPrefix(string(data), snapMagic) {
			if _, rest, ok := readFrame(data[len(snapMagic):]); ok {
				man, run = data[:len(data)-len(rest)], rest
			}
		}
		if m, err := parseManifest(man); err == nil {
			if len(m.runs)*5 > len(man) {
				t.Fatalf("%d runs accepted from %d bytes", len(m.runs), len(man))
			}
			for _, r := range m.runs {
				if int64(r.count) > r.size/wire.MinBlockEvent {
					t.Fatalf("run of %d records accepted in %d claimed bytes", r.count, r.size)
				}
			}
			// As recovery does: the size the entry claims is held against
			// the file before anything is allocated for its count.
			if len(m.runs) > 0 && m.runs[0].size == int64(len(run)) {
				restores(t, run, m.runs[0])
			}
		}
		// As a run on its own: take the entry a manifest would have to
		// carry for these bytes to get past the size and CRC check, from
		// the bytes themselves.
		want := runInfo{size: int64(len(run)), crc: crc32.Checksum(run, castagnoli)}
		var ff fileFrames
		for rest := run; ; {
			payload, r2, ok := readFrame(rest)
			if !ok {
				break
			}
			s, err := ff.span(payload)
			if err != nil || s.first < 0 || s.last >= maxID {
				break
			}
			if s.count > 0 {
				if want.count == 0 {
					want.lo = s.first
				}
				want.hi, want.count = s.last+1, want.count+s.count
			}
			rest = r2
		}
		if (manifest{base: want.lo, next: want.hi, live: want.count, runs: []runInfo{want}}).validate() == nil {
			restores(t, run, want)
		}
	})
}
