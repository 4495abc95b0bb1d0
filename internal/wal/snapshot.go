package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"grca/internal/event"
	"grca/internal/obs"
	"grca/internal/store"
	"grca/internal/wire"
)

// A snapshot is a small manifest over immutable run files:
//
//	snap/snap-<next>.snap            magic "GRCASNAP2" | frame(manifest)
//	snap/run-<lo>-<hi>-<count>.run   a record file: magicFrame | block frames
//
// A run holds the instances that were live in the ID range [lo, hi) when
// it came to exist, in the segment encoding and nothing else — a block
// file, or a legacy one an earlier version wrote (encode.go): what it
// covers is said by its name and by the manifest entry that references it.
// The manifest is uvarint base | next | live | #runs, then per run lo | hi
// | count | file size | CRC32C of the whole file, runs ascending and
// non-overlapping. Every frame carries the standard CRC32C.
//
// A run comes to exist one of two ways. A sealed segment whose records
// are exactly the live instances of the run's range is adopted: hard-
// linked under the run's name, its size and CRC taken from what the log
// kept as it wrote the segment — it decodes to the instances writeRun
// would write, so nothing is written. (Not to the same bytes: a segment's
// frames follow commit groups, which a run written from the store cannot
// know.) Every other run — a range an eviction took instances from, a
// crumb, a range whose records straddle segments — is written from the
// store by writeRun.
//
// Under a Log IDs only ascend (record poisons the log otherwise), so a
// range already written can only lose instances, and a run's content
// is a function of (lo, hi, count): a run is unchanged exactly when the
// store still holds count live instances in [lo, hi). That one
// comparison replaces a dead-ID filter or tombstone list, and it is why
// the count is part of the file name — a rewritten range never lands on
// the name of the run it replaces, which the previous manifest may still
// reference.
const (
	snapMagic = "GRCASNAP2"

	// crumbBytes is the size below which a run is a crumb: written into
	// one run with the crumbs next to it whenever any of them is written,
	// so snapshots that each add a handful of records (a snapshot per
	// insert under retention) grow one run to this size instead of
	// littering one file each, and runs that evictions wore down fold
	// together instead of lingering. It is also the size below which a
	// snapshot leaves the active segment open: a crumb is copied, so that
	// such snapshots grow one segment too, not one each.
	crumbBytes = 64 << 10

	// maxID bounds every ID and count read from disk so that sums and
	// differences of two of them cannot overflow an int.
	maxID = 1 << 62
)

// runInfo is one manifest entry.
type runInfo struct {
	lo, hi int    // ID range the run covered when written
	count  int    // instances in the file
	size   int64  // file bytes
	crc    uint32 // CRC32C of the whole file
}

// manifest is a decoded snapshot manifest: the store's ID bounds and
// live count at the cut, and the runs that together hold those instances.
type manifest struct {
	base, next, live int
	runs             []runInfo
}

func snapFile(dir string, next int) string {
	return filepath.Join(snapDir(dir), fmt.Sprintf("snap-%016d.snap", next))
}

func runName(r runInfo) string {
	return fmt.Sprintf("run-%016d-%016d-%d.run", r.lo, r.hi, r.count)
}

func runFile(dir string, r runInfo) string { return filepath.Join(snapDir(dir), runName(r)) }

func (m manifest) encode() []byte {
	var p []byte
	for _, v := range []int{m.base, m.next, m.live, len(m.runs)} {
		p = binary.AppendUvarint(p, uint64(v))
	}
	for _, r := range m.runs {
		for _, v := range []uint64{uint64(r.lo), uint64(r.hi), uint64(r.count), uint64(r.size), uint64(r.crc)} {
			p = binary.AppendUvarint(p, v)
		}
	}
	return appendFrame([]byte(snapMagic), p)
}

// uvarints reads consecutive bounded uvarints; ok turns false (and stays
// false) at the first truncated or out-of-range value.
type uvarints struct {
	p  []byte
	ok bool
}

func (u *uvarints) next() int {
	v, sz := binary.Uvarint(u.p)
	if sz <= 0 || v > maxID {
		u.ok = false
		return 0
	}
	u.p = u.p[sz:]
	return int(v)
}

// parseManifest decodes and validates a manifest file's bytes.
func parseManifest(data []byte) (manifest, error) {
	if !bytes.HasPrefix(data, []byte(snapMagic)) {
		return manifest{}, fmt.Errorf("bad manifest magic")
	}
	payload, rest, ok := readFrame(data[len(snapMagic):])
	if !ok || len(rest) != 0 {
		return manifest{}, fmt.Errorf("torn manifest")
	}
	return decodeManifest(payload)
}

// decodeManifest decodes and validates a manifest frame's payload. The
// run count is checked against the bytes that carry it before anything is
// allocated.
func decodeManifest(payload []byte) (manifest, error) {
	var m manifest
	u := uvarints{payload, true}
	m.base, m.next, m.live = u.next(), u.next(), u.next()
	nruns := u.next()
	// A run entry is five uvarints, so at least five bytes.
	if !u.ok || nruns > len(u.p)/5 {
		return m, fmt.Errorf("bad manifest header")
	}
	m.runs = make([]runInfo, nruns)
	for i := range m.runs {
		r := runInfo{lo: u.next(), hi: u.next(), count: u.next(), size: int64(u.next())}
		crc := u.next()
		if crc > 0xffffffff {
			u.ok = false
		}
		r.crc = uint32(crc)
		m.runs[i] = r
	}
	if !u.ok || len(u.p) != 0 {
		return m, fmt.Errorf("bad manifest run list")
	}
	return m, m.validate()
}

// validate checks the invariants recovery relies on: bounds in order,
// runs non-empty, ascending, non-overlapping and below next, each count
// possible in its ID range and in the bytes the run claims, and the
// counts summing to live. An instance takes at least wire.MinBlockEvent
// bytes in either encoding — its share of a block frame, or a legacy record's
// frame header alone — so that bounds the count by the size.
func (m manifest) validate() error {
	if m.base > m.next || m.live > m.next-m.base {
		return fmt.Errorf("bad manifest bounds [%d,%d) for %d instances", m.base, m.next, m.live)
	}
	end, live := 0, 0
	for i, r := range m.runs {
		if r.lo < end || r.hi > m.next || r.count < 1 || r.count > r.hi-r.lo || int64(r.count) > r.size/wire.MinBlockEvent {
			return fmt.Errorf("bad manifest run %d", i)
		}
		end = r.hi
		live += r.count
	}
	if live != m.live {
		return fmt.Errorf("manifest runs hold %d instances, header says %d", live, m.live)
	}
	return nil
}

func readManifest(path string) (manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return manifest{}, err
	}
	m, err := parseManifest(data)
	if err != nil {
		return m, fmt.Errorf("wal: %s: %v", path, err)
	}
	return m, nil
}

// parseRun decodes a run file's bytes into dst against the manifest
// entry that references it: the size and whole-file CRC must match the
// entry, the frames must hold exactly len(dst) = count records in either
// encoding, and their IDs must ascend inside [lo, hi). A file in any
// other format — a run with the header this code once wrote — fails at
// its first frame. The frame scan is sequential and the decode parallel —
// same staging as segment replay, same any-worker-count determinism.
func parseRun(data []byte, want runInfo, workers int, dst []event.Instance) error {
	if int64(len(data)) != want.size || crc32.Checksum(data, castagnoli) != want.crc {
		return fmt.Errorf("size or checksum differs from the manifest")
	}
	var ff fileFrames
	var frames []pendFrame
	var at []int // where each frame's instances go in dst
	held, prev := 0, want.lo-1
	for rest := data; len(rest) > 0; {
		payload, r2, ok := readFrame(rest)
		if !ok {
			return fmt.Errorf("torn frame after record %d/%d", held, len(dst))
		}
		rest = r2
		// Order is checked here, on bytes the CRC just pulled into cache,
		// rather than in a second walk over the decoded instances.
		s, err := ff.span(payload)
		if err != nil {
			return fmt.Errorf("record %d: %v", held, err)
		}
		if s.count == 0 {
			continue // the magic frame
		}
		if s.first <= prev || s.last >= want.hi || s.count > len(dst)-held {
			return fmt.Errorf("record %d: IDs %d…%d do not fit [%d,%d) × %d after ID %d", held, s.first, s.last, want.lo, want.hi, len(dst), prev)
		}
		frames, at = append(frames, pendFrame{payload, s}), append(at, held)
		held, prev = held+s.count, s.last
	}
	if held != len(dst) {
		return fmt.Errorf("%d records, the manifest says %d", held, len(dst))
	}
	return parallelIndexed(len(frames), workers, func(i int) error {
		if err := ff.decode(frames[i].payload, dst[at[i]:at[i]+frames[i].count]); err != nil {
			return fmt.Errorf("record %d: %v", at[i], err)
		}
		return nil
	})
}

// readSnapshot loads the manifest at path and every run it references.
func readSnapshot(dir, path string, workers int) (manifest, []event.Instance, error) {
	m, err := readManifest(path)
	if err != nil {
		return m, nil, err
	}
	// The manifest bounded every count by the size it claims for the run;
	// hold those claims against the files before allocating for them.
	for _, r := range m.runs {
		fi, err := os.Stat(runFile(dir, r))
		if err != nil {
			return m, nil, err
		}
		if fi.Size() != r.size {
			return m, nil, fmt.Errorf("wal: %s is %d bytes, manifest %s says %d", runFile(dir, r), fi.Size(), path, r.size)
		}
	}
	ins := make([]event.Instance, m.live)
	off := 0
	for _, r := range m.runs {
		data, err := os.ReadFile(runFile(dir, r))
		if err != nil {
			return m, nil, err
		}
		if err := parseRun(data, r, workers, ins[off:off+r.count]); err != nil {
			return m, nil, fmt.Errorf("wal: %s: %v", runFile(dir, r), err)
		}
		off += r.count
	}
	if len(ins) > 0 && ins[0].ID < m.base {
		return m, nil, fmt.Errorf("wal: %s: instance ID %d below base %d", path, ins[0].ID, m.base)
	}
	return m, ins, nil
}

// loadLatestSnapshot restores the newest readable snapshot into the
// fresh store. An unreadable one — torn by a crash, corrupt, referencing
// a missing run, or in a format this code does not read — is counted and
// skipped for the previous one: the segments below it still exist until a
// later snapshot succeeds.
func (l *Log) loadLatestSnapshot(rec *Recovery) error {
	snaps, nums, err := listNumbered(snapDir(l.dir), "snap-", ".snap")
	if err != nil {
		return err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		m, ins, err := readSnapshot(l.dir, snaps[i], l.opts.replayWorkers())
		if err != nil {
			rec.SnapshotsSkipped++
			mSnapUnreadable.Inc()
			continue
		}
		if err := l.st.Restore(m.base, m.next, ins); err != nil {
			return fmt.Errorf("wal: snapshot %s: %v", snaps[i], err)
		}
		l.snap = m
		if i > 0 {
			l.floor = nums[i-1]
		}
		rec.SnapshotNext = m.next
		rec.SnapshotLive = len(ins)
		break
	}
	// compact's horizon, from the file names alone (they outlive a
	// manifest's readability): the restore must reach it.
	if n := len(nums); n >= 2 && rec.SnapshotNext < nums[n-2] {
		rec.LostBelow = nums[n-2]
	}
	return nil
}

// plannedRun is one entry of the manifest being built: a run of the
// previous manifest kept as it is, or an ID range to write anew.
type plannedRun struct {
	runInfo
	write bool
}

// planRuns decides what a snapshot writes. prev are the previous
// manifest's runs, [prevNext, next) the IDs assigned since, sealed the
// closed segments that hold them (ascending), and live counts the store's
// live instances in an ID range. A run whose range still holds its count
// is kept; an emptied one is dropped; one that lost instances is
// rewritten. The tail is planned per sealed segment — a range ending
// where the segment's records end — so that a segment's records are one
// run's, and what the active segment holds beyond the last seal is a
// range of its own. Crumbs — runs under crumbBytes, a segment under it or
// reaching below its range, and that last range — that sit next to each
// other are written as one run as soon as any of them has to be written;
// a run at or over crumbBytes is never merged, so a large run that
// evictions keep touching does not swallow the records that arrive after
// it.
func planRuns(prev []runInfo, prevNext, next int, sealed []segInfo, live func(lo, hi int) int) []plannedRun {
	plan := make([]plannedRun, 0, len(prev)+len(sealed)+1)
	for _, r := range prev {
		if n := live(r.lo, r.hi); n > 0 {
			write := n != r.count
			r.count = n
			plan = append(plan, plannedRun{r, write})
		}
	}
	tail := func(hi int, size int64) {
		if n := live(prevNext, hi); n > 0 {
			plan = append(plan, plannedRun{runInfo{lo: prevNext, hi: hi, count: n, size: size}, true})
		}
		prevNext = hi
	}
	for _, s := range sealed {
		if s.last < prevNext {
			continue // the previous snapshot covers it
		}
		size := s.size
		if s.first < prevNext {
			size = 0 // part of it is a crumb's already: let the two merge
		}
		tail(s.last+1, size)
	}
	tail(next, 0)
	out := plan[:0]
	for i := 0; i < len(plan); {
		j, write, count := i, false, 0
		for j < len(plan) && plan[j].size < crumbBytes {
			write = write || plan[j].write
			count += plan[j].count
			j++
		}
		switch {
		case j == i: // not a crumb: stands alone, kept or rewritten
			out = append(out, plan[i])
			j++
		case write:
			out = append(out, plannedRun{runInfo{lo: plan[i].lo, hi: plan[j-1].hi, count: count}, true})
		default:
			out = append(out, plan[i:j]...)
		}
		i = j
	}
	return out
}

// adoptable returns the sealed segment whose records are the run r, if
// there is one: every record of it inside r's range, as many of them as
// the range holds live instances, and each still live. IDs ascend through
// the log, so every instance ever stored with an ID between the segment's
// first and last is a record of it; with all of those live and the range
// holding no more, the segment's records are the range's live instances
// in ID order — what writeRun writes, in frames of other sizes.
func adoptable(sealed []segInfo, r runInfo, live func(lo, hi int) int) *segInfo {
	for i := range sealed {
		s := &sealed[i]
		if r.lo <= s.first && s.last < r.hi && s.count == r.count && live(s.first, s.last+1) == s.count {
			return s
		}
	}
	return nil
}

// linkRun makes the sealed segment at seg the run at run. A name already
// there is the orphan of a snapshot that linked it and never got its
// manifest (a run a retained manifest references is kept, never planned
// again under the same name), so it is replaced.
func linkRun(seg, run string) error {
	err := os.Link(seg, run)
	if os.IsExist(err) {
		if err = os.Remove(run); err == nil {
			err = os.Link(seg, run)
		}
	}
	return err
}

// crcWriter passes writes through to w, tracking their size and CRC32C.
type crcWriter struct {
	w    io.Writer
	size int64
	crc  uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.size += int64(n)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

// writeRun streams the cut's live instances in r's range into a temp
// file beside the run's final name and returns the file, still open and
// not yet synced, with r's size and CRC filled in. It writes a block file,
// maxBlockEvents instances at a time through a reused frame buffer and a
// buffered writer — never an in-memory image. What it writes decodes to
// what flushLocked wrote for the same instances: that is what makes a
// sealed segment adoptable in its place.
func writeRun(dir string, r *runInfo, c store.Cut) (*os.File, error) {
	f, err := os.OpenFile(runFile(dir, *r)+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	cw := &crcWriter{w: f}
	bw := bufio.NewWriterSize(cw, 1<<18)
	group := make([]event.Instance, 0, min(r.count, maxBlockEvents))
	var frame []byte
	flush := func() error {
		for rest := group; len(rest) > 0; {
			n := blockLen(rest)
			frame = appendBlockFrame(frame[:0], rest[:n])
			if _, err := bw.Write(frame); err != nil {
				return err
			}
			rest = rest[n:]
		}
		group = group[:0]
		return nil
	}
	_, err = bw.Write(magicFrame)
	if err == nil {
		err = c.Each(r.lo, r.hi, func(in *event.Instance) error {
			if group = append(group, *in); len(group) < maxBlockEvents {
				return nil
			}
			return flush()
		})
	}
	if err == nil {
		err = flush()
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close() //nolint:errcheck // already failing; the temp file is collected by compact
		return nil, err
	}
	r.size, r.crc = cw.size, cw.crc
	return f, nil
}

// commitFile syncs and closes a written temp file and renames it to path.
func commitFile(f *os.File, path string) error {
	err := fileSync(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// writeManifest makes m the durable snapshot covering IDs < m.next. The
// runs it references must already be renamed into place.
func writeManifest(dir string, m manifest) (int64, error) {
	data := m.encode()
	f, err := os.OpenFile(filepath.Join(snapDir(dir), "snap.tmp"), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close() //nolint:errcheck // already failing
		return 0, err
	}
	if err := commitFile(f, snapFile(dir, m.next)); err != nil {
		return 0, err
	}
	return int64(len(data)), syncDir(snapDir(dir))
}

// Snapshot flushes pending records, seals the active segment, and makes
// durable what changed since the previous snapshot: a run for each sealed
// segment of the IDs assigned since — the segment itself, linked, when
// its records are exactly the run's — a rewrite of each run an eviction
// took instances from, and a manifest naming those beside the runs kept
// as they are. It then compacts: segments and runs made redundant and all
// but the previous manifest are deleted. With retention eviction feeding
// this (the store's OnEvict hook), disk stays bounded like the store's
// memory, and the bytes written follow the records evicted, not the
// store's size — the records added were written once, by Commit.
//
// Write order: the segment is synced and closed, then linked; written
// runs are synced and renamed; then the manifest is synced and renamed,
// then the directory is synced, then compaction runs. A crash before the
// manifest's rename leaves unreferenced runs, which recovery ignores and
// the next compaction collects (a link that finds its name taken by one
// replaces it); a crash after it leaves at worst files compaction had not
// yet removed. Should the directory lose a run's name but keep the
// manifest's, the manifest fails its size and CRC check and recovery
// falls back to the previous one, whose runs and segments are only
// removed after the sync.
//
// A failure is counted in wal.snapshots.failed and leaves the log as it
// was but for the seal — the previous snapshot and every segment above it
// still recover the store, and the next snapshot covers the same delta.
func (l *Log) Snapshot() error {
	err := l.snapshot()
	if err != nil {
		mSnapFailed.Inc()
	}
	return err
}

func (l *Log) snapshot() error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	// Records buffered but unflushed are covered by the runs below; sync
	// them anyway so the log never trails the snapshot's claim. Then seal,
	// so that what was appended since the last snapshot is a file nothing
	// will write to again — unless it is a crumb, which is copied.
	l.mu.Lock()
	err := l.flushLocked(true, obs.Now())
	if err == nil && l.cur.size >= crumbBytes {
		if err = l.sealLocked(); err != nil {
			l.err = err
		}
	}
	sealed := slices.Clone(l.sealed)
	l.mu.Unlock()
	if err != nil {
		return err
	}

	var m manifest
	type writtenRun struct {
		tmp  *os.File
		info *runInfo // the m.runs entry the file is
	}
	var written []writtenRun
	defer func() {
		for _, w := range written {
			w.tmp.Close() //nolint:errcheck // failed before its commit; compact collects the temp file
		}
	}()
	adopted := 0
	err = l.st.Cut(func(c store.Cut) error {
		m.base, m.next, m.live = c.Bounds()
		plan := planRuns(l.snap.runs, l.snap.next, m.next, sealed, c.Count)
		m.runs = make([]runInfo, len(plan))
		for i, p := range plan {
			r := &m.runs[i]
			*r = p.runInfo
			if !p.write {
				continue
			}
			// A link the filesystem refuses is a run to write like any other.
			if s := adoptable(sealed, *r, c.Count); s != nil && linkRun(s.path, runFile(l.dir, *r)) == nil {
				r.size, r.crc = s.size, s.crc
				adopted++
				continue
			}
			f, err := writeRun(l.dir, r, c)
			if err != nil {
				return err
			}
			written = append(written, writtenRun{f, r})
		}
		return nil
	})
	if err != nil {
		return err
	}
	nwritten := len(written)
	for len(written) > 0 {
		w := written[0]
		written = written[1:]
		if err := commitFile(w.tmp, runFile(l.dir, *w.info)); err != nil {
			return err
		}
		mSnapBytes.Add(w.info.size)
	}
	n, err := writeManifest(l.dir, m)
	if err != nil {
		return err
	}
	mSnapshots.Inc()
	mSnapBytes.Add(n)
	mSnapRunsWritten.Add(int64(nwritten))
	mSnapRunsAdopted.Add(int64(adopted))
	mSnapRunsReused.Add(int64(len(m.runs) - nwritten - adopted))

	// The manifest this one follows was durable before this snapshot began;
	// what it covers is covered twice over now.
	floor := l.snap.next
	l.snap = m
	l.mu.Lock()
	l.floor = floor
	if l.sinceSnap = l.nextSeq - m.next; l.sinceSnap < 0 {
		l.sinceSnap = 0
	}
	// A segment the manifest covers can never be adopted again: a later
	// rewrite of its range is one an eviction caused.
	l.sealed = slices.DeleteFunc(l.sealed, func(s segInfo) bool { return s.last < m.next })
	active := l.cur.path
	l.mu.Unlock()
	return l.compact(active, m)
}

// compact keeps the latest two manifests, the runs either references,
// and removes segments whose entire record range lies below the OLDER
// retained snapshot (never the active segment). A segment a run was linked
// from goes like any other: the wal/ name and the snap/ name are two names
// of one file, each removed by its own rule. Compacting to the older
// snapshot — not the one just written — is what makes the two-snapshot
// retention real: if the newest snapshot turns out unreadable at
// recovery, the previous manifest, its runs and the still-present
// segments rebuild the same state. Segment i's records all lie below
// segment i+1's first ID, so it is removable once that bound clears the
// horizon. cur is the manifest just written.
func (l *Log) compact(active string, cur manifest) error {
	snaps, nums, err := listNumbered(snapDir(l.dir), "snap-", ".snap")
	if err != nil {
		return err
	}
	for i := 0; i+2 < len(snaps); i++ {
		if err := os.Remove(snaps[i]); err != nil {
			return err
		}
	}
	horizon := 0 // only one snapshot: it has no fallback, delete nothing
	keep := map[string]bool{}
	for _, r := range cur.runs {
		keep[runName(r)] = true
	}
	if n := len(nums); n >= 2 {
		horizon = nums[n-2]
		// An older manifest that does not parse references nothing worth
		// keeping: recovery could not use it either.
		if older, err := readManifest(snaps[n-2]); err == nil {
			for _, r := range older.runs {
				keep[runName(r)] = true
			}
		}
	}
	// Whatever else is named like a run is an orphan: replaced, emptied,
	// or a temp file or renamed run of a snapshot that never got its
	// manifest. Snapshot is serialized, so nothing here is in flight.
	entries, err := os.ReadDir(snapDir(l.dir))
	if err != nil {
		return err
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "run-") && !keep[name] {
			if err := os.Remove(filepath.Join(snapDir(l.dir), name)); err != nil {
				return err
			}
		}
	}
	segs, firsts, err := listNumbered(walDir(l.dir), "seg-", ".log")
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if firsts[i+1] <= horizon && segs[i] != active {
			if err := os.Remove(segs[i]); err != nil {
				return err
			}
			mCompacted.Inc()
		}
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
