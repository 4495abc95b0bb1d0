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
	"sync"

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
// A run is also a journal tail segment: its header frame, then event
// records whose instances take the IDs from the header's FirstID on
// (encode.go, fileFrames). Those are what a Checkpointer adopts.
//
// A run comes to exist one of two ways. A sealed file — a journal tail
// segment, or a Log's WAL segment — whose records are exactly the live
// instances of the run's range is adopted: hard-linked under the run's
// name, its size and CRC taken from what its writer kept as it wrote the
// file — it decodes to the instances writeRun would write, so nothing is
// written. (Not to the same bytes: a file's frames follow commit groups,
// which a run written from the store cannot know.) Every other run — a
// range an eviction took instances from, a crumb, a range whose records
// straddle files — is written from the store by writeRun.
//
// IDs only ascend (a Log's record hook poisons the log otherwise, and the
// journal's replay allocates them in order), so a range already written
// can only lose instances, and a run's content
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
// false) at the first truncated or out-of-range value, or one not in its
// shortest form (a last byte of zero), which no writer here produces.
type uvarints struct {
	p  []byte
	ok bool
}

func (u *uvarints) next() int {
	v, sz := binary.Uvarint(u.p)
	if sz <= 0 || v > maxID || (sz > 1 && u.p[sz-1] == 0) {
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

// runScanner reads run files a frame at a time through a buffered reader
// and a payload buffer it keeps from run to run, and decodes them into
// instances it keeps likewise: a restore holds one frame of a run in
// memory, never the file.
type runScanner struct {
	br  *bufio.Reader
	buf []byte
	ins []event.Instance
}

// scan reads a run from r against the manifest entry that references it: its frames must hold exactly want.count records in either
// encoding, their IDs ascending inside [want.lo, want.hi), and its size and
// whole-file CRC must match the entry. No frame is read past the size the
// entry claims. frame is shown each record-bearing frame as it is read —
// its payload, valid until frame returns, and its span — so a caller that
// must not act on a run that fails a check scans it twice. A file in any
// other format — a run with the header this code once wrote — fails at its
// first frame.
func (sc *runScanner) scan(r io.Reader, want runInfo, ff *fileFrames, frame func(p []byte, s span) error) error {
	if sc.br == nil {
		sc.br = bufio.NewReaderSize(r, 1<<16)
	} else {
		sc.br.Reset(r)
	}
	var hdr [frameHeader]byte
	var size int64
	var crc uint32
	held, prev := 0, want.lo-1
	for {
		if _, err := io.ReadFull(sc.br, hdr[:]); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("torn frame after record %d/%d: %v", held, want.count, err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:4]))
		if n > maxRecord || n > want.size-size-frameHeader {
			return fmt.Errorf("torn frame after record %d/%d", held, want.count)
		}
		sc.buf = slices.Grow(sc.buf[:0], int(n))[:n]
		if _, err := io.ReadFull(sc.br, sc.buf); err != nil {
			return fmt.Errorf("torn frame after record %d/%d: %v", held, want.count, err)
		}
		if crc32.Checksum(sc.buf, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
			return fmt.Errorf("torn frame after record %d/%d", held, want.count)
		}
		size += frameHeader + n
		crc = crc32.Update(crc32.Update(crc, castagnoli, hdr[:]), castagnoli, sc.buf)
		// Order is checked here, on bytes the CRC just pulled into cache,
		// rather than in a second walk over the decoded instances.
		s, err := ff.span(sc.buf)
		if err != nil {
			return fmt.Errorf("record %d: %v", held, err)
		}
		if s.count == 0 {
			continue // the magic frame, or a segment header
		}
		if s.first <= prev || s.last >= want.hi || s.count > want.count-held {
			return fmt.Errorf("record %d: IDs %d…%d do not fit [%d,%d) × %d after ID %d", held, s.first, s.last, want.lo, want.hi, want.count, prev)
		}
		if err := frame(sc.buf, s); err != nil {
			return err
		}
		held, prev = held+s.count, s.last
	}
	if held != want.count {
		return fmt.Errorf("%d records, the manifest says %d", held, want.count)
	}
	if size != want.size || crc != want.crc {
		return fmt.Errorf("size or checksum differs from the manifest")
	}
	return nil
}

// decodeRun reads one run from r through sc, checked against want, and
// decodes each frame on the reading goroutine as the scan reads it, into
// one frame's scratch that put is handed in ID order and that is reused
// once put returns: a restore holds one frame decoded, whatever the
// store's size.
func (sc *runScanner) decodeRun(r io.Reader, want runInfo, put func([]event.Instance) error) error {
	var ff fileFrames
	return sc.scan(r, want, &ff, func(p []byte, s span) (err error) {
		if sc.ins, err = ff.decode(sc.ins, p, s); err != nil {
			return err
		}
		return put(sc.ins)
	})
}

// withFile runs fn on the file at path, opened for reading.
func withFile(path string, fn func(*os.File) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

// checkSnapshot reads the manifest at path and checks every run it
// references — size, CRC, frame spans and ID order — decoding none: a
// snapshot that passes holds its live count of instances from its base
// on, and only a payload that does not decode can fail its restore.
func checkSnapshot(dir, path string, sc *runScanner) (manifest, error) {
	m, err := readManifest(path)
	if err != nil {
		return m, err
	}
	for _, r := range m.runs {
		err := withFile(runFile(dir, r), func(f *os.File) error {
			return sc.scan(f, r, new(fileFrames), func(_ []byte, s span) error {
				if s.first < m.base {
					return fmt.Errorf("instance ID %d below base %d", s.first, m.base)
				}
				return nil
			})
		})
		if err != nil {
			return m, fmt.Errorf("wal: %s: %v", runFile(dir, r), err)
		}
	}
	return m, nil
}

// restoreSnapshot makes the snapshot at path st's whole content, a run at
// a time and a frame of it at a time: every run is checked
// (checkSnapshot) before st is touched, then read again, decoded
// (runScanner.decodeRun) and put into st through store.Memory.Replace.
// Nothing materializes the whole live set, or a run file. unreadable says
// a failure is the snapshot's — a check, or a decode, which leaves st
// empty — rather than st refusing an instance it read.
func restoreSnapshot(dir, path string, st *store.Memory) (m manifest, unreadable bool, err error) {
	var sc runScanner
	if m, err = checkSnapshot(dir, path, &sc); err != nil {
		return m, true, err
	}
	var refused error
	err = st.Replace(m.base, m.next, func(put func([]event.Instance) error) error {
		keep := func(ins []event.Instance) error {
			refused = put(ins)
			return refused
		}
		for _, r := range m.runs {
			err := withFile(runFile(dir, r), func(f *os.File) error { return sc.decodeRun(f, r, keep) })
			if err != nil {
				return fmt.Errorf("wal: %s: %v", runFile(dir, r), err)
			}
		}
		return nil
	})
	if refused != nil {
		return m, false, fmt.Errorf("wal: snapshot %s: %v", path, refused)
	}
	return m, err != nil, err
}

// loadCheckpoint restores the newest readable snapshot under dir into the
// fresh store st and returns its manifest, and the next-ID bound of the
// manifest before it (0 for none): the floor. An unreadable one — torn by
// a crash, corrupt, referencing a missing run, or in a format this code
// does not read — is counted and skipped for the previous one: what it
// covered is still in the files below it until a later snapshot succeeds.
func loadCheckpoint(dir string, st *store.Memory, rec *Recovery) (m manifest, floor int, err error) {
	snaps, nums, err := listNumbered(snapDir(dir), "snap-", ".snap")
	if err != nil {
		return m, 0, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		got, unreadable, err := restoreSnapshot(dir, snaps[i], st)
		if unreadable {
			rec.SnapshotsSkipped++
			mSnapUnreadable.Inc()
			continue
		}
		if err != nil {
			return m, 0, err
		}
		m = got
		if i > 0 {
			floor = nums[i-1]
		}
		rec.SnapshotNext = m.next
		rec.SnapshotLive = m.live
		break
	}
	// compact's horizon, from the file names alone (they outlive a
	// manifest's readability): the restore must reach it.
	if n := len(nums); n >= 2 && rec.SnapshotNext < nums[n-2] {
		rec.LostBelow = nums[n-2]
	}
	return m, floor, nil
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

// writeManifest makes m the durable snapshot covering IDs < m.next. The
// runs it references must already be renamed into place.
func writeManifest(dir string, m manifest) (int64, error) {
	data := m.encode()
	return int64(len(data)), ReplaceFile(filepath.Join(snapDir(dir), "snap.tmp"), snapFile(dir, m.next), data)
}

// Snapshot flushes pending records, seals the active segment, and makes
// durable what changed since the previous snapshot (takeCheckpoint), then
// compacts: segments and runs made redundant and all but the previous
// manifest are deleted. With retention eviction feeding this (the store's
// OnEvict hook), disk stays bounded like the store's memory, and the bytes
// written follow the records evicted, not the store's size — the records
// added were written once, by Commit.
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
	// Write what is buffered, then seal, so that what was appended since the
	// last snapshot is a synced file nothing will write to again — unless it
	// is a crumb, which is copied into a run and left unsynced.
	l.mu.Lock()
	err := l.flushLocked(obs.Now())
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
	m, err := takeCheckpoint(l.dir, l.snap, l.st, sealed)
	if err != nil {
		return err
	}
	l.snap = m
	l.mu.Lock()
	if l.sinceSnap = l.nextSeq - m.next; l.sinceSnap < 0 {
		l.sinceSnap = 0
	}
	// A segment the manifest covers can never be adopted again: a later
	// rewrite of its range is one an eviction caused.
	l.sealed = slices.DeleteFunc(l.sealed, func(s segInfo) bool { return s.last < m.next })
	active := l.cur.path
	l.mu.Unlock()
	horizon, err := compactSnap(l.dir, m)
	if err != nil {
		return err
	}
	// Segment i's records all lie below segment i+1's first ID, so it is
	// removable once that bound clears the horizon; never the active one. A
	// segment a run was linked from goes like any other: the wal/ name and
	// the snap/ name are two names of one file, each removed by its own rule.
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

// takeCheckpoint makes durable a manifest over the store's cut, next to
// prev, the latest durable one: a run for each sealed file holding the IDs
// assigned since — the file itself, linked, when its records are exactly
// the run's — a rewrite of each run an eviction took instances from, and
// the runs kept as they are. sealed are synced files no write lands in
// again, ascending; IDs ascend through them.
//
// Write order: linked runs first; written runs are synced and renamed;
// then the manifest is synced and renamed, then the directory is synced. A
// crash before the manifest's rename leaves unreferenced runs, which
// recovery ignores and the next compaction collects (a link that finds its
// name taken by one replaces it). Should the directory lose a run's name
// but keep the manifest's, the manifest fails its size and CRC check and
// recovery falls back to the previous one, whose runs are only removed by
// a compaction after the sync.
func takeCheckpoint(dir string, prev manifest, st *store.Memory, sealed []segInfo) (manifest, error) {
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
	err := st.Cut(func(c store.Cut) error {
		m.base, m.next, m.live = c.Bounds()
		plan := planRuns(prev.runs, prev.next, m.next, sealed, c.Count)
		m.runs = make([]runInfo, len(plan))
		for i, p := range plan {
			r := &m.runs[i]
			*r = p.runInfo
			if !p.write {
				continue
			}
			// A link the filesystem refuses is a run to write like any other.
			if s := adoptable(sealed, *r, c.Count); s != nil && linkRun(s.path, runFile(dir, *r)) == nil {
				r.size, r.crc = s.size, s.crc
				adopted++
				continue
			}
			f, err := writeRun(dir, r, c)
			if err != nil {
				return err
			}
			written = append(written, writtenRun{f, r})
		}
		return nil
	})
	if err != nil {
		return m, err
	}
	nwritten := len(written)
	for len(written) > 0 {
		w := written[0]
		written = written[1:]
		if err := commitFile(w.tmp, runFile(dir, *w.info)); err != nil {
			return m, err
		}
		mSnapBytes.Add(w.info.size)
	}
	n, err := writeManifest(dir, m)
	if err != nil {
		return m, err
	}
	mSnapshots.Inc()
	mSnapBytes.Add(n)
	mSnapRunsWritten.Add(int64(nwritten))
	mSnapRunsAdopted.Add(int64(adopted))
	mSnapRunsReused.Add(int64(len(m.runs) - nwritten - adopted))
	return m, nil
}

// compactSnap keeps the latest two manifests and the runs either
// references, deletes every other manifest and run, and returns the
// horizon: the older retained manifest's next-ID bound (0 with only one,
// which has no fallback). Compacting to the older snapshot — not the one
// just written — is what makes the two-snapshot retention real: if the
// newest snapshot turns out unreadable at recovery, the previous manifest,
// its runs and what is kept above its bound rebuild the same state. cur
// is the manifest just written.
func compactSnap(dir string, cur manifest) (horizon int, err error) {
	snaps, nums, err := listNumbered(snapDir(dir), "snap-", ".snap")
	if err != nil {
		return 0, err
	}
	for i := 0; i+2 < len(snaps); i++ {
		if err := os.Remove(snaps[i]); err != nil {
			return 0, err
		}
	}
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
	// manifest. Snapshots are serialized, so nothing here is in flight.
	entries, err := os.ReadDir(snapDir(dir))
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "run-") && !keep[name] {
			if err := os.Remove(filepath.Join(snapDir(dir), name)); err != nil {
				return 0, err
			}
		}
	}
	return horizon, nil
}

// Checkpointer keeps the checkpoints of a serving data dir, whose event
// log is the ingest journal: a checkpoint is a manifest over runs, and a
// sealed journal tail segment whose events are all still live becomes its
// range's run by hard link. Only the ranges an eviction thinned, and the
// head's events (journal.log holds them as feed lines), are written from
// the store. Nothing is appended per batch: the journal holds each event
// once, and a checkpoint links it.
type Checkpointer struct {
	dir string

	mu sync.Mutex // serializes Checkpoint; guards snap and floor
	// snap is the latest durable manifest, floor the next-ID bound of the
	// one before it (0 for none): every event below floor is held by a
	// manifest that was durable when the latest one began.
	snap  manifest
	floor int
}

// OpenCheckpoint restores the newest readable checkpoint under dir into a
// fresh store with opts.Retention set, and returns both. It reads snap/
// alone, creating it as needed; the caller replays the journal tail over
// the store. Recovery.LostBelow says the restore has a hole, as for Open.
func OpenCheckpoint(dir string, opts Options) (*Checkpointer, *store.Memory, Recovery, error) {
	var rec Recovery
	if err := os.MkdirAll(snapDir(dir), 0o755); err != nil {
		return nil, nil, rec, err
	}
	st := store.New()
	if opts.Retention > 0 {
		st.SetRetention(opts.Retention)
	}
	m, floor, err := loadCheckpoint(dir, st, &rec)
	if err != nil {
		return nil, nil, rec, err
	}
	return &Checkpointer{dir: dir, snap: m, floor: floor}, st, rec, nil
}

// Checkpoint makes the store durable under snap/: a manifest over every
// instance st holds, whose runs are kept, linked from sealed — the journal
// tail segments no record is appended to again, synced, ascending — or
// written from one store.Memory.Cut. The caller checkpoints where st holds
// exactly the events below the journal's active segment (a roll), so that
// no run ever covers the active segment and the manifest is the store as
// the journal's replay left it at that point; and the journal is synced
// ahead of it. A store that has not changed since the latest manifest
// writes nothing.
//
// A failure is counted in wal.snapshots.failed and leaves the previous
// checkpoint in place: the journal still holds everything above it.
func (c *Checkpointer) Checkpoint(st *store.Memory, sealed []JournalSegment) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	base, next, live := 0, 0, 0
	st.Cut(func(cut store.Cut) error { base, next, live = cut.Bounds(); return nil }) //nolint:errcheck // the func returns nil
	if base == c.snap.base && next == c.snap.next && live == c.snap.live {
		return nil // IDs only ascend and evictions only take: nothing changed
	}
	var runs []segInfo
	for _, s := range sealed {
		if r, ok := s.run(); ok {
			runs = append(runs, r)
		}
	}
	m, err := takeCheckpoint(c.dir, c.snap, st, runs)
	if err == nil {
		c.floor, c.snap = c.snap.next, m
		_, err = compactSnap(c.dir, m)
	}
	if err != nil {
		mSnapFailed.Inc()
	}
	return err
}

// Install makes the checkpoint an ImageWriter wrote under snap/ the
// latest, and its content st's whole content: the manifest is written
// durably beside the runs already in place, and the store is read back
// from it with the reader recovery uses (restoreSnapshot). If that
// manifest does not read, the install fails — it never falls back to an
// older one, which would not reach where the caller resumes — leaving st
// as it was when a run fails its checks, and empty when a payload fails
// to decode. The empty image leaves st empty and the checkpoints as they
// are. Whatever derives state from st's content rebuilds it.
func (c *Checkpointer) Install(w *ImageWriter, st *store.Memory) error {
	if err := w.Finish(); err != nil {
		return err
	}
	if w.m == nil {
		return st.Replace(0, 0, nil)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n, err := writeManifest(c.dir, *w.m)
	if err != nil {
		return err
	}
	mSnapBytes.Add(n)
	m, _, err := restoreSnapshot(c.dir, snapFile(c.dir, w.m.next), st)
	if err != nil {
		return err
	}
	c.snap = m
	c.floor, err = compactSnap(c.dir, m)
	return err
}

// Floor returns the next-ID bound of the older of the two retained
// manifests (0 with fewer than two): every event with a lower ID is held
// by a checkpoint that was durable before the latest one began, so losing
// the latest loses none of them. The serving pipeline drops the journal's
// tail segments behind it.
func (c *Checkpointer) Floor() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.floor
}
