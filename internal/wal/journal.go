package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"grca/internal/obs"
	"grca/internal/wire"
)

// Journal disk footprint: segments and bytes are what the data dir holds
// of the ingest journal now (segment 0 included), dropped counts the tail
// segments unlinked behind the snapshots. fsyncs counts the journal's
// syncs: one per commit group, the batch path's only one.
var (
	mJournalSegments = obs.GetGauge("journal.segments")
	mJournalBytes    = obs.GetGauge("journal.disk.bytes")
	mJournalDropped  = obs.GetCounter("journal.segments.dropped")
	mJournalFsyncs   = obs.GetCounter("journal.fsyncs")
)

// Journal is a flat append-only file of opaque framed records — the same
// CRC32C framing as segments, without sequence numbers or snapshots. The
// serving pipeline journals ingest batches here, and nowhere else — feed
// lines, and event batches as event blocks (wire.AppendEventBlock): the
// collector's parse state (routing simulations, pairing buffers, rolling
// baselines) is a function of the raw input, so restart recovery replays
// the journal through a fresh collector over the newest checkpoint.
// Appends fsync before returning; an acknowledged batch survives kill -9.
type Journal struct {
	f    *os.File
	path string
	buf  []byte
}

// ReplayJournal streams every committed record of the journal at path to
// fn, truncating a torn tail in place (the longest-committed-prefix
// contract, as for segments). It reads through a fixed buffer, so a
// journal of any size replays in the memory of its largest record; the
// payload fn sees is reused by the next call. A missing file is an empty
// journal.
func ReplayJournal(path string, fn func(payload []byte) error) (truncated int64, err error) {
	torn, err := ScanJournal(path, fn)
	if err != nil || torn < 0 {
		return 0, err
	}
	size := JournalSize(path)
	return size - torn, os.Truncate(path, torn)
}

// ScanJournal is ReplayJournal without the cut: it returns the offset of
// the first torn or corrupt frame, -1 when every byte of the file is a
// whole record, and the caller decides.
func ScanJournal(path string, fn func(payload []byte) error) (torn int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return -1, nil
	}
	if err != nil {
		return -1, err
	}
	defer f.Close()
	fr := NewFrameReader(f)
	off := int64(0)
	for {
		payload, err := fr.Next()
		switch err {
		case nil:
		case io.EOF:
			return -1, nil
		case ErrTornFrame:
			return off, nil
		default:
			return -1, err
		}
		if err := fn(payload); err != nil {
			return -1, err
		}
		off += int64(frameHeader + len(payload))
	}
}

// JournalSize returns the byte size of the journal at path, 0 for one
// not yet created.
func JournalSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// OpenJournal opens (creating as needed) the journal at path for
// appending. Replay first: opening does not validate existing content.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f, path: path}, nil
}

// Append frames, writes, and fsyncs one record. This is the serving
// pipeline's batch commit point.
func (j *Journal) Append(payload []byte) error {
	if err := j.AppendNoSync(payload); err != nil {
		return err
	}
	return j.Sync()
}

// AppendNoSync frames and writes one record without forcing it to disk.
// Pair with Sync to commit a group of records under one fsync: none of
// the group is acknowledged until the Sync returns, so the durability
// contract is per-group instead of per-record.
func (j *Journal) AppendNoSync(payload []byte) error {
	j.buf = appendFrame(j.buf[:0], payload)
	_, err := j.f.Write(j.buf)
	return err
}

// Sync forces everything written so far to stable storage.
func (j *Journal) Sync() error {
	mJournalFsyncs.Inc()
	return fileSync(j.f)
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// ---------------------------------------------------------------------
// The segmented journal
// ---------------------------------------------------------------------
//
//	<dir>/journal.log               segment 0, the head: every record through
//	                                the one that closes the feed phase; never
//	                                dropped (it is the collector's recipe)
//	<dir>/journal-<firstSeq>.log    tail segments: a header frame, then the
//	                                records from sequence firstSeq on
//
// The tail holds only store input: event records, nothing a collector
// parses. A sealed segment is therefore a run as it stands — its events
// are the IDs from its header's FirstID on, densely — and a checkpoint
// adopts it by hard link instead of writing its events again
// (Checkpointer). Once the checkpoints cover a tail segment its journal
// name is unlinked (SegmentedJournal.DropOldest; the serving pipeline
// decides when); the run's name keeps the file while a manifest needs it.
// What is retained is always journal.log and a contiguous run of tail
// segments ending in the active one.

const (
	// JournalSegmentBytes is the size at which the serving pipeline rolls
	// the tail to a new segment: small enough that the covered tail goes in
	// pieces of about a snapshot interval's records, large enough that a
	// roll (one file, one header, three fsyncs) is a few per second at full
	// ingest rate. The size is in bytes and the tail holds event blocks, at
	// about 10 bytes an event: 1 MiB is ~100k events, where a segment that
	// spanned many more could not be dropped until long after its first
	// events were checkpointed.
	JournalSegmentBytes = 1 << 20
)

// A journal record, in every file of the journal and on the replication
// stream, is
//
//	uvarint seq | kind | uvarint len(source) | source | body
//
// seq is the batch's dispatch sequence (a segment header's, the sequence
// of the record behind it); it ascends through the journal and is the
// replication stream's resume cursor. This file is the one codec of that
// envelope and the one table of its kinds: the serving pipeline writes and
// applies records through it, the replication source and the follower read
// their sequences and kinds through it, and so do a segment's header and
// a run read from a sealed segment. Kinds 1, 3 and 4 are what data dirs of
// earlier formats hold (DESIGN.md §11); no reader of them is left.
const (
	// JournalFinalizeKind closes the collector's feed phase; its body is
	// empty.
	JournalFinalizeKind byte = 2
	// JournalSegmentKind is a tail segment's header
	// (AppendJournalSegmentHeader): the first record of every tail segment.
	JournalSegmentKind byte = 5
	// JournalEventKind is an event batch: no source, and the batch's
	// instances as one event block (wire.AppendEventBlock). A sealed tail
	// segment holds these behind its header, and a run read from one holds
	// nothing else.
	JournalEventKind byte = 6
	// JournalFeedKind is a feed batch: the feed's source, and its lines as
	// uvarint len(lines) | one raw DEFLATE stream (the server's
	// appendFeedRecord).
	JournalFeedKind byte = 7
)

// JournalRecord is a journal record's envelope, decoded. Body aliases the
// bytes it was parsed from.
type JournalRecord struct {
	Seq    int
	Kind   byte
	Source string
	Body   []byte
}

// AppendJournalRecord appends r encoded to b.
func AppendJournalRecord(b []byte, r JournalRecord) []byte {
	b = slices.Grow(b, 2*binary.MaxVarintLen64+1+len(r.Source)+len(r.Body))
	b = binary.AppendUvarint(b, uint64(r.Seq))
	b = append(b, r.Kind)
	b = appendString(b, r.Source)
	return append(b, r.Body...)
}

// ParseJournalRecord decodes a record's envelope; the body is the kind's
// to read. The bytes are outside input on a follower: the sequence is
// bounded, the source must fit, and a uvarint in any but its shortest
// form is an error, so a record that parses re-encodes to its bytes.
func ParseJournalRecord(p []byte) (JournalRecord, error) {
	var r JournalRecord
	u := uvarints{p, true}
	r.Seq = u.next()
	if !u.ok || len(u.p) < 1 {
		return r, fmt.Errorf("wal: truncated journal record")
	}
	r.Kind, u.p = u.p[0], u.p[1:]
	n := u.next()
	if !u.ok || n > len(u.p) {
		return r, fmt.Errorf("wal: truncated journal record source")
	}
	r.Source, r.Body = string(u.p[:n]), u.p[n:]
	return r, nil
}

// journalEvents reads an event record's instance count and its event
// block; a record of any other kind, or with a source, is an error. The
// count is bounded by the bytes behind it.
func journalEvents(rec []byte) (n int, block []byte, err error) {
	r, err := ParseJournalRecord(rec)
	if err != nil || r.Kind != JournalEventKind || r.Source != "" {
		return 0, nil, fmt.Errorf("wal: not an event record")
	}
	u := uvarints{r.Body, true}
	if n = u.next(); !u.ok || n < 1 || n > len(u.p)/wire.MinBlockEvent {
		return 0, nil, fmt.Errorf("wal: bad event record count")
	}
	return n, r.Body, nil
}

// JournalSegmentHeader is the first record of every tail segment. It says
// where the segment sits in the journal — by sequence, by event ID and by
// byte — and how far a checkpoint must reach for recovery to start from
// the segment without the ones before it.
type JournalSegmentHeader struct {
	// FirstSeq is the sequence of the segment's first record (its name).
	FirstSeq int
	// FirstID is the first event ID the segment's records allocate.
	FirstID int
	// Offset is the logical offset of the segment's first byte: the bytes
	// ever journaled before it, dropped segments included.
	Offset int64
	// Front is one past the highest event ID stored before the segment
	// began (0 for none). A checkpoint that reaches Front lacks nothing the
	// segments from this one on do not hold.
	Front int
}

// AppendJournalSegmentHeader appends h encoded as a journal record of
// JournalSegmentKind: sequence FirstSeq, no source, and the body uvarint
// FirstID | Offset | 1 | Front. The 1 is the shard count of the format
// multi-shard versions wrote; FORMAT refuses their dirs.
func AppendJournalSegmentHeader(b []byte, h JournalSegmentHeader) []byte {
	body := binary.AppendUvarint(nil, uint64(h.FirstID))
	body = binary.AppendUvarint(body, uint64(h.Offset))
	body = append(body, 1)
	body = binary.AppendUvarint(body, uint64(h.Front))
	return AppendJournalRecord(b, JournalRecord{Seq: h.FirstSeq, Kind: JournalSegmentKind, Body: body})
}

// ParseJournalSegmentHeader decodes a header record. The bytes are outside
// input on a follower: every value is bounded and anything left over is an
// error, and so is a shard count other than 1.
func ParseJournalSegmentHeader(p []byte) (JournalSegmentHeader, error) {
	var h JournalSegmentHeader
	r, err := ParseJournalRecord(p)
	if err != nil || r.Kind != JournalSegmentKind || r.Source != "" {
		return h, fmt.Errorf("wal: not a journal segment header")
	}
	h.FirstSeq = r.Seq
	u := uvarints{r.Body, true}
	h.FirstID = u.next()
	h.Offset = int64(u.next())
	if n := u.next(); !u.ok || n != 1 {
		return h, fmt.Errorf("wal: bad journal segment header")
	}
	h.Front = u.next()
	if !u.ok || h.Front > h.FirstID || len(u.p) != 0 {
		return h, fmt.Errorf("wal: bad journal segment header front")
	}
	return h, nil
}

// JournalSegment is one tail segment file.
type JournalSegment struct {
	Path   string
	Header JournalSegmentHeader // only FirstSeq in a plain listing (JournalTail)
	Size   int64                // file bytes, header frame included
	// Events is how many events the segment's records hold, -1 when a
	// record of it is not an event record or did not land whole; CRC is the
	// CRC32C of its Size bytes. SegmentedJournal keeps both as it writes:
	// with Header.FirstID they are what a manifest entry says of the
	// segment as a run.
	Events int
	CRC    uint32
}

// run returns the segment as a run a checkpoint may adopt; ok is false
// for one that holds no event, or that is not only event records.
func (s JournalSegment) run() (segInfo, bool) {
	return segInfo{path: s.Path, first: s.Header.FirstID, last: s.Header.FirstID + s.Events - 1,
		count: s.Events, size: s.Size, crc: s.CRC}, s.Events > 0
}

// JournalHead returns the path of segment 0 under dir.
func JournalHead(dir string) string { return filepath.Join(dir, "journal.log") }

func journalSegPath(dir string, firstSeq int) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%016d.log", firstSeq))
}

// JournalTail lists dir's tail segments ascending by first sequence,
// which is all the listing says of them: it reads no file, so it is safe
// beside a live appender (the replication source).
func JournalTail(dir string) ([]JournalSegment, error) {
	paths, firsts, err := listNumbered(dir, "journal-", ".log")
	if err != nil {
		return nil, err
	}
	out := make([]JournalSegment, len(paths))
	for i := range paths {
		out[i] = JournalSegment{Path: paths[i], Header: JournalSegmentHeader{FirstSeq: firsts[i]}}
	}
	return out, nil
}

// JournalFiles lists dir's journal files: journal.log, whether or not it
// exists yet, then the tail segments as JournalTail lists them.
func JournalFiles(dir string) ([]string, error) {
	tail, err := JournalTail(dir)
	paths := []string{JournalHead(dir)}
	for _, s := range tail {
		paths = append(paths, s.Path)
	}
	return paths, err
}

// ReadJournalSegmentHeader reads the header frame off the front of a tail
// segment; ok is false when the file has no whole first frame (a roll in
// progress, or the crash cut of one). It reads the frame's length, then
// no more than the payload that names and the file holds, and leaves the
// frame's checks to readFrame.
func ReadJournalSegmentHeader(path string) (h JournalSegmentHeader, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return h, false, err
	}
	defer f.Close()
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if tornOr(err) == ErrTornFrame {
			return h, false, nil
		}
		return h, false, err
	}
	rest, err := io.ReadAll(io.LimitReader(f, int64(binary.LittleEndian.Uint32(hdr[0:4]))))
	if err != nil {
		return h, false, err
	}
	payload, _, ok := readFrame(append(hdr[:], rest...))
	if !ok {
		return h, false, nil
	}
	h, err = ParseJournalSegmentHeader(payload)
	return h, err == nil, err
}

// RecoverJournalTail lists dir's tail segments with their headers, for
// the process about to own the journal. A last segment without a whole
// header is the crash cut of a roll — the header is durable before any
// record lands behind it, so the file holds none — and is removed. The
// retained tail must be one contiguous stretch: each header named for its
// file, and each segment beginning at the byte its predecessor ends on
// (unlinking only ever takes the oldest); anything else is refused.
func RecoverJournalTail(dir string) ([]JournalSegment, error) {
	segs, err := JournalTail(dir)
	if err != nil {
		return nil, err
	}
	for i := range segs {
		s := &segs[i]
		h, ok, err := ReadJournalSegmentHeader(s.Path)
		if err != nil {
			return nil, fmt.Errorf("wal: %s: %v", s.Path, err)
		}
		if !ok {
			if i+1 < len(segs) {
				return nil, fmt.Errorf("wal: %s: no segment header, and it is not the last segment", s.Path)
			}
			return segs[:i], RemoveFile(s.Path)
		}
		if h.FirstSeq != s.Header.FirstSeq {
			return nil, fmt.Errorf("wal: %s: header says first sequence %d", s.Path, h.FirstSeq)
		}
		s.Header, s.Size = h, JournalSize(s.Path)
		if i > 0 {
			if prev := segs[i-1]; h.Offset != prev.Header.Offset+prev.Size || h.FirstID < prev.Header.FirstID {
				return nil, fmt.Errorf("wal: %s begins at journal byte %d, %s ends at %d: a segment between them is missing",
					s.Path, h.Offset, prev.Path, prev.Header.Offset+prev.Size)
			}
		}
	}
	return segs, nil
}

// ReplayJournalTail replays the tail RecoverJournalTail listed, reading
// each segment once, whole: begin(k) before segment k's records, rec with
// each record behind its (parsed) header, aliasing the file's bytes. A
// torn last segment is cut; bytes that do not frame in a sealed one are
// damage. Each segment must begin one sequence past its predecessor's
// last record, at its first event ID plus the events it holds; where
// tail[0] begins is begin(0)'s to judge. Size, CRC and Events are filled
// in as each segment is read, for OpenSegmentedJournal.
func ReplayJournalTail(tail []JournalSegment, begin func(k int) error, rec func(p []byte) error) error {
	var nextSeq, nextID int
	for k := range tail {
		s := &tail[k]
		if h := s.Header; k > 0 && (h.FirstSeq != nextSeq || h.FirstID != nextID) {
			return fmt.Errorf("server: %s begins at sequence %d and event ID %d, the replay stands at %d and %d",
				s.Path, h.FirstSeq, h.FirstID, nextSeq, nextID)
		}
		if err := begin(k); err != nil {
			return err
		}
		data, err := os.ReadFile(s.Path)
		if err != nil {
			return err
		}
		_, rest, ok := readFrame(data) // the header
		nextSeq, nextID, s.Events = s.Header.FirstSeq, s.Header.FirstID, 0
		for ok && len(rest) > 0 {
			var p []byte
			if p, rest, ok = readFrame(rest); !ok {
				break
			}
			r, _ := ParseJournalRecord(p) // one that does not parse is rec's to refuse
			n, _, err := journalEvents(p)
			if err != nil {
				s.Events = -1
			} else if s.Events >= 0 {
				s.Events += n
			}
			nextSeq, nextID = r.Seq+1, nextID+n
			if err := rec(p); err != nil {
				return err
			}
		}
		if at := len(data) - len(rest); !ok {
			if k+1 < len(tail) || at == 0 {
				return fmt.Errorf("server: %s is damaged at byte %d", s.Path, at)
			}
			if err := os.Truncate(s.Path, int64(at)); err != nil {
				return err
			}
			data = data[:at]
		}
		s.Size, s.CRC = int64(len(data)), crc32.Checksum(data, castagnoli)
	}
	return nil
}

// RecoverJournalHead holds journal.log against RecoverJournalTail's tail,
// for the process about to own the journal: framed is where a scan of the
// head stopped, torn whether bytes that do not frame follow. The head is
// whole when the tail is empty or begins at framed; a gap is the dropped
// segments, which a checkpoint must cover. A torn whole head is cut at
// framed, like any torn tail; a torn head before a gap is damage.
func RecoverJournalHead(dir string, framed int64, torn bool, tail []JournalSegment) (whole bool, err error) {
	path := JournalHead(dir)
	whole = len(tail) == 0 || tail[0].Header.Offset == framed
	switch {
	case torn && !whole:
		return false, fmt.Errorf("server: %s is damaged at byte %d (the next retained segment begins at %d)", path, framed, tail[0].Header.Offset)
	case torn:
		return true, os.Truncate(path, framed)
	}
	return whole, nil
}

// SegmentedJournal appends to the journal under one data dir: to
// journal.log until the first Roll, to the newest tail segment after. One
// goroutine at a time drives it (the serving pipeline's applier, or
// admission with the applier quiesced); Offset alone may be read from any. The first write or sync failure is sticky: a journal that may have
// a torn frame in its middle takes no more records, so what a replay
// finds is always a prefix of what was dispatched.
type SegmentedJournal struct {
	dir      string
	cur      *Journal
	curSize  int64 // bytes in the active file
	headSize int64 // bytes in journal.log
	// tail is the retained tail, ascending; when it is non-empty its last
	// entry is the active file.
	tail   []JournalSegment
	offset atomic.Int64 // logical bytes journaled
	err    error
}

// OpenSegmentedJournal opens the journal under dir for appending behind
// what recovery replayed: tail is RecoverJournalTail's listing as
// ReplayJournalTail left it, cut and measured.
func OpenSegmentedJournal(dir string, tail []JournalSegment) (*SegmentedJournal, error) {
	j := &SegmentedJournal{dir: dir, tail: tail, headSize: JournalSize(JournalHead(dir))}
	active, base := JournalHead(dir), int64(0)
	if k := len(tail); k > 0 {
		active, base = tail[k-1].Path, tail[k-1].Header.Offset
	}
	cur, err := OpenJournal(active)
	if err != nil {
		return nil, err
	}
	j.cur, j.curSize = cur, JournalSize(active)
	j.offset.Store(base + j.curSize)
	j.publish()
	return j, nil
}

// publish sets the footprint gauges from the files this journal holds.
func (j *SegmentedJournal) publish() {
	bytes := j.headSize
	for _, s := range j.tail {
		bytes += s.Size
	}
	mJournalSegments.Set(int64(1 + len(j.tail)))
	mJournalBytes.Set(bytes)
}

// grow accounts n bytes written to the active file.
func (j *SegmentedJournal) grow(n int64) {
	j.curSize += n
	if k := len(j.tail); k > 0 {
		j.tail[k-1].Size = j.curSize
	} else {
		j.headSize = j.curSize
	}
	j.offset.Add(n)
	mJournalBytes.Add(n)
}

// AppendNoSync frames and writes one record to the active file without
// forcing it to disk; Sync commits everything written so far.
func (j *SegmentedJournal) AppendNoSync(payload []byte) error {
	if j.err != nil {
		return j.err
	}
	if j.err = j.cur.AppendNoSync(payload); j.err != nil {
		// A short write leaves a torn frame the next replay cuts; the bytes
		// that did land still count towards what is on disk.
		j.grow(JournalSize(j.cur.path) - j.curSize)
		if k := len(j.tail); k > 0 {
			j.tail[k-1].Events = -1
		}
		return j.err
	}
	j.grow(int64(frameHeader + len(payload)))
	if k := len(j.tail); k > 0 {
		s := &j.tail[k-1]
		s.CRC = crc32.Update(s.CRC, castagnoli, j.cur.buf)
		if n, _, err := journalEvents(payload); err == nil && s.Events >= 0 {
			s.Events += n
		} else {
			s.Events = -1
		}
	}
	return nil
}

// Sync forces everything appended so far to stable storage.
func (j *SegmentedJournal) Sync() error {
	if j.err == nil {
		j.err = j.cur.Sync()
	}
	return j.err
}

// Close closes the active file.
func (j *SegmentedJournal) Close() error { return j.cur.Close() }

// Offset returns the logical size of the journal: bytes ever journaled.
func (j *SegmentedJournal) Offset() int64 { return j.offset.Load() }

// ActiveSize returns the byte size of the file taking the appends.
func (j *SegmentedJournal) ActiveSize() int64 { return j.curSize }

// Tail returns the retained tail segments, oldest first, the active one
// last; empty until the first Roll, while journal.log still takes the
// appends. The slice is the journal's own: read it, on the driving
// goroutine.
func (j *SegmentedJournal) Tail() []JournalSegment { return j.tail }

// Roll makes a new tail segment the active file. h says where the journal
// stands — FirstSeq, FirstID and Front are the caller's, Offset is filled
// in here — unless raw is given, which is then the header record to write
// verbatim and h its parse (a follower rolls where its primary rolled).
// With replace, the existing tail is unlinked first: the new segment
// follows a checkpoint, not its predecessors, and a journal with a hole in
// the middle of its tail must never be on disk.
//
// Order: the outgoing file is synced; the new file gets its header and is
// synced; then the directory. Only after that does a record land in it,
// so a crash at any point leaves either no new file, or one without a
// whole header (holding nothing: RecoverJournalTail removes it), or a
// segment that says where it starts.
func (j *SegmentedJournal) Roll(h JournalSegmentHeader, raw []byte, replace bool) error {
	path := journalSegPath(j.dir, h.FirstSeq)
	if n := len(j.tail); raw != nil && n > 0 && j.tail[n-1].Path == path && j.curSize == int64(frameHeader+len(raw)) {
		return nil // the same roll handed over twice (a reconnect between the header and the first record)
	}
	if err := j.Sync(); err != nil {
		return err
	}
	switch {
	case raw == nil:
		h.Offset = j.offset.Load()
		raw = AppendJournalSegmentHeader(nil, h)
	case !replace && h.Offset != j.offset.Load():
		return fmt.Errorf("wal: journal segment %d begins at byte %d, the journal holds %d", h.FirstSeq, h.Offset, j.offset.Load())
	}
	if replace {
		for _, s := range j.tail {
			if err := os.Remove(s.Path); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		if len(j.tail) > 0 { // the head takes the appends again, should the roll below fail
			j.tail = nil
			if err := j.reopen(JournalHead(j.dir)); err != nil {
				return err
			}
		}
		if err := syncDir(j.dir); err != nil {
			return err
		}
	}
	// O_TRUNC: a file of this name is one a failed roll left, and holds
	// nothing.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	next := &Journal{f: f, path: path}
	err = next.Append(raw)
	if err == nil {
		err = syncDir(j.dir)
	}
	if err != nil {
		next.Close()    //nolint:errcheck // already failing
		os.Remove(path) //nolint:errcheck // best effort: a headerless last file is removed at recovery anyway
		return err
	}
	j.cur.Close() //nolint:errcheck // synced above; nothing is written to it again
	size := int64(frameHeader + len(raw))
	j.cur, j.curSize = next, size
	j.tail = append(j.tail, JournalSegment{Path: path, Header: h, Size: size, CRC: crc32.Checksum(next.buf, castagnoli)})
	j.offset.Store(h.Offset + size)
	j.publish()
	return nil
}

// reopen makes path the active file.
func (j *SegmentedJournal) reopen(path string) error {
	cur, err := OpenJournal(path)
	if err != nil {
		return err
	}
	j.cur.Close() //nolint:errcheck // synced by the caller
	j.cur, j.curSize = cur, JournalSize(path)
	return nil
}

// DropOldest unlinks the oldest tail segment, which must not be the
// active one. The caller syncs the directory (SyncDir) after the last
// drop of a pass.
func (j *SegmentedJournal) DropOldest() error {
	if len(j.tail) < 2 {
		return fmt.Errorf("wal: no sealed journal segment to drop")
	}
	if err := os.Remove(j.tail[0].Path); err != nil {
		return err
	}
	j.tail = j.tail[1:]
	mJournalDropped.Inc()
	j.publish()
	return nil
}

// SyncDir makes the directory's entries durable.
func (j *SegmentedJournal) SyncDir() error { return syncDir(j.dir) }
