package replica

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"grca/internal/obs"
	"grca/internal/wal"
)

var (
	mJournalShipped = obs.GetCounter("replica.source.journal.records")
	mJournalRead    = obs.GetCounter("replica.source.journal.bytes.read")
	mWALShipped     = obs.GetCounter("replica.source.wal.records")
	mSnapshots      = obs.GetCounter("replica.source.snapshots.shipped")
	mCheckpoints    = obs.GetCounter("replica.source.checkpoints.shipped")
)

// The stream's cadences: a poll of the journal files while nothing is
// new, and a heartbeat at least this often, whether or not records flow.
// Tests lower them.
var (
	pollEvery      = 50 * time.Millisecond
	heartbeatEvery = time.Second
)

// SourceConfig wires a Source into the serving pipeline it streams from.
type SourceConfig struct {
	// BootID identifies this primary incarnation; a follower refuses to
	// resume across a boot-ID change (recovery may renumber sequences).
	BootID string
	// DataDir holds the ingest journal — journal.log and its tail
	// segments — and snap/, whose newest checkpoint is what a late
	// follower is sent.
	DataDir string
	// JournalFrontier returns the highest sequence durably journaled on
	// the primary, and JournalOffset the journal's logical size, the bytes
	// ever journaled (heartbeat lag signals).
	JournalFrontier func() int
	JournalOffset   func() int64
	// WALFrontier returns the store's next event ID on the primary
	// (heartbeat lag signal).
	WALFrontier func() int
	// Registry tracks followers and feeds the journal pin.
	Registry *Registry
}

// Source serves the replication stream off the primary's on-disk state.
// It holds no locks of the serving pipeline: it tails the journal files
// the applier writes. The journal has one appender, so the order of its
// files, and of the records in each, is already the total order followers
// apply in.
type Source struct {
	cfg SourceConfig
}

// NewSource returns a source over cfg.
func NewSource(cfg SourceConfig) *Source { return &Source{cfg: cfg} }

// heartbeat encodes the current lag heartbeat.
func (s *Source) heartbeat(b []byte) []byte {
	return AppendHeartbeat(b, s.cfg.JournalFrontier(), s.cfg.JournalOffset(), s.cfg.WALFrontier())
}

// fileTail incrementally reads one append-only framed file, carrying a
// torn tail (a frame still being written) across fills.
type fileTail struct {
	path  string
	f     *os.File
	off   int64 // next read offset
	carry []byte
	buf   []byte       // read buffer, kept across fills: an idle poll allocates nothing
	read  *obs.Counter // when set, counts the bytes read
}

// fill reads everything currently readable and pushes each complete
// frame's payload to push. It returns whether any frame was delivered.
func (t *fileTail) fill(push func(payload []byte) error) (bool, error) {
	if t.f == nil {
		f, err := os.Open(t.path)
		if os.IsNotExist(err) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		t.f = f
	}
	if t.buf == nil {
		t.buf = make([]byte, 1<<18)
	}
	progress := false
	for {
		n, err := t.f.ReadAt(t.buf, t.off)
		if n > 0 {
			t.off += int64(n)
			if t.read != nil {
				t.read.Add(int64(n))
			}
			t.carry = append(t.carry, t.buf[:n]...)
			for {
				payload, rest, ok := wal.ReadFrame(t.carry)
				if !ok {
					break
				}
				if err := push(payload); err != nil {
					return progress, err
				}
				progress = true
				t.carry = rest
			}
			// Keep the torn remainder without pinning the old backing array.
			if len(t.carry) > 0 {
				t.carry = append([]byte(nil), t.carry...)
			} else {
				t.carry = nil
			}
		}
		if err == io.EOF {
			return progress, nil
		}
		if err != nil {
			return progress, err
		}
	}
}

// close releases the file; a nil tail (a session that never opened
// one) has nothing to release.
func (t *fileTail) close() {
	if t != nil && t.f != nil {
		t.f.Close() //nolint:errcheck // read-only
		t.f = nil
	}
}

// streamConn is one live stream connection's write side: frames are
// batched into buf and flushed through w (an http.Flusher-backed writer
// in the server, a plain buffer in tests).
type streamConn struct {
	w     io.Writer
	flush func()
	buf   []byte
}

func (c *streamConn) push() error {
	if len(c.buf) == 0 {
		return nil
	}
	_, err := c.w.Write(c.buf)
	c.buf = c.buf[:0]
	if err == nil && c.flush != nil {
		c.flush()
	}
	return err
}

// ServeJournal streams the ingest journal to one follower: every record
// after sequence `from`, in journal order. The stream starts in the file
// that holds from+1 — tail segments are named for their first sequence —
// tails the active file live, follows each roll into the next segment
// (the header record ships verbatim: the follower rolls where the primary
// rolled), and ends with ctx (an EOF carries its cause, if it has its
// own), on a write error, or on a segment dropped from under it. A
// follower whose resume point lies in a segment already dropped is sent,
// between segment 0 and the retained tail, a store checkpoint. flush may
// be nil.
func (s *Source) ServeJournal(ctx context.Context, w io.Writer, flush func(), followerID string, from int) error {
	token := s.cfg.Registry.Attach(followerID)
	defer s.cfg.Registry.Detach(followerID, token)
	// Notes count while ctx is live and the connection is the follower's
	// newest; the first is what it holds, whatever an earlier one shipped.
	note := func(seq int) {
		if ctx.Err() == nil {
			s.cfg.Registry.NoteJournal(followerID, token, seq)
		}
	}
	note(from)

	conn := &streamConn{w: w, flush: flush}
	conn.buf = AppendHello(conn.buf, s.cfg.BootID, StreamJournal, from)
	if err := conn.push(); err != nil {
		return err
	}
	sess := &journalSession{src: s, conn: conn, note: note, shipped: from}
	defer func() { sess.tail.close() }()
	lastBeat := obs.Now()
	for {
		progress, err := sess.step()
		if err != nil {
			conn.buf = AppendEOF(conn.buf, err.Error())
			conn.push() //nolint:errcheck // stream is ending either way
			return err
		}
		if progress {
			note(sess.shipped)
		}
		if obs.Since(lastBeat) >= heartbeatEvery {
			conn.buf = s.heartbeat(conn.buf)
			lastBeat = obs.Now()
		}
		if err := conn.push(); err != nil {
			return err
		}
		if progress && ctx.Err() == nil {
			continue // drain hot without sleeping
		}
		select {
		case <-ctx.Done():
			if cause := context.Cause(ctx); cause != ctx.Err() {
				conn.buf = AppendEOF(conn.buf, cause.Error())
				conn.push() //nolint:errcheck // stream is ending either way
			}
			return nil
		case <-time.After(pollEvery):
		}
	}
}

// journalSession is one journal stream's server-side state.
type journalSession struct {
	src     *Source
	conn    *streamConn
	note    func(seq int) // moves the follower's journal pin
	shipped int           // highest sequence the follower holds or was sent
	tail    *fileTail     // the file being read; nil before the first step
	cur     int           // first sequence of that file; -1 for journal.log
}

// step makes one unit of progress: pick the starting file, drain the
// current file's new records, or hand off to the next segment.
func (j *journalSession) step() (bool, error) {
	if j.tail == nil {
		return true, j.start()
	}
	progress, err := j.tail.fill(func(payload []byte) error {
		r, err := wal.ParseJournalRecord(payload)
		if err != nil {
			return fmt.Errorf("replica: journal: %v", err)
		}
		if r.Kind == wal.JournalSegmentKind {
			// A header carries the sequence of the record behind it: the
			// follower needs it until it holds that record.
			if r.Seq <= j.shipped {
				return nil
			}
		} else {
			if r.Seq <= j.shipped {
				return nil // resume skip: the follower journaled this already
			}
			j.shipped = r.Seq
			mJournalShipped.Inc()
		}
		j.conn.buf = AppendJournalRec(j.conn.buf, payload)
		if len(j.conn.buf) >= 1<<16 {
			return j.conn.push()
		}
		return nil
	})
	if err != nil || progress {
		return progress, err
	}
	// No new bytes. A frame still being written completes in place; with
	// none in flight, follow a roll.
	if len(j.tail.carry) != 0 {
		return false, nil
	}
	return j.advance()
}

// start opens the file holding from+1: the newest tail segment beginning
// at or below it, journal.log when there is none.
func (j *journalSession) start() error {
	segs, err := wal.JournalTail(j.src.cfg.DataDir)
	if err != nil {
		return err
	}
	j.cur = -1
	path := wal.JournalHead(j.src.cfg.DataDir)
	for _, seg := range segs {
		if seg.Header.FirstSeq <= j.shipped+1 {
			j.cur, path = seg.Header.FirstSeq, seg.Path
		}
	}
	j.tail = &fileTail{path: path, read: mJournalRead}
	return nil
}

// advance moves to the segment after the current file, if a roll made
// one. Rolling seals a file before its successor gets a header, so once a
// successor's header reads, the current file is complete. Leaving
// journal.log, the successor either begins at the byte journal.log ends
// on, or segments between them were dropped and the follower is sent a
// checkpoint to stand on instead.
func (j *journalSession) advance() (bool, error) {
	segs, err := wal.JournalTail(j.src.cfg.DataDir)
	if err != nil {
		return false, err
	}
	var next *wal.JournalSegment
	for i := range segs {
		if segs[i].Header.FirstSeq > j.cur {
			next = &segs[i]
			break
		}
	}
	if next == nil {
		return false, nil
	}
	h, ok, err := wal.ReadJournalSegmentHeader(next.Path)
	if os.IsNotExist(err) {
		return false, nil // dropped since the listing: the next poll lists again
	}
	if err != nil || !ok {
		return false, err // a roll in progress: the header is not whole yet
	}
	switch {
	case j.cur < 0 && h.Offset != j.tail.off:
		if h.Offset < j.tail.off {
			return false, fmt.Errorf("replica: journal segment %s begins at byte %d, inside journal.log", next.Path, h.Offset)
		}
		if err := j.bootstrap(next, h); err != nil {
			return false, err
		}
	case j.cur >= 0 && h.FirstSeq != j.shipped+1:
		// Past the hard cap the oldest segments go whatever a follower pins;
		// a reconnect finds the resume point dropped and bootstraps.
		return false, fmt.Errorf("replica: journal segments between sequence %d and %d were dropped under the stream", j.shipped, h.FirstSeq)
	}
	j.tail.close()
	j.tail = &fileTail{path: next.Path, read: mJournalRead}
	j.cur = h.FirstSeq
	return true, nil
}

// bootstrap sends the follower what the dropped segments between
// journal.log and seg held, as a store checkpoint. The journal pin goes to
// seg first, so that no drop takes it while the image ships; the image is
// whatever checkpoint snap/ holds now, which the drop rule keeps at or
// beyond where seg begins — the follower checks that against the header
// that follows.
func (j *journalSession) bootstrap(seg *wal.JournalSegment, h wal.JournalSegmentHeader) error {
	j.note(h.FirstSeq - 1)
	if _, err := os.Stat(seg.Path); err != nil {
		return fmt.Errorf("replica: journal segment %s was dropped before it could be pinned", seg.Path)
	}
	img, err := wal.OpenSnapshotImage(j.src.cfg.DataDir)
	if err != nil {
		return err
	}
	if img == nil {
		// No snapshot: the checkpoint is the empty store, which the follower
		// accepts only if no event had been stored yet when seg began.
		j.conn.buf = AppendSnapEnd(AppendSnapBegin(j.conn.buf, 0, 0))
	} else {
		err = shipImage(j.conn, img)
		img.Close()
		if err != nil {
			return err
		}
	}
	j.shipped = h.FirstSeq - 1
	mCheckpoints.Inc()
	return j.conn.push()
}

// shipImage frames a snapshot image onto the stream.
func shipImage(conn *streamConn, img *wal.SnapshotImage) error {
	conn.buf = AppendSnapBegin(conn.buf, img.Next, img.Size)
	chunk := make([]byte, 256<<10)
	for {
		n, err := io.ReadFull(img, chunk)
		if n > 0 {
			conn.buf = AppendSnapChunk(conn.buf, chunk[:n])
			if err := conn.push(); err != nil {
				return err
			}
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return err
		}
	}
	conn.buf = AppendSnapEnd(conn.buf)
	return conn.push()
}

// walSession is one ShipWALOnce pass over the event WAL under dir.
type walSession struct {
	dir       string
	conn      *streamConn
	next      int // next record ID to ship
	tail      *fileTail
	tailFirst int                // first ID of the segment tail reads
	recs      wal.SegmentRecords // that segment's frames, as records
	booted    bool               // past the snapshot decision
}

// bootstrap decides how the stream starts: from the resume point when
// segments still cover it, from the latest readable snapshot otherwise —
// its manifest's runs as one image, every run held open before the first
// chunk goes out, so compaction deleting one mid-stream tears nothing.
func (w *walSession) bootstrap() error {
	img, err := wal.OpenSnapshotImage(w.dir)
	if err != nil {
		return err
	}
	if img == nil {
		// No image, yet a manifest is there: compaction outran the open,
		// or every snapshot is unreadable. Segments below its bound may be
		// gone, so records alone could ship a gap — end the stream instead.
		next, ok, err := wal.LatestSnapshot(w.dir)
		if err != nil {
			return err
		}
		if ok && w.next < next {
			return fmt.Errorf("replica: the snapshot covering IDs below %d cannot be read", next)
		}
	} else {
		defer img.Close()
		if w.next < img.Next {
			if err := shipImage(w.conn, img); err != nil {
				return err
			}
			w.next = img.Next
			mSnapshots.Inc()
		}
	}
	w.booted = true
	return nil
}

// openSegmentFor positions the tail on the newest segment whose first ID
// is at or below next (records before it are already shipped, or their
// IDs were never stored). Returns false when no segment exists yet.
func (w *walSession) openSegmentFor() (bool, error) {
	segs, err := wal.Segments(w.dir)
	if err != nil || len(segs) == 0 {
		return false, err
	}
	idx := 0
	for i := range segs {
		if segs[i].First <= w.next {
			idx = i
		}
	}
	w.tail = &fileTail{path: segs[idx].Path}
	w.tailFirst, w.recs = segs[idx].First, wal.SegmentRecords{}
	return true, nil
}

// advanceSegment hands off to the next segment after the current one,
// if one exists. Rotation closes a segment before creating its
// successor, so once a newer segment is listed the current one is
// complete.
func (w *walSession) advanceSegment() (bool, error) {
	segs, err := wal.Segments(w.dir)
	if err != nil {
		return false, err
	}
	for i := range segs {
		if segs[i].First > w.tailFirst {
			w.tail.close()
			w.tail = &fileTail{path: segs[i].Path}
			w.tailFirst, w.recs = segs[i].First, wal.SegmentRecords{}
			return true, nil
		}
	}
	return false, nil
}

// step makes one unit of progress: bootstrap, open a segment, drain the
// current segment's records, or hand off at rotation — but only with the
// carry empty: a torn frame would have to complete in place, and a single
// pass does not wait for it.
func (w *walSession) step() (bool, error) {
	if !w.booted {
		return true, w.bootstrap()
	}
	if w.tail == nil {
		return w.openSegmentFor()
	}
	progress, err := w.tail.fill(func(payload []byte) error {
		// Records below the resume point are already shipped.
		err := w.recs.Frame(payload, w.next, func(id int, rec []byte) error {
			w.conn.buf = AppendWALRec(w.conn.buf, rec)
			w.next = id + 1
			mWALShipped.Inc()
			if len(w.conn.buf) >= 1<<16 {
				return w.conn.push()
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("replica: segment %s: %v", w.tail.path, err)
		}
		return nil
	})
	if err != nil || progress || len(w.tail.carry) != 0 {
		return progress, err
	}
	return w.advanceSegment()
}

// ShipWALOnce streams the WAL state under dir — the latest snapshot if
// `from` predates the oldest retained record, then every flushed segment
// record with ID >= the resume point, a block frame expanded into one
// MsgWALRec per instance — to w, and returns without tailing. No server
// serves the WAL (followers take the journal stream alone); this one-shot
// form is frozen because bench/ measures it.
func ShipWALOnce(dir string, bootID string, from int, w io.Writer) (next int, err error) {
	conn := &streamConn{w: w}
	conn.buf = AppendHello(conn.buf, bootID, StreamWAL, from)
	if err := conn.push(); err != nil {
		return from, err
	}
	sess := &walSession{dir: dir, conn: conn, next: from}
	defer func() { sess.tail.close() }()
	for {
		progress, err := sess.step()
		if err != nil {
			return sess.next, err
		}
		if !progress {
			break
		}
		if err := conn.push(); err != nil {
			return sess.next, err
		}
	}
	conn.buf = AppendEOF(conn.buf, "complete")
	return sess.next, conn.push()
}
