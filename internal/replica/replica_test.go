package replica

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/wal"
)

var t0 = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

func inst(id int, name string) event.Instance {
	return event.Instance{
		ID:    id,
		Name:  name,
		Start: t0.Add(time.Duration(id) * time.Second),
		End:   t0.Add(time.Duration(id)*time.Second + time.Minute),
		Loc:   locus.Location{Type: locus.Router, A: fmt.Sprintf("r%d", id%7)},
		Attrs: event.NewAttrs(map[string]string{"seq": fmt.Sprint(id)}),
	}
}

// decodeStream parses a full byte stream into messages (deep-copied).
func decodeStream(t *testing.T, b []byte) []Msg {
	t.Helper()
	r := NewReader(wal.NewFrameReader(bytes.NewReader(b)))
	var out []Msg
	for {
		m, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("decode stream: %v (after %d msgs)", err, len(out))
		}
		m.Rec = append([]byte(nil), m.Rec...)
		m.Chunk = append([]byte(nil), m.Chunk...)
		out = append(out, m)
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	var b []byte
	b = AppendHello(b, "boot-1", StreamJournal, 17)
	b = AppendJournalRec(b, []byte("journal-bytes"))
	b = AppendWALRec(b, []byte{7, 'w'})
	b = AppendSnapBegin(b, 1000, 12345)
	b = AppendSnapChunk(b, []byte("chunk"))
	b = AppendSnapEnd(b)
	b = AppendHeartbeat(b, 41, 20, 6)
	b = AppendEOF(b, "done")

	msgs := decodeStream(t, b)
	if len(msgs) != 8 {
		t.Fatalf("got %d messages, want 8", len(msgs))
	}
	h := msgs[0]
	if h.Type != MsgHello || h.BootID != "boot-1" || h.Stream != StreamJournal || h.From != 17 {
		t.Fatalf("hello mismatch: %+v", h)
	}
	if j := msgs[1]; j.Type != MsgJournalRec || string(j.Rec) != "journal-bytes" {
		t.Fatalf("journal rec mismatch: %+v", j)
	}
	if w := msgs[2]; w.Type != MsgWALRec || !bytes.Equal(w.Rec, []byte{7, 'w'}) {
		t.Fatalf("wal rec mismatch: %+v", w)
	}
	if s := msgs[3]; s.Type != MsgSnapBegin || s.Next != 1000 || s.Size != 12345 {
		t.Fatalf("snap begin mismatch: %+v", s)
	}
	if c := msgs[4]; c.Type != MsgSnapChunk || string(c.Chunk) != "chunk" {
		t.Fatalf("snap chunk mismatch: %+v", c)
	}
	if msgs[5].Type != MsgSnapEnd {
		t.Fatalf("snap end mismatch: %+v", msgs[5])
	}
	hb := msgs[6]
	if hb.Type != MsgHeartbeat || hb.Sealed != 41 || hb.JournalBytes != 20 || hb.WALNext != 6 {
		t.Fatalf("heartbeat mismatch: %+v", hb)
	}
	if e := msgs[7]; e.Type != MsgEOF || e.Reason != "done" {
		t.Fatalf("eof mismatch: %+v", e)
	}

	// Another version's hello is refused for its version alone: what
	// follows the version differs between versions and is not read.
	for _, hello := range [][]byte{
		{MsgHello, 3, 6, 'b', 'o', 'o', 't', '-', '1', 4, StreamJournal, 34}, // what protocol 3 sent for the hello above
		{MsgHello, 4, 6, 'b', 'o', 'o', 't', '-', '1', StreamJournal, 34},    // protocol 4's: 6's bytes but for the version
		{MsgHello, 5, 6, 'b', 'o', 'o', 't', '-', '1', StreamJournal, 34},    // protocol 5's, likewise
		{MsgHello, 6, 6, 'b', 'o', 'o', 't', '-', '1', StreamJournal, 34},    // protocol 6's, likewise
		{MsgHello, 7, 6, 'b', 'o', 'o', 't', '-', '1', StreamJournal, 34},    // protocol 7's, likewise
		{MsgHello, 8, 6, 'b', 'o', 'o', 't', '-', '1', StreamJournal, 34},    // protocol 8's, likewise
		{MsgHello, 9, 6, 'b', 'o', 'o', 't', '-', '1', StreamJournal, 34},    // protocol 9's, likewise
		{MsgHello, 11},
	} {
		if _, err := ParseMsg(hello); !errors.Is(err, ErrFatal) || !strings.Contains(err.Error(), fmt.Sprintf("protocol version %d", hello[1])) {
			t.Fatalf("a version-%d hello: err %v, want a fatal refusal naming the version", hello[1], err)
		}
	}
}

func TestReaderTornStream(t *testing.T) {
	var b []byte
	b = AppendHello(b, "boot", StreamJournal, 0)
	b = AppendJournalRec(b, []byte{1, 2, 3})
	for cut := 1; cut < len(b); cut++ {
		r := NewReader(wal.NewFrameReader(bytes.NewReader(b[:cut])))
		var err error
		for err == nil {
			_, err = r.Next()
		}
		if err != io.EOF && err != wal.ErrTornFrame {
			t.Fatalf("cut %d: err = %v, want EOF or ErrTornFrame", cut, err)
		}
	}
	// Flipped byte inside a frame body must surface as a torn frame.
	bad := append([]byte(nil), b...)
	bad[len(bad)-2] ^= 0xff
	r := NewReader(wal.NewFrameReader(bytes.NewReader(bad)))
	var err error
	for err == nil {
		_, err = r.Next()
	}
	if err != wal.ErrTornFrame {
		t.Fatalf("corrupt frame: err = %v, want ErrTornFrame", err)
	}
}

func TestRegistryPinAndGrace(t *testing.T) {
	r := NewRegistry(30 * time.Millisecond)
	if pin := r.PinJournal(); pin != -1 {
		t.Fatalf("empty registry pin = %d, want -1", pin)
	}
	var follower *Registry // a follower's: replication does not chain
	if pin := follower.PinJournal(); pin != -1 {
		t.Fatalf("nil registry pin = %d, want -1", pin)
	}
	// The lowest sequence some live follower has yet to be shipped. A fresh
	// follower pins everything.
	r.Attach("f1")
	if pin := r.PinJournal(); pin != 0 {
		t.Fatalf("fresh follower pin = %d, want 0 (everything)", pin)
	}
	r.NoteJournal("f1", 41)
	r.Attach("f2")
	r.NoteJournal("f2", 9)
	if pin := r.PinJournal(); pin != 10 {
		t.Fatalf("two-follower pin = %d, want 10: f2's next", pin)
	}
	// Disconnect f2: the pin holds through the grace window, then expires.
	r.Detach("f2")
	if pin := r.PinJournal(); pin != 10 {
		t.Fatalf("graced pin = %d, want 10", pin)
	}
	time.Sleep(60 * time.Millisecond)
	if pin := r.PinJournal(); pin != 42 {
		t.Fatalf("post-grace pin = %d, want 42", pin)
	}
	st := r.Status()
	if len(st) != 1 || st[0].ID != "f1" || !st[0].Connected || st[0].JournalSeq != 41 {
		t.Fatalf("status = %+v, want connected f1 only, at 41", st)
	}

	// A reconnect says where the follower stands, also when that is
	// further back.
	r.Attach("f3")
	r.NoteJournal("f3", 17)
	if pin := r.PinJournal(); pin != 18 {
		t.Fatalf("journal pin = %d, want 18: f3's next", pin)
	}
	r.NoteJournal("f1", 9)
	if pin := r.PinJournal(); pin != 10 {
		t.Fatalf("journal pin = %d after f1 reconnected from 9, want 10", pin)
	}
	r.Detach("f1")
	r.Detach("f3")
	time.Sleep(60 * time.Millisecond)
	if pin := r.PinJournal(); pin != -1 {
		t.Fatalf("journal pin = %d past every grace window, want -1", pin)
	}
}

// TestRegistryFollowersGauge: replica.source.followers tracks the table
// through attach, detach and grace expiry — it is what Status reports,
// not a value stamped once when a journal stream opened.
func TestRegistryFollowersGauge(t *testing.T) {
	r := NewRegistry(30 * time.Millisecond)
	check := func(what string, want int) {
		t.Helper()
		if got := mFollowers.Value(); got != int64(want) {
			t.Errorf("%s: gauge = %d, want %d", what, got, want)
		}
		if got := len(r.Status()); got != want {
			t.Errorf("%s: Status lists %d followers, want %d", what, got, want)
		}
	}
	r.Attach("f1")
	check("one attached", 1)
	r.Attach("f1") // a second stream of the same follower
	r.Attach("f2")
	check("two attached", 2)
	r.Detach("f2")
	check("f2 inside its grace window", 2)
	time.Sleep(60 * time.Millisecond)
	r.Detach("f1") // one of f1's two streams; the detach also expires f2
	if got := mFollowers.Value(); got != 1 {
		t.Errorf("after f2's grace: gauge = %d, want 1", got)
	}
	check("f2 expired", 1)
}

// TestWALSinkWriteScanResume: a sink writes shipped records into rotated
// segments, drops what it already holds — after a reopen too, and after a
// torn tail only what survived the tear — and the directory opens as a
// log.
func TestWALSinkWriteScanResume(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWALSink(dir, 256) // tiny segments to force rotation
	if err != nil {
		t.Fatal(err)
	}
	recs := makeTestRecords(t, 40, "sink")
	writeAll := func(s *WALSink) {
		t.Helper()
		for _, rec := range recs {
			if err := s.WriteRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeAll(s)
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("got %d segments, want rotation to have split them", len(segs))
	}
	size := func() (n int64) {
		t.Helper()
		segs, err := wal.Segments(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs {
			fi, err := os.Stat(seg.Path)
			if err != nil {
				t.Fatal(err)
			}
			n += fi.Size()
		}
		return n
	}
	whole := size()

	// Reopen: the sink resumes one past the last intact record, so the whole
	// stream shipped again writes nothing.
	s2, err := OpenWALSink(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(s2)
	if got := size(); got != whole {
		t.Fatalf("re-shipped records grew the log from %d to %d bytes", whole, got)
	}

	// Tear the tail: the sink resumes at the committed prefix, and the
	// stream shipped again completes the log.
	tail := segs[len(segs)-1].Path
	st, _ := os.Stat(tail)
	if err := os.Truncate(tail, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenWALSink(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(s3)
	if got := size(); got != whole {
		t.Fatalf("the log holds %d bytes after the tear was re-shipped, %d before", got, whole)
	}
	_, mem, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if next, live := mem.NextID(), mem.Len(); next != 40 || live != 40 {
		t.Fatalf("recovered next=%d live=%d, want 40/40", next, live)
	}
}

// collectWriter is a goroutine-safe sink for a live stream under test.
type collectWriter struct {
	mu sync.Mutex
	b  []byte
}

func (w *collectWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *collectWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.b...)
}

// TestServeJournalTail: the journal stream is a plain tail of one file.
// Records appended while the stream is live arrive in file order, a
// torn tail (a frame still being written) is carried until it completes
// rather than shipped, and a reconnect at from=k skips everything ≤ k.
func TestServeJournalTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	rec := func(seq int) []byte {
		return wal.AppendJournalRecord(nil, wal.JournalRecord{Seq: seq, Kind: wal.JournalEventKind, Body: []byte("body")})
	}
	j, err := wal.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendJ := func(seq int) {
		if err := j.Append(rec(seq)); err != nil {
			t.Fatal(err)
		}
	}
	src := NewSource(SourceConfig{
		BootID:          "boot-t",
		JournalPath:     path,
		WALDir:          filepath.Dir(path),
		JournalFrontier: func() int { return -1 },
		JournalOffset:   func() int64 { return 0 },
		WALFrontier:     func() int { return 0 },
		Registry:        NewRegistry(time.Minute),
		Poll:            2 * time.Millisecond,
	})
	// serve starts a stream at from and returns a wait-for-seqs function
	// and the stream's stop function.
	serve := func(from int) (func(want ...int), func()) {
		w := &collectWriter{}
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() { done <- src.ServeJournal(w, nil, "t", from, stop) }()
		seqs := func() []int {
			var got []int
			for _, m := range decodeStream(t, w.bytes()) {
				if m.Type == MsgJournalRec {
					r, err := wal.ParseJournalRecord(m.Rec)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, r.Seq)
				}
			}
			return got
		}
		wait := func(want ...int) {
			t.Helper()
			deadline := time.Now().Add(5 * time.Second)
			for fmt.Sprint(seqs()) != fmt.Sprint(want) {
				if time.Now().After(deadline) {
					t.Fatalf("stream from %d shipped %v, want %v", from, seqs(), want)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
		return wait, func() {
			close(stop)
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
	}

	appendJ(0)
	appendJ(1)
	wait, stop := serve(-1)
	wait(0, 1)
	appendJ(2) // lands while the stream is live
	wait(0, 1, 2)
	// A torn tail: seq 3's frame minus its last byte, written raw.
	frame := wal.AppendFrame(nil, rec(3))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(frame[:len(frame)-1]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // several polls over the torn frame
	wait(0, 1, 2)
	if _, err := f.Write(frame[len(frame)-1:]); err != nil {
		t.Fatal(err)
	}
	wait(0, 1, 2, 3)
	stop()

	wait, stop = serve(1)
	wait(2, 3)
	appendJ(4)
	wait(2, 3, 4)
	stop()
}

// segmentedJournal writes a journal of a head and `segments` tail
// segments under dir, perSeg records of about 1 KiB in each file, and
// returns the journal, still open, and the next sequence.
func segmentedJournal(t *testing.T, dir string, segments, perSeg int) (*wal.SegmentedJournal, int) {
	t.Helper()
	j, err := wal.OpenSegmentedJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.Repeat("b", 1000)
	seq := 0
	for file := 0; file <= segments; file++ {
		if file > 0 {
			if err := j.Roll(wal.JournalSegmentHeader{FirstSeq: seq, FirstID: 10 * seq, Front: 10 * seq}, nil, false); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < perSeg; i++ {
			if err := j.AppendNoSync(append(append(appendUvarintTest(nil, seq), 3, 0), body...)); err != nil {
				t.Fatal(err)
			}
			seq++
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	return j, seq
}

// journalStream runs one ServeJournal connection from `from` until the
// stream has shipped the record with sequence `until`, and returns what
// it shipped: the records' sequences, and the first sequences of the
// segment headers among them.
func journalStream(t *testing.T, src *Source, id string, from, until int) (seqs, headers []int, msgs []Msg) {
	t.Helper()
	w := &collectWriter{}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- src.ServeJournal(w, nil, id, from, stop) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		seqs, headers, msgs = nil, nil, decodeStream(t, w.bytes())
		for _, m := range msgs {
			if m.Type != MsgJournalRec {
				continue
			}
			r, err := wal.ParseJournalRecord(m.Rec)
			if err != nil {
				t.Fatal(err)
			}
			if r.Kind == wal.JournalSegmentKind {
				headers = append(headers, r.Seq)
			} else {
				seqs = append(seqs, r.Seq)
			}
		}
		if len(seqs) > 0 && seqs[len(seqs)-1] >= until {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream from %d shipped records %v, never reached %d", from, seqs, until)
		}
		select {
		case err := <-done:
			t.Fatalf("stream from %d ended after records %v: %v", from, seqs, err)
		case <-time.After(2 * time.Millisecond):
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return seqs, headers, msgs
}

// TestServeJournalSegments: over a segmented journal the stream ships
// every record in order with each tail segment's header ahead of its
// records, and a reconnect starts in the segment that holds its resume
// point — at the tip of a 20-segment journal it reads less than two
// segments' bytes, where scanning from journal.log read all of them.
func TestServeJournalSegments(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(wal.SnapDirOf(dir), 0o755); err != nil { // a shard with no snapshot yet
		t.Fatal(err)
	}
	const segments, perSeg = 20, 8
	j, next := segmentedJournal(t, dir, segments, perSeg)
	defer j.Close()
	src := NewSource(SourceConfig{
		BootID:          "boot-s",
		JournalPath:     wal.JournalHead(dir),
		WALDir:          dir,
		JournalFrontier: func() int { return next - 1 },
		JournalOffset:   j.Offset,
		WALFrontier:     func() int { return 0 },
		Registry:        NewRegistry(time.Minute),
		Poll:            2 * time.Millisecond,
	})

	seqs, headers, _ := journalStream(t, src, "whole", -1, next-1)
	for i, seq := range seqs {
		if seq != i {
			t.Fatalf("record %d of the whole stream carries sequence %d", i, seq)
		}
	}
	if len(seqs) != next || len(headers) != segments {
		t.Fatalf("shipped %d records and %d headers, want %d and %d", len(seqs), len(headers), next, segments)
	}
	for i, first := range headers {
		if first != (i+1)*perSeg {
			t.Fatalf("header %d announces sequence %d, want %d", i, first, (i+1)*perSeg)
		}
	}

	// A reconnect holding everything but the last record.
	segBytes := j.Offset() / (segments + 1)
	read := mJournalRead.Value()
	seqs, headers, _ = journalStream(t, src, "tip", next-2, next-1)
	if len(seqs) != 1 || seqs[0] != next-1 || len(headers) != 0 {
		t.Fatalf("reconnect at the tip shipped records %v and headers %v, want just %d", seqs, headers, next-1)
	}
	if got := mJournalRead.Value() - read; got >= 2*segBytes {
		t.Fatalf("reconnect at the tip read %d bytes of a journal with %d-byte segments", got, segBytes)
	}
	// One holding exactly a whole segment gets the next one's header again:
	// it may not have rolled yet.
	seqs, headers, _ = journalStream(t, src, "edge", 5*perSeg-1, next-1)
	if seqs[0] != 5*perSeg || len(headers) == 0 || headers[0] != 5*perSeg {
		t.Fatalf("reconnect at a segment's edge began with record %d and headers %v, want both at %d", seqs[0], headers, 5*perSeg)
	}

	// Segments dropped behind journal.log: a follower whose resume point
	// lies in them is sent a checkpoint per shard between journal.log's
	// rest and the retained tail.
	for k := 0; k < 10; k++ {
		if err := j.DropOldest(); err != nil {
			t.Fatal(err)
		}
	}
	oldest := j.Tail()[0].Header.FirstSeq
	seqs, headers, msgs := journalStream(t, src, "late", 2, next-1)
	if want := append(seqRange(3, perSeg), seqRange(oldest, next)...); fmt.Sprint(seqs) != fmt.Sprint(want) {
		t.Fatalf("late follower was shipped records %v, want journal.log's rest then %d on", seqs, oldest)
	}
	if headers[0] != oldest {
		t.Fatalf("the tail resumed at header %d, want the oldest retained segment %d", headers[0], oldest)
	}
	begins := 0
	for i, m := range msgs {
		if m.Type == MsgSnapBegin {
			if begins++; m.Size != 0 || msgs[i+1].Type != MsgSnapEnd {
				t.Fatalf("checkpoint frame %+v followed by %+v, want shard 0's empty checkpoint", m, msgs[i+1])
			}
		}
	}
	if begins != 1 {
		t.Fatalf("%d checkpoints shipped to a follower resuming inside dropped segments, want one per shard", begins)
	}
}

func seqRange(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestFileTailIdleFillAllocatesNothing: every live stream polls fill
// each Poll for as long as a follower is attached, so a fill that finds
// nothing new must not touch the heap.
func TestFileTailIdleFillAllocatesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	if err := os.WriteFile(path, wal.AppendFrame(nil, []byte("rec")), 0o644); err != nil {
		t.Fatal(err)
	}
	tail := &fileTail{path: path}
	defer tail.close()
	frames := 0
	push := func([]byte) error { frames++; return nil }
	if _, err := tail.fill(push); err != nil || frames != 1 {
		t.Fatalf("first fill delivered %d frames, err %v; want 1", frames, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if progress, err := tail.fill(push); progress || err != nil {
			t.Fatalf("idle fill: progress %v, err %v", progress, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("idle fill allocates %.0f times per poll, want 0", allocs)
	}
}

// TestLaggingFollowerAcrossAdoptedSegments: a sink a round behind a
// primary whose every snapshot seals and adopts the segment it was shipped
// from. Each ShipWALOnce pass resumes exactly where the last one ended,
// beside the adopted segments below it — records only, never a snapshot
// bootstrap, none twice — and the log the sink wrote opens to the
// primary's digest.
func TestLaggingFollowerAcrossAdoptedSegments(t *testing.T) {
	prim := t.TempDir()
	l, st, _, err := wal.Open(prim, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	foll := t.TempDir()
	sink, err := OpenWALSink(foll, 0)
	if err != nil {
		t.Fatal(err)
	}
	shipped := 0
	ship := func() {
		t.Helper()
		var buf bytes.Buffer
		from := shipped
		next, err := ShipWALOnce(prim, "boot-lag", from, &buf)
		if err != nil {
			t.Fatal(err)
		}
		want := from
		for _, m := range decodeStream(t, buf.Bytes()) {
			switch m.Type {
			case MsgSnapBegin:
				t.Fatalf("the pass from %d bootstrapped from a snapshot", from)
			case MsgWALRec:
				if id, err := wal.RecordID(m.Rec); err != nil || id != want {
					t.Fatalf("the pass from %d shipped record %d (%v), want %d", from, id, err, want)
				}
				want++
				if err := sink.WriteRecord(m.Rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		if next != want {
			t.Fatalf("the pass from %d reports %d, %d records arrived", from, next, want-from)
		}
		shipped = next
	}
	const rounds, perRound = 4, 3000 // 3000 records: a segment well past crumb size
	for r := 0; r < rounds; r++ {
		for i := r * perRound; i < (r+1)*perRound; i++ {
			if _, err := st.Put(inst(i, "lag")); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		ship()
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
		// The segment the pass read is now a run's second name.
		sfi, err := os.Stat(wal.SegPath(prim, r*perRound))
		if err != nil {
			t.Fatal(err)
		}
		runs, _ := filepath.Glob(filepath.Join(wal.SnapDirOf(prim), "run-*.run"))
		adopted := false
		for _, run := range runs {
			rfi, err := os.Stat(run)
			adopted = adopted || (err == nil && os.SameFile(sfi, rfi))
		}
		if !adopted {
			t.Fatalf("round %d: the snapshot did not adopt segment %d", r, r*perRound)
		}
	}
	ship() // the last snapshot added nothing: an empty pass
	want := wal.StoreDigest(st)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	fl, mem, _, err := wal.Open(foll, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if got := wal.StoreDigest(mem); got != want {
		t.Fatalf("the sink's log opens to digest %s, the primary's is %s", got, want)
	}
}

func TestClientStreamsAndReconnects(t *testing.T) {
	// First request fails; second serves three messages then EOF. The
	// client must reconnect, deliver all messages, and honor Stop.
	var mu sync.Mutex
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		var b []byte
		b = AppendHello(b, "boot-c", StreamJournal, 0)
		b = AppendJournalRec(b, []byte{0, 'x'})
		b = AppendEOF(b, "bye")
		w.Write(b) //nolint:errcheck // test server
	}))
	defer srv.Close()

	got := make(chan Msg, 16)
	c := &Client{
		URL:     func(from int) string { return fmt.Sprintf("%s/stream?from=%d", srv.URL, from) },
		From:    func() int { return 0 },
		Handle:  func(m Msg) error { got <- m; return nil },
		Backoff: 5 * time.Millisecond,
	}
	c.Start()
	defer func() { c.Stop(); c.Wait() }()

	deadline := time.After(5 * time.Second)
	var seen []Msg
	for len(seen) < 2 {
		select {
		case m := <-got:
			seen = append(seen, m)
		case <-deadline:
			t.Fatalf("timed out; saw %d messages", len(seen))
		}
	}
	if seen[0].Type != MsgHello || seen[0].BootID != "boot-c" {
		t.Fatalf("first message %+v, want hello", seen[0])
	}
	if seen[1].Type != MsgJournalRec {
		t.Fatalf("second message %+v, want a journal record", seen[1])
	}
	mu.Lock()
	if calls < 2 {
		t.Fatalf("calls = %d, want a reconnect after the 503", calls)
	}
	mu.Unlock()
}

func TestClientFatalStops(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b []byte
		b = AppendHello(b, "other-boot", StreamJournal, 0)
		w.Write(b) //nolint:errcheck // test server
	}))
	defer srv.Close()

	errs := make(chan error, 16)
	c := &Client{
		URL:  func(from int) string { return srv.URL },
		From: func() int { return 0 },
		Handle: func(m Msg) error {
			if m.Type == MsgHello && m.BootID != "boot-c" {
				return Fatal(fmt.Errorf("boot ID mismatch"))
			}
			return nil
		},
		Backoff: time.Millisecond,
		OnState: func(err error) {
			if err != nil {
				errs <- err
			}
		},
	}
	c.Start()
	waited := make(chan struct{})
	go func() { c.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("client did not stop on fatal error")
	}
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("expected the fatal error reported")
		}
	default:
		t.Fatal("no error reported via OnState")
	}
}

// makeTestRecords encodes n records the way ShipWALOnce sends them — the
// block frames of a scratch log's segments expanded into records — so sink
// tests feed real record bytes.
func makeTestRecords(t *testing.T, n int, name string) [][]byte {
	t.Helper()
	dir := t.TempDir()
	l, st, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := st.Put(inst(i, name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, seg := range segs {
		data, err := os.ReadFile(seg.Path)
		if err != nil {
			t.Fatal(err)
		}
		var recs wal.SegmentRecords
		for len(data) > 0 {
			payload, rest, ok := wal.ReadFrame(data)
			if !ok {
				t.Fatalf("bad test record in %s", seg.Path)
			}
			err := recs.Frame(payload, 0, func(_ int, rec []byte) error {
				out = append(out, append([]byte(nil), rec...))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			data = rest
		}
	}
	if len(out) != n {
		t.Fatalf("encoded %d records, want %d", len(out), n)
	}
	return out
}

func appendUvarintTest(b []byte, v int) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
