package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"

	"grca/internal/collector"
	"grca/internal/wal"
)

// withDeclared gives a feed record body another declared line length,
// keeping its DEFLATE stream.
func withDeclared(body []byte, n uint64) []byte {
	_, sz := binary.Uvarint(body)
	return append(binary.AppendUvarint(nil, n), body[sz:]...)
}

// TestFeedRecordDecode: a wal.JournalFeedKind body inflates to the lines it was
// made from, and to nothing else — every way a body can disagree with its
// declared length is an error, and a length over maxBody is refused before
// ingest sees a byte.
func TestFeedRecordDecode(t *testing.T) {
	lines := []byte("2010-01-01T00:00:00Z r1 LINK-3-UPDOWN: Interface ge-0/0/0, changed state to down\n")
	lines = bytes.Repeat(lines, 50)
	good := appendFeedRecord(nil, lines)
	n := uint64(len(lines))
	for _, c := range []struct {
		name string
		body []byte
		want []byte // nil: rejected
	}{
		{"lines", good, lines},
		{"zero-length feed", appendFeedRecord(nil, nil), []byte{}},
		{"zero-length feed without a stream", []byte{0}, nil},
		{"no length", nil, nil},
		{"torn length", []byte{0x80}, nil},
		{"torn DEFLATE", good[:len(good)-3], nil},
		{"stream shorter than declared", withDeclared(good, n+1), nil},
		{"stream longer than declared", withDeclared(good, n-1), nil},
		{"trailing bytes", append(append([]byte(nil), good...), 0), nil},
		{"declared maxBody+1", withDeclared(appendFeedRecord(nil, make([]byte, maxBody+1)), maxBody+1), nil},
		{"not DEFLATE", append(binary.AppendUvarint(nil, 5), "hello"...), nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			called := false
			var got []byte
			err := inflateFeed(c.body, func(r io.Reader) {
				called = true
				got, _ = io.ReadAll(r)
			})
			switch {
			case c.want == nil && err == nil:
				t.Fatalf("accepted, inflating to %d bytes", len(got))
			case c.want != nil && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.want != nil && !bytes.Equal(got, c.want):
				t.Fatalf("inflated to %d bytes, want the %d it was made from", len(got), len(c.want))
			}
			if d, sz := binary.Uvarint(c.body); called && (sz <= 0 || d > maxBody) {
				t.Fatal("ingest was handed a stream whose declared length is over the cap")
			}
			if err != nil {
				t.Log(err)
			}
		})
	}

	// An ingest that stops early (a quarantined source) leaves the rest to
	// inflateFeed, which still holds the stream to its length.
	if err := inflateFeed(good, func(r io.Reader) { r.Read(make([]byte, 1)) }); err != nil { //nolint:errcheck // reads one byte on purpose
		t.Fatalf("a partly read body: %v", err)
	}
	if err := inflateFeed(withDeclared(good, n+1), func(io.Reader) {}); err == nil {
		t.Fatal("an unread body shorter than declared was accepted")
	}

	// A body of maxBody bytes of lines streams: the decoder holds a window,
	// not the lines.
	big := appendFeedRecord(nil, make([]byte, maxBody))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := inflateFeed(big, func(r io.Reader) { io.Copy(io.Discard, r) }) //nolint:errcheck // the verdict is inflateFeed's
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxBody/8 {
		t.Fatalf("inflating %d bytes of lines allocated %d bytes", maxBody, alloc)
	}
}

// FuzzFeedRecord: the wal.JournalFeedKind body decoder is total and bounded.
// Any bytes are either refused or inflate to exactly the length declared,
// at most maxBody; ingest never sees a stream declared over the cap; and
// the verdict does not depend on how much of the stream ingest reads.
func FuzzFeedRecord(f *testing.F) {
	f.Add(appendFeedRecord(nil, []byte("line one\nline two\n")))
	f.Add(appendFeedRecord(nil, nil))
	f.Add([]byte{0})
	f.Add(withDeclared(appendFeedRecord(nil, []byte("x")), maxBody+1))
	f.Add(append(appendFeedRecord(nil, []byte("abc")), 1))
	f.Fuzz(func(t *testing.T, body []byte) {
		declared, sz := binary.Uvarint(body)
		var read int64
		called := false
		err := inflateFeed(body, func(r io.Reader) {
			called = true
			read, _ = io.Copy(io.Discard, r)
		})
		if called && (sz <= 0 || declared > maxBody) {
			t.Fatalf("ingest was handed a stream declared at %d bytes", declared)
		}
		if read > maxBody || (sz > 0 && uint64(read) > declared) {
			t.Fatalf("ingest read %d bytes of a stream declared at %d", read, declared)
		}
		if err == nil && uint64(read) != declared {
			t.Fatalf("accepted after ingest read %d bytes of the %d declared", read, declared)
		}
		if lazy := inflateFeed(body, func(io.Reader) {}); (lazy == nil) != (err == nil) {
			t.Fatalf("an ingest that reads all: %v; one that reads nothing: %v", err, lazy)
		}
	})
}

// TestFeedJournalCompression: /v1/stats says what the feed phase cost the
// journal — the lines posted and the records journaled — and on the test
// corpus the records are under 0.3× the lines. journal.log holds exactly
// those records and the finalize record.
func TestFeedJournalCompression(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	s := openServer(t, dir, b)
	defer s.Shutdown(context.Background()) //nolint:errcheck // test teardown
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	counters := func() (lines, records int64) {
		t.Helper()
		code, body := get(t, ts, "/v1/stats")
		var stats struct {
			Metrics struct{ Counters map[string]int64 }
		}
		if err := json.Unmarshal(body, &stats); code != http.StatusOK || err != nil {
			t.Fatalf("/v1/stats: %d %v", code, err)
		}
		return stats.Metrics.Counters["journal.feed.lines_bytes"], stats.Metrics.Counters["journal.feed.record_bytes"]
	}
	lines0, records0 := counters()
	loadAndFinalize(t, ts, b)
	lines1, records1 := counters()
	lines, records := lines1-lines0, records1-records0

	var posted, feeds int
	for _, src := range feedOrder {
		if feed, ok := b.Feeds[src]; ok {
			posted += len(feed)
			feeds++
		}
	}
	if lines != int64(posted) {
		t.Fatalf("journal.feed.lines_bytes rose by %d, the feeds posted hold %d bytes", lines, posted)
	}
	if records <= 0 || float64(records) >= 0.3*float64(lines) {
		t.Fatalf("journal.feed.record_bytes rose by %d for %d bytes of lines, want under 0.3×", records, lines)
	}
	finalize := int64(wal.FrameHeader + len(wal.AppendJournalRecord(nil, wal.JournalRecord{Seq: feeds, Kind: wal.JournalFinalizeKind})))
	if size := wal.JournalSize(journalPath(dir)); size != records+finalize {
		t.Fatalf("journal.log is %d bytes, the feed records %d and the finalize record %d", size, records, finalize)
	}
	t.Logf("%d bytes of lines journaled as %d (%.3f×)", lines, records, float64(records)/float64(lines))
}

// TestCorruptFeedRecordRefused: a feed record whose frame checks but whose
// DEFLATE stream does not inflate to what it declares is a corrupt record
// — the data dir is refused, naming the batch — never a parse error the
// replay steps over.
func TestCorruptFeedRecordRefused(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	s := openServer(t, dir, b)
	ts := httptest.NewServer(s.Handler())
	lines := b.Feeds[collector.SourceSyslog]
	if code, body := post(t, ts, "/v1/ingest", IngestRequest{Source: collector.SourceSyslog, Lines: lines}); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs := journalRecords(t, journalPath(dir))
	if len(recs) != 1 {
		t.Fatalf("journal.log holds %d records, want the one feed", len(recs))
	}
	r, err := wal.ParseJournalRecord(recs[0])
	if err != nil || r.Kind != wal.JournalFeedKind {
		t.Fatalf("the feed journaled as kind %d (%v)", r.Kind, err)
	}
	// One declared byte more than the stream holds, re-framed so that every
	// CRC holds.
	r.Body = withDeclared(r.Body, uint64(len(lines))+1)
	torn := wal.AppendJournalRecord(nil, r)
	if err := os.WriteFile(journalPath(dir), wal.AppendFrame(nil, torn), 0o644); err != nil {
		t.Fatal(err)
	}
	removeCheckpoints(t, dir)
	s2, err := Open(Config{DataDir: dir, Bundle: b})
	if err == nil {
		s2.Shutdown(context.Background()) //nolint:errcheck // test teardown
		t.Fatal("a data dir whose feed record is corrupt was opened")
	}
	if !strings.Contains(err.Error(), "journaled feed batch 0") {
		t.Fatalf("refused with %v, want the batch named", err)
	}
}
