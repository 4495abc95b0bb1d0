package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// An event block is one batch of instances in the one binary event
// encoding: what a wire events batch carries, what the ingest journal
// holds for it, and what a WAL block frame wraps. Every name and locus
// element is written once, in a string table, and each event as
// references into it:
//
//	uvarint count | uvarint nstrings | nstrings × (uvarint len | bytes)
//	| count × event
//	event = uvarint name ref | varint start − previous start
//	      | uvarint end − start | locus type byte
//	      | uvarint A ref | uvarint B ref | attribute section
//
// The table is in first-use order (name, A, B, event by event) and a ref is
// an index into it. Times are nanoseconds since the Unix epoch; the first
// event's previous start is 0, and the differences are taken modulo 2^64
// so that every instant between event.MinTime and event.MaxTime has an
// encoding. The attribute section is the canonical event.Attrs bytes. IDs
// are not encoded: the journal's replay allocates them in dispatch order,
// and a WAL block frame carries them ahead of its block.
//
// Decoding is canonical: DecodeEventBlock accepts exactly the bytes
// AppendEventBlock writes for what it decodes — table entries distinct and
// each used, every varint minimal, the locus type a valid one — so a block
// a client sent can be journaled verbatim and the same events still
// journal to the same bytes whichever API carried them.

// MinBlockEvent is the fewest bytes an event of a block takes, one per
// field: a block's count is bounded by its bytes.
const MinBlockEvent = 7

// AppendEventBlock appends ins encoded as one event block to b. The same
// instances always encode to the same bytes. An event with an instant
// outside event.MinTime..MaxTime (the zero time among them) has no int64
// nanosecond form; it is written as one that ends before it starts, which
// every decoder refuses, rather than as the instant its nanoseconds would
// wrap to.
func AppendEventBlock(b []byte, ins []event.Instance) []byte {
	e := encoders.Get().(*encoder)
	b = e.append(b, ins)
	if e.reset() {
		encoders.Put(e)
	}
	return b
}

// An encoder is AppendEventBlock's working state, pooled so that a block
// costs no setup: the string table, each table string's ref, a cache of
// recently used strings in front of that map, and the events' scratch
// bytes. Between calls all four are empty, so a pooled encoder holds no
// caller's string.
type encoder struct {
	table []string
	refs  map[string]int
	cache [cacheSlots]cached
	slots []uint16 // the cache slots in use
	evs   []byte
	grown int // the longest table refs has held: its capacity
}

// cached is a cache slot: a table string and its ref plus one, so that the
// zero slot matches no string, "" included.
type cached struct {
	s   string
	ref int
}

const (
	cacheBits  = 10
	cacheSlots = 1 << cacheBits

	// An encoder whose scratch grew past a WAL block frame's cap, or whose
	// map past maxPooledStrings, is dropped rather than pooled, so that
	// one large block does not stay resident.
	maxPooledScratch = 1 << 20
	maxPooledStrings = 1 << 14
)

// encoders holds AppendEventBlock's encoders between calls.
var encoders = sync.Pool{New: func() any { return &encoder{refs: make(map[string]int, 64)} }}

// append appends ins encoded as one event block to b, growing b once: the
// events are written to e's scratch first, since the table precedes them.
func (e *encoder) append(b []byte, ins []event.Instance) []byte {
	evs := e.evs
	var prev uint64
	for i := range ins {
		in := &ins[i]
		start, dur := uint64(in.Start.UnixNano()), uint64(in.End.UnixNano()-in.Start.UnixNano())
		if !holds(in.Start) || !holds(in.End) {
			start, dur = 0, math.MaxUint64
		}
		evs = binary.AppendUvarint(evs, e.ref(in.Name))
		evs = binary.AppendVarint(evs, int64(start-prev))
		evs = binary.AppendUvarint(evs, dur)
		evs = append(evs, byte(in.Loc.Type))
		evs = binary.AppendUvarint(evs, e.ref(in.Loc.A))
		evs = binary.AppendUvarint(evs, e.ref(in.Loc.B))
		evs = in.Attrs.AppendSection(evs)
		prev = start
	}
	e.evs = evs
	n := uvarintLen(len(ins)) + uvarintLen(len(e.table)) + len(evs)
	for _, s := range e.table {
		n += uvarintLen(len(s)) + len(s)
	}
	b = slices.Grow(b, n)
	b = binary.AppendUvarint(b, uint64(len(ins)))
	b = binary.AppendUvarint(b, uint64(len(e.table)))
	for _, s := range e.table {
		b = appendString(b, s)
	}
	return append(b, evs...)
}

// ref returns s's index in the table, adding s to its end if it is new.
// It looks s up first in the cache, at a slot hashed from its length and
// its first and last 8 bytes (all its bytes when shorter): a hit costs one
// string compare, where the two strings usually share their bytes. A miss
// costs one map lookup, so strings that share a slot cost a map lookup
// each, never a probe chain.
func (e *encoder) ref(s string) uint64 {
	a, b := uint64(len(s)), uint64(0)
	if len(s) >= 8 {
		a, b = a^le64(s), le64(s[len(s)-8:])
	} else {
		for i := 0; i < len(s); i++ {
			a = a<<8 | uint64(s[i])
		}
	}
	hi, lo := bits.Mul64(a^0x9e3779b97f4a7c15, b^0xbf58476d1ce4e5b9)
	i := uint16((hi ^ lo) >> (64 - cacheBits))
	c := &e.cache[i]
	if c.ref != 0 && c.s == s {
		return uint64(c.ref - 1)
	}
	if c.ref == 0 {
		e.slots = append(e.slots, i)
	}
	r, ok := e.refs[s]
	if !ok {
		r = len(e.table)
		e.refs[s] = r
		e.table = append(e.table, s)
	}
	*c = cached{s, r + 1}
	return uint64(r)
}

// reset empties e after a call and reports whether it may be pooled. Its
// map is cleared whole only when that costs about as much as deleting its
// strings one by one.
func (e *encoder) reset() bool {
	e.grown = max(e.grown, len(e.table))
	for _, i := range e.slots {
		e.cache[i] = cached{}
	}
	if 4*len(e.table) < e.grown {
		for _, s := range e.table {
			delete(e.refs, s)
		}
	} else {
		clear(e.refs)
	}
	clear(e.table)
	e.table, e.slots, e.evs = e.table[:0], e.slots[:0], e.evs[:0]
	return cap(e.evs) <= maxPooledScratch && e.grown <= maxPooledStrings
}

// uvarintLen is the length of n's uvarint.
func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// le64 reads the first 8 bytes of s as a little-endian word.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// minSec and maxSec are the Unix seconds of event.MinTime and MaxTime.
var minSec, maxSec = event.MinTime.Unix(), event.MaxTime.Unix()

// holds reports whether t has an int64-nanosecond form: every instant of
// a second strictly between MinTime's and MaxTime's does, and only in
// those two seconds are the instants compared.
func holds(t time.Time) bool {
	switch s := t.Unix(); {
	case s > minSec && s < maxSec:
		return true
	case s == minSec || s == maxSec:
		return !t.Before(event.MinTime) && !t.After(event.MaxTime)
	}
	return false
}

// DecodeEventBlock decodes an event block. The bytes may be a client's or
// a follower's outside input: it never panics or reads past p, every count
// is bounded by the bytes that carry it before anything is allocated for
// it, and a table string is one allocation its events share. Anything but
// the canonical encoding of what it decodes is an error: an event ending
// before it starts, an unknown locus type and leftover bytes among it.
func DecodeEventBlock(p []byte) ([]event.Instance, error) {
	var out []event.Instance
	err := decodeEventBlock(p, func(n int) ([]event.Instance, error) {
		out = make([]event.Instance, n)
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeEventBlockTo decodes a block of exactly len(dst) events into dst,
// setting every field but ID.
func DecodeEventBlockTo(dst []event.Instance, p []byte) error {
	return decodeEventBlock(p, func(n int) ([]event.Instance, error) {
		if n != len(dst) {
			return nil, fmt.Errorf("event block: %d events, want %d", n, len(dst))
		}
		return dst, nil
	})
}

// decodeEventBlock decodes the block p into the slice dst returns for its
// event count, which is bounded by the bytes present before dst is asked.
func decodeEventBlock(p []byte, dst func(n int) ([]event.Instance, error)) error {
	n, p, ok := uvarint(p)
	if !ok {
		return fmt.Errorf("event block: bad event count")
	}
	nstr, p, ok := uvarint(p)
	if !ok || nstr > uint64(len(p)) {
		return fmt.Errorf("event block: bad string count")
	}
	table := make([]string, nstr)
	seen := make(map[string]struct{}, nstr)
	for i := range table {
		var l uint64
		if l, p, ok = uvarint(p); !ok || l > uint64(len(p)) {
			return fmt.Errorf("event block: string %d: truncated", i)
		}
		s := string(p[:l])
		if _, dup := seen[s]; dup {
			return fmt.Errorf("event block: string %d repeats an earlier one", i)
		}
		table[i], seen[s], p = s, struct{}{}, p[l:]
	}
	if n > uint64(len(p)/MinBlockEvent) {
		return fmt.Errorf("event block: %d events in %d bytes", n, len(p))
	}
	out, err := dst(int(n))
	if err != nil {
		return err
	}
	refs := refReader{table: table}
	var start uint64
	for i := range out {
		in := &out[i]
		if in.Name, p, ok = refs.read(p); !ok {
			return fmt.Errorf("event block: event %d: bad name ref", i)
		}
		var d, dur uint64
		if d, p, ok = uvarint(p); !ok {
			return fmt.Errorf("event block: event %d: bad start", i)
		}
		if dur, p, ok = uvarint(p); !ok {
			return fmt.Errorf("event block: event %d: bad duration", i)
		}
		start += uint64(int64(d>>1) ^ -int64(d&1)) // zig-zag, as binary.Varint
		end := start + dur
		if int64(end) < int64(start) {
			return fmt.Errorf("event block: event %d ends before it starts", i)
		}
		in.Start, in.End = time.Unix(0, int64(start)).UTC(), time.Unix(0, int64(end)).UTC()
		if len(p) < 1 {
			return fmt.Errorf("event block: event %d: truncated locus type", i)
		}
		if !locus.Type(p[0]).Valid() {
			return fmt.Errorf("event block: event %d: unknown locus type", i)
		}
		in.Loc.Type = locus.Type(p[0])
		if in.Loc.A, p, ok = refs.read(p[1:]); !ok {
			return fmt.Errorf("event block: event %d: bad location ref", i)
		}
		if in.Loc.B, p, ok = refs.read(p); !ok {
			return fmt.Errorf("event block: event %d: bad location ref", i)
		}
		sec := p
		if in.Attrs, p, err = event.ParseAttrs(p); err != nil {
			return fmt.Errorf("event block: event %d: %v", i, err)
		}
		if !in.Attrs.Spells(sec[:len(sec)-len(p)]) {
			return fmt.Errorf("event block: event %d: attribute section not in canonical form", i)
		}
	}
	if refs.used != len(table) {
		return fmt.Errorf("event block: %d of %d strings unused", len(table)-refs.used, len(table))
	}
	if len(p) != 0 {
		return fmt.Errorf("event block: %d trailing bytes", len(p))
	}
	return nil
}

// refReader reads string table references, holding the table to its
// first-use order: a reference names an entry already used or the next.
type refReader struct {
	table []string
	used  int
}

func (r *refReader) read(p []byte) (s string, rest []byte, ok bool) {
	i, rest, ok := uvarint(p)
	if !ok || i > uint64(r.used) || i >= uint64(len(r.table)) {
		return "", p, false
	}
	if i == uint64(r.used) {
		r.used++
	}
	return r.table[i], rest, true
}

// uvarint reads a minimally encoded uvarint from the front of p.
func uvarint(p []byte) (v uint64, rest []byte, ok bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 || n > 1 && p[n-1] == 0 {
		return 0, p, false
	}
	return v, p[n:], true
}
