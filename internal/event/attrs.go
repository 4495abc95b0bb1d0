package event

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sort"
)

// Attrs is the "additional info" of an event instance: an immutable set
// of key/value strings, held as the attribute section the wire and WAL
// codecs write at the end of every event —
//
//	uvarint n | n × (uvarint len | key | uvarint len | value)
//
// in its one canonical form: pairs sorted by key, keys distinct, every
// uvarint minimal. Equal sets are therefore ==, an encoder appends the
// bytes as they are (AppendSection), and a stored event pays one
// pointer-free allocation for its attributes, none when it has none.
// The zero value is the empty set.
type Attrs struct {
	sec string // "" for the empty set, never "\x00"
}

// The ways a section can be malformed. The codecs word their own
// messages around these (a key and a value fail with the same text), so
// compare with ==.
var (
	ErrAttrCount = errors.New("truncated attribute count")
	ErrAttrKey   = errors.New("truncated string")
	ErrAttrValue = errors.New("truncated string")
)

// NewAttrs packs m.
func NewAttrs(m map[string]string) Attrs {
	if len(m) == 0 {
		return Attrs{}
	}
	// Both scratch slices stay on the stack for the usual 1–3 short
	// attributes; the string conversion is the one allocation.
	keys := make([]string, 0, 8)
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := make([]byte, 0, 128)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(appendString(b, k), m[k])
	}
	return Attrs{string(b)}
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// ParseAttrs reads one attribute section from the front of p and returns
// what follows it. Any framing-valid section is accepted — keys in any
// order, duplicates (the last wins), padded uvarints — and comes back
// canonical; one that already is canonical is adopted with a single copy.
// It never reads past p, and what it allocates is bounded by len(p).
func ParseAttrs(p []byte) (a Attrs, rest []byte, err error) {
	n, i := uvarint(p, 0)
	if i < 0 || n > uint64(len(p)) {
		return Attrs{}, p, ErrAttrCount
	}
	canonical := minimal(p, 0, i)
	var prev []byte
	for j := uint64(0); j < n; j++ {
		klo, khi := str(p, i)
		if khi < 0 {
			return Attrs{}, p, ErrAttrKey
		}
		vlo, vhi := str(p, khi)
		if vhi < 0 {
			return Attrs{}, p, ErrAttrValue
		}
		key := p[klo:khi]
		canonical = canonical && minimal(p, i, klo) && minimal(p, khi, vlo) &&
			(j == 0 || bytes.Compare(prev, key) < 0)
		prev, i = key, vhi
	}
	switch {
	case n == 0:
		return Attrs{}, p[i:], nil
	case canonical:
		return Attrs{string(p[:i])}, p[i:], nil
	}
	m := make(map[string]string, n)
	walk(string(p[:i]), func(k, v string) bool {
		m[k] = v
		return true
	})
	return NewAttrs(m), p[i:], nil
}

// AppendSection appends the canonical section to b: what ParseAttrs
// reads, and byte for byte what the codecs have always written.
func (a Attrs) AppendSection(b []byte) []byte {
	if a.sec == "" {
		return append(b, 0)
	}
	return append(b, a.sec...)
}

// Spells reports whether sec is the section AppendSection writes for a —
// for a decoder that accepts one spelling of a set and no other.
func (a Attrs) Spells(sec []byte) bool {
	if a.sec == "" {
		return len(sec) == 1 && sec[0] == 0
	}
	return string(sec) == a.sec
}

// SectionLen returns the length of the section AppendSection writes.
func (a Attrs) SectionLen() int { return max(len(a.sec), 1) }

// Len returns the number of attributes.
func (a Attrs) Len() int {
	n, _ := uvarint(a.sec, 0)
	return int(n)
}

// Get returns the named attribute or "".
func (a Attrs) Get(key string) (value string) {
	walk(a.sec, func(k, v string) bool {
		if k == key {
			value = v
		}
		return k < key
	})
	return value
}

// Map returns the attributes as a fresh map, nil for the empty set.
func (a Attrs) Map() map[string]string {
	if a.sec == "" {
		return nil
	}
	m := make(map[string]string, a.Len())
	walk(a.sec, func(k, v string) bool {
		m[k] = v
		return true
	})
	return m
}

// walk calls fn for each pair of the framing-valid section s (or none,
// for ""), in section order, until it returns false.
func walk(s string, fn func(k, v string) bool) {
	for n, i := uvarint(s, 0); n > 0; n-- {
		klo, khi := str(s, i)
		vlo, vhi := str(s, khi)
		if !fn(s[klo:khi], s[vlo:vhi]) {
			return
		}
		i = vhi
	}
}

type octets interface{ ~string | ~[]byte }

// uvarint reads the uvarint at s[i:] and returns the offset after it,
// -1 where binary.Uvarint would report truncation or overflow.
func uvarint[T octets](s T, i int) (v uint64, next int) {
	for shift := uint(0); i < len(s) && shift < 64; i, shift = i+1, shift+7 {
		c := s[i]
		if c < 0x80 {
			if shift == 63 && c > 1 {
				return 0, -1
			}
			return v | uint64(c)<<shift, i + 1
		}
		v |= uint64(c&0x7f) << shift
	}
	return 0, -1
}

// str locates the length-prefixed string at s[i:] as s[lo:hi]; hi is -1
// when it does not fit in s.
func str[T octets](s T, i int) (lo, hi int) {
	n, lo := uvarint(s, i)
	if lo < 0 || n > uint64(len(s)-lo) {
		return 0, -1
	}
	return lo, lo + int(n)
}

// minimal reports whether the uvarint occupying s[lo:hi] is in its
// shortest encoding.
func minimal(s []byte, lo, hi int) bool { return hi-lo == 1 || s[hi-1] != 0 }
