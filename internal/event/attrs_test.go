package event

import (
	"encoding/binary"
	"reflect"
	"testing"
	"unsafe"
)

// section hand-assembles an attribute section: pairs in the order given,
// duplicates and all, every uvarint pad bytes longer than it need be.
func section(pad int, pairs ...string) []byte {
	b := paddedUvarint(nil, uint64(len(pairs)/2), pad)
	for _, s := range pairs {
		b = append(paddedUvarint(b, uint64(len(s)), pad), s...)
	}
	return b
}

// paddedUvarint appends v in a non-minimal encoding pad bytes longer
// than necessary (pad 0 is binary.AppendUvarint).
func paddedUvarint(b []byte, v uint64, pad int) []byte {
	b = binary.AppendUvarint(b, v)
	for ; pad > 0; pad-- {
		b[len(b)-1] |= 0x80
		b = append(b, 0)
	}
	return b
}

// TestAttrsCanonical: whatever framing-valid bytes an attribute set
// arrives in — any key order, duplicates, padded uvarints — it parses to
// the one canonical value NewAttrs builds, and that value is a fixed
// point of encode → parse.
func TestAttrsCanonical(t *testing.T) {
	want := NewAttrs(map[string]string{"a": "1", "b": "", "msg": "x y"})
	for name, sec := range map[string][]byte{
		"canonical":     section(0, "a", "1", "b", "", "msg", "x y"),
		"unsorted":      section(0, "msg", "x y", "b", "", "a", "1"),
		"duplicate":     section(0, "a", "stale", "b", "", "msg", "x y", "a", "1"),
		"adjacent dups": section(0, "a", "stale", "a", "1", "b", "", "msg", "x y"),
		"padded":        section(2, "a", "1", "b", "", "msg", "x y"),
	} {
		got, rest, err := ParseAttrs(append(sec, 0xAA))
		if err != nil || len(rest) != 1 || rest[0] != 0xAA {
			t.Fatalf("%s: ParseAttrs = rest %x, err %v", name, rest, err)
		}
		if got != want {
			t.Errorf("%s: parsed %q, want %q", name, got.sec, want.sec)
		}
		if got.Spells(sec) != (name == "canonical") {
			t.Errorf("%s: Spells(%x) = %v", name, sec, got.Spells(sec))
		}
		again, _, err := ParseAttrs(got.AppendSection(nil))
		if err != nil || again != got {
			t.Errorf("%s: encode → parse is not a fixed point: %q, %v", name, again.sec, err)
		}
	}
	if want.Len() != 3 || want.Get("a") != "1" || want.Get("b") != "" || want.Get("msg") != "x y" || want.Get("zz") != "" {
		t.Errorf("accessors disagree with %v", want.Map())
	}
	if !reflect.DeepEqual(want.Map(), map[string]string{"a": "1", "b": "", "msg": "x y"}) {
		t.Errorf("Map = %v", want.Map())
	}

	// The empty set has one form too: nil map, empty map, a zero count
	// however padded, and the zero value all are it, and it encodes as
	// the single byte 0.
	for name, a := range map[string]Attrs{"nil map": NewAttrs(nil), "empty map": NewAttrs(map[string]string{})} {
		if a != (Attrs{}) {
			t.Errorf("%s: not the zero Attrs: %q", name, a.sec)
		}
	}
	for _, sec := range [][]byte{{0}, {0x80, 0}} {
		if a, rest, err := ParseAttrs(sec); err != nil || a != (Attrs{}) || len(rest) != 0 {
			t.Errorf("ParseAttrs(%x) = %q, rest %x, %v", sec, a.sec, rest, err)
		}
		if (Attrs{}).Spells(sec) != (len(sec) == 1) {
			t.Errorf("the empty set spelled as %x: %v", sec, (Attrs{}).Spells(sec))
		}
	}
	if z := (Attrs{}); z.Len() != 0 || z.Map() != nil || z.Get("a") != "" || string(z.AppendSection(nil)) != "\x00" {
		t.Errorf("zero Attrs: len %d, map %v, section %x", z.Len(), z.Map(), z.AppendSection(nil))
	}

	for name, tc := range map[string]struct {
		sec  []byte
		want error
	}{
		"empty":           {nil, ErrAttrCount},
		"torn count":      {[]byte{0x80}, ErrAttrCount},
		"count past data": {[]byte{9, 1, 'a', 1, 'b'}, ErrAttrCount},
		"torn key":        {[]byte{1, 5, 'a'}, ErrAttrKey},
		"missing value":   {[]byte{1, 1, 'a'}, ErrAttrValue},
		"torn value":      {[]byte{2, 1, 'a', 1, 'b', 1, 'c', 7, 'd'}, ErrAttrValue},
		"overlong length": {[]byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 2}, ErrAttrKey},
	} {
		if _, _, err := ParseAttrs(tc.sec); err != tc.want {
			t.Errorf("%s: err %v, want %v", name, err, tc.want)
		}
	}
}

// TestInstanceSizeClass: the packed attributes are a 16-byte header, so
// an Instance still allocates from the 128-byte size class.
func TestInstanceSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Instance{}); sz > 128 {
		t.Errorf("unsafe.Sizeof(event.Instance{}) = %d, want ≤ 128", sz)
	}
}

// TestAttrsAllocations: an event's attributes cost one allocation however
// they arrive (built from a map, or a canonical section adopted), and
// reading one costs none.
func TestAttrsAllocations(t *testing.T) {
	m := map[string]string{"link": "link-0042", "metric": "65535"}
	a := NewAttrs(m)
	sec := a.AppendSection(nil)
	for what, tc := range map[string]struct {
		want float64
		fn   func()
	}{
		"NewAttrs":   {1, func() { a = NewAttrs(m) }},
		"ParseAttrs": {1, func() { a, _, _ = ParseAttrs(sec) }},
		"Get":        {0, func() { _ = a.Get("metric") }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.want {
			t.Errorf("%s: %v allocations, want %v", what, got, tc.want)
		}
	}
}

// FuzzAttrs parses count + arbitrary bytes as an attribute section:
// ParseAttrs must never panic or read past the buffer, and what it
// accepts must be canonical — a fixed point of encode → parse whose Get
// agrees with its Map.
func FuzzAttrs(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(3), section(0, "a", "1", "b", "", "msg", "x y")[1:])
	f.Add(uint64(3), section(0, "b", "1", "a", "2", "b", "3")[1:])
	f.Add(uint64(1), []byte{0x81, 0, 'k', 0x80, 0})
	f.Add(uint64(1)<<62, []byte{1, 'a', 1, 'b'})
	f.Fuzz(func(t *testing.T, count uint64, pairs []byte) {
		buf := append(binary.AppendUvarint(nil, count), pairs...)
		// The capacity ends where the data does: a read past the section
		// is a slice-bounds panic, not a silent read of a neighbour.
		a, rest, err := ParseAttrs(buf[:len(buf):len(buf)])
		if err != nil {
			return
		}
		if len(rest) > len(pairs) {
			t.Fatalf("rest is %d bytes of a %d-byte pair area", len(rest), len(pairs))
		}
		enc := a.AppendSection(nil)
		again, rest2, err := ParseAttrs(enc)
		if err != nil || len(rest2) != 0 || again != a {
			t.Fatalf("not a fixed point: %x parsed to %q, re-parsed to %q (rest %x, err %v)", buf, a.sec, again.sec, rest2, err)
		}
		m := a.Map()
		if len(m) != a.Len() || uint64(len(m)) > count {
			t.Fatalf("Map has %d entries, Len %d, declared %d", len(m), a.Len(), count)
		}
		for k, v := range m {
			if a.Get(k) != v {
				t.Fatalf("Get(%q) = %q, Map has %q", k, a.Get(k), v)
			}
		}
		if NewAttrs(m) != a {
			t.Fatalf("NewAttrs(Map()) = %q, want %q", NewAttrs(m).sec, a.sec)
		}
	})
}
