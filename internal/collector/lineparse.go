package collector

import (
	"bytes"
	"fmt"
	"net/netip"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Line parsing works directly on the scanner's []byte line — no
// per-line string conversion, no strings.Split garbage. Every primitive
// below is total and exact: it reads the common form of its field in
// place and hands anything else to the stdlib function a string parser
// would call on that one field (strconv, time.Parse, netip,
// bytes.Fields, AliasTable.Canonical), so a parser's values and error
// texts are the stdlib's on every input. reference_test.go keeps string
// parsers written the plain way as the oracle: the FuzzParserParity*
// targets require identical stores, stats and malformed samples.

// scratch is the pooled per-Ingest working memory: the scanner's initial
// buffer, the line arena for order-restored feeds, and the field/key
// buffers the parsers slice into. Nothing in it survives an Ingest call —
// events copy every string they keep — which is exactly what the
// pooling-reuse fuzz seeds check.
type scratch struct {
	scanbuf []byte     // initial bufio.Scanner buffer
	arena   []byte     // line bytes of an order-restored feed
	spans   []lineSpan // line offsets into arena
	fields  [][]byte   // reused field-split result
	key     []byte     // baseline-key building
	lower   []byte     // alias lower-casing
}

type lineSpan struct {
	off, n int
	at     time.Time
}

var scratchPool = sync.Pool{
	New: func() any {
		return &scratch{
			scanbuf: make([]byte, 64*1024),
			fields:  make([][]byte, 0, 16),
		}
	},
}

func (s *scratch) reset() {
	s.arena = s.arena[:0]
	s.spans = s.spans[:0]
	s.fields = s.fields[:0]
	s.key = s.key[:0]
}

// split splits line on sep into the reused fields buffer, with
// strings.Split's semantics (n separators yield n+1 fields).
func (s *scratch) split(line []byte, sep byte) [][]byte {
	f := s.fields[:0]
	for {
		i := bytes.IndexByte(line, sep)
		if i < 0 {
			f = append(f, line)
			break
		}
		f = append(f, line[:i])
		line = line[i+1:]
	}
	s.fields = f
	return f
}

// words is strings.Fields into the reused fields buffer. A line holding a
// non-ASCII byte — it might be a unicode space — goes to bytes.Fields,
// which splits exactly as strings.Fields does.
func (s *scratch) words(b []byte) [][]byte {
	f := s.fields[:0]
	start := -1
	for i, c := range b {
		switch {
		case c >= utf8.RuneSelf:
			return bytes.Fields(b)
		case c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r':
			if start >= 0 {
				f = append(f, b[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		f = append(f, b[start:])
	}
	s.fields = f
	return f
}

// parseInt is strconv.ParseInt(string(b), 10, 64), ok meaning a nil
// error. Up to 18 digits cannot overflow and are summed in place.
func parseInt(b []byte) (int64, bool) {
	d := b
	if len(d) > 0 && (d[0] == '+' || d[0] == '-') {
		d = d[1:]
	}
	if len(d) == 0 {
		return 0, false
	}
	var n int64
	for i, c := range d {
		if c < '0' || c > '9' || i == 18 {
			v, err := strconv.ParseInt(string(b), 10, 64)
			return v, err == nil
		}
		n = n*10 + int64(c-'0')
	}
	if b[0] == '-' {
		n = -n
	}
	return n, true
}

// atoi is strconv.Atoi(string(b)), ok meaning a nil error.
func atoi(b []byte) (int, bool) {
	if v, ok := parseInt(b); ok && int64(int(v)) == v {
		return int(v), true
	}
	v, err := strconv.Atoi(string(b))
	return v, err == nil
}

// pow10 holds the exactly-representable powers of ten used by
// parseFloat's exact division.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseFloat is strconv.ParseFloat(string(b), 64), ok meaning a nil
// error. Plain decimals ("87.5", "-0.25", "940") of at most 15 digits
// are mantissa/10^k with both operands exact, so one correctly-rounded
// division gives ParseFloat's bits; exponents, hex floats, Inf/NaN and
// long mantissas go to ParseFloat itself.
func parseFloat(b []byte) (float64, bool) {
	d := b
	neg := len(d) > 0 && d[0] == '-'
	if len(d) > 0 && (d[0] == '+' || d[0] == '-') {
		d = d[1:]
	}
	var mant uint64
	digits, frac := 0, -1
	for i, c := range d {
		switch {
		case c >= '0' && c <= '9':
			mant = mant*10 + uint64(c-'0')
			digits++
		case c == '.' && frac < 0:
			frac = len(d) - i - 1
		default:
			digits = 16 // not a plain decimal
		}
		if digits > 15 {
			v, err := strconv.ParseFloat(string(b), 64)
			return v, err == nil
		}
	}
	if digits == 0 {
		return 0, false
	}
	v := float64(mant)
	if frac > 0 {
		v /= pow10[frac]
	}
	if neg {
		v = -v
	}
	return v, true
}

var monthNum = map[string]time.Month{
	"Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
	"Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}

// mdays is days-per-month as time.Parse validates a year-less stamp:
// the zero year is a leap year, so Feb 29 parses.
var mdays = [...]int{0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

func digit2(b []byte) (int, bool) {
	if b[0] < '0' || b[0] > '9' || b[1] < '0' || b[1] > '9' {
		return 0, false
	}
	return int(b[0]-'0')*10 + int(b[1]-'0'), true
}

// syslogLayout is the year-less RFC 3164 stamp.
const syslogLayout = "Jan _2 15:04:05"

// syslogStamp reads a syslog line's 15-byte stamp as the wall time it
// names in year (UTC, normalized by time.Date). The strict form — exact
// month case, space- or zero-padded day, two-digit clock fields — is
// read in place; any other goes to time.Parse.
func syslogStamp(b []byte, year int) (time.Time, error) {
	if m, d, hh, mm, ss, ok := strictSyslogStamp(b); ok {
		return time.Date(year, m, d, hh, mm, ss, 0, time.UTC), nil
	}
	ts, err := time.Parse(syslogLayout, string(b))
	if err != nil {
		return time.Time{}, fmt.Errorf("bad timestamp %q: %v", b, err)
	}
	return time.Date(year, ts.Month(), ts.Day(), ts.Hour(), ts.Minute(), ts.Second(), 0, time.UTC), nil
}

func strictSyslogStamp(b []byte) (m time.Month, d, hh, mm, ss int, ok bool) {
	if len(b) != 15 || b[3] != ' ' || b[6] != ' ' || b[9] != ':' || b[12] != ':' {
		return 0, 0, 0, 0, 0, false
	}
	m, okm := monthNum[string(b[:3])] // no-alloc map probe
	if !okm {
		return 0, 0, 0, 0, 0, false
	}
	switch {
	case b[4] == ' ' && b[5] >= '0' && b[5] <= '9':
		d = int(b[5] - '0')
	default:
		var okd bool
		if d, okd = digit2(b[4:6]); !okd {
			return 0, 0, 0, 0, 0, false
		}
	}
	var ok1, ok2, ok3 bool
	hh, ok1 = digit2(b[7:9])
	mm, ok2 = digit2(b[10:12])
	ss, ok3 = digit2(b[13:15])
	if !ok1 || !ok2 || !ok3 || d < 1 || d > mdays[m] || hh > 23 || mm > 59 || ss > 59 {
		return 0, 0, 0, 0, 0, false
	}
	return m, d, hh, mm, ss, true
}

// parseRFC3339 is time.Parse(time.RFC3339, string(b)), ok meaning a nil
// error. The 20-byte Zulu form "2006-01-02T15:04:05Z" is read in place;
// offsets, fractional seconds and the rest go to time.Parse.
func parseRFC3339(b []byte) (time.Time, bool) {
	if t, ok := zuluRFC3339(b); ok {
		return t, true
	}
	t, err := time.Parse(time.RFC3339, string(b))
	return t, err == nil
}

func zuluRFC3339(b []byte) (time.Time, bool) {
	if len(b) != 20 || b[4] != '-' || b[7] != '-' || b[10] != 'T' ||
		b[13] != ':' || b[16] != ':' || b[19] != 'Z' {
		return time.Time{}, false
	}
	y1, ok0 := digit2(b[0:2])
	y2, ok1 := digit2(b[2:4])
	mo, ok2 := digit2(b[5:7])
	d, ok3 := digit2(b[8:10])
	hh, ok4 := digit2(b[11:13])
	mm, ok5 := digit2(b[14:16])
	ss, ok6 := digit2(b[17:19])
	if !ok0 || !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || !ok6 {
		return time.Time{}, false
	}
	y := y1*100 + y2
	if mo < 1 || mo > 12 || d < 1 || hh > 23 || mm > 59 || ss > 59 {
		return time.Time{}, false
	}
	t := time.Date(y, time.Month(mo), d, hh, mm, ss, 0, time.UTC)
	if t.Day() != d || t.Month() != time.Month(mo) { // Feb 30 etc. normalized
		return time.Time{}, false
	}
	return t, true
}

// canonical is AliasTable.Canonical over raw feed bytes: an already
// normalized or upper-case ASCII alias resolves without allocating, and
// everything else — IP-address references, non-ASCII, unknown devices —
// takes Canonical itself, with its value or its error.
func (c *Collector) canonical(ref []byte) (string, error) {
	name, lower, ok := c.Aliases.CanonicalBytes(ref, c.scr.lower)
	c.scr.lower = lower
	if ok {
		return name, nil
	}
	return c.Aliases.Canonical(string(ref))
}

// addrCached is netip.ParseAddr(string(b)) through a per-collector cache,
// so repeated references (loopbacks, interface and neighbor addresses)
// parse and allocate once.
func (c *Collector) addrCached(b []byte) (netip.Addr, bool) {
	if a, ok := c.addrCache[string(b)]; ok { // no-alloc map probe
		return a, true
	}
	s := string(b)
	a, err := netip.ParseAddr(s)
	if err != nil {
		// Negative entries are not cached: garbage fields are unbounded.
		return netip.Addr{}, false
	}
	if c.addrCache == nil {
		c.addrCache = map[string]netip.Addr{}
	}
	c.addrCache[s] = a
	return a, true
}
