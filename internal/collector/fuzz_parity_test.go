package collector

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"grca/internal/store"
	"grca/internal/testnet"
	"grca/internal/wal"
)

// The differential parity harness: every fuzz input is fed — as a whole
// multi-line feed — to two collectors over the same topology, one
// through Ingest and the byte parsers, one through refIngest and the
// reference string parsers (reference_test.go). The two runs must agree
// on everything observable: the store digest (event-for-event, ID-for-ID
// byte identity), per-source stats, quarantine decisions, and the
// malformed samples with their exact error strings. Multi-line inputs are
// the point — they exercise scratch-buffer and arena reuse across lines,
// the class of aliasing bug pooling introduces.
func parityCheck(t *testing.T, source string, data []byte, generic bool) {
	t.Helper()
	if len(data) > 1<<16 {
		data = data[:1<<16]
	}
	n := testnet.Build(t.Fatalf)
	open := func() (*Collector, *store.Memory) {
		st := store.New()
		c := New(n.Topo, st, 2010)
		c.WindowStart = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
		c.WindowEnd = time.Date(2010, 1, 8, 0, 0, 0, 0, time.UTC)
		c.EmitGenericSignatures = generic
		return c, st
	}
	got, stGot := open()
	ref, stRef := open()

	errG := got.Ingest(source, bytes.NewReader(data))
	errR := ref.refIngest(source, bytes.NewReader(data))
	if (errG == nil) != (errR == nil) || (errG != nil && errG.Error() != errR.Error()) {
		t.Fatalf("ingest errors diverged: got=%v ref=%v", errG, errR)
	}
	if err := got.Finalize(); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	if err := ref.Finalize(); err != nil {
		t.Fatalf("ref finalize: %v", err)
	}

	if dG, dR := wal.StoreDigest(stGot), wal.StoreDigest(stRef); dG != dR {
		insG, _ := stGot.ScanAfter("", -1, 1<<30)
		insR, _ := stRef.ScanAfter("", -1, 1<<30)
		for i := 0; i < max(len(insG), len(insR)); i++ {
			var g, r any
			if i < len(insG) {
				g = *insG[i]
			}
			if i < len(insR) {
				r = *insR[i]
			}
			if !reflect.DeepEqual(g, r) {
				t.Errorf("event %d: got=%+v ref=%+v", i, g, r)
			}
		}
		t.Fatalf("store digest diverged: got=%s ref=%s (%d vs %d events)",
			dG, dR, len(insG), len(insR))
	}
	if got.Malformed.Count != ref.Malformed.Count ||
		!reflect.DeepEqual(got.Malformed.Samples, ref.Malformed.Samples) {
		t.Fatalf("malformed diverged:\ngot %d %q\nref %d %q",
			got.Malformed.Count, got.Malformed.Samples,
			ref.Malformed.Count, ref.Malformed.Samples)
	}
	if !reflect.DeepEqual(got.Summary(), ref.Summary()) {
		t.Fatalf("summaries diverged:\ngot %+v\nref %+v", got.Summary(), ref.Summary())
	}
}

// syslogParitySeeds are the syslog seeds of both syslog targets.
func syslogParitySeeds(f *testing.F) {
	f.Add([]byte("Jan  2 06:00:00 chi-per1 %LINK-3-UPDOWN: Interface to-custB, changed state to down\n" +
		"Jan  2 06:00:40 chi-per1 %LINK-3-UPDOWN: Interface to-custB, changed state to up\n"))
	f.Add([]byte("Jan  2 06:00:01 CHI-PER1.NET.EXAMPLE.COM %LINEPROTO-5-UPDOWN: Line protocol on Interface to-chi-cr1, changed state to down"))
	// Pooling reuse: distinct interface names and reasons on consecutive
	// lines must not alias each other's bytes.
	f.Add([]byte("Jan  2 06:00:00 chi-per1 %BGP-5-ADJCHANGE: neighbor 10.1.0.10 Down Interface flap\n" +
		"Jan  2 06:00:05 chi-per1 %BGP-5-ADJCHANGE: neighbor 10.1.0.10 Up\n" +
		"Jan  2 06:00:09 nyc-per1 %BGP-5-ADJCHANGE: neighbor 10.2.0.10 Down hold time expired\n"))
	f.Add([]byte("Jan  2 06:00:00 chi-per1 %BGP-5-NOTIFICATION: sent to neighbor 10.1.0.10 4/0 (hold time expired)"))
	f.Add([]byte("Jan  2 06:00:00 chi-per1 %PIM-5-NBRCHG: VRF custA: neighbor 10.255.0.9 DOWN"))
	f.Add([]byte("Jan  2 06:00:00 chi-per1 %SYS-5-RESTART: System restarted\n" +
		"Jan  2 06:00:01 chi-per1 %SYS-1-CPURISINGTHRESHOLD: CPU at 97%"))
	f.Add([]byte("jan  2 06:00:00 chi-per1 %SYS-5-RESTART: lower-case month parses via time.Parse"))
	f.Add([]byte("Feb 29 06:00:00 chi-per1 %SYS-5-RESTART: leap-ish day\nFeb 30 06:00:00 chi-per1 %SYS-5-RESTART: bad day"))
	f.Add([]byte("Dec 31 20:00:00 chi-per1 %SYS-5-RESTART: year wrap"))
	f.Add([]byte("Jan 02 15:04:05 chi-per1 %UNKNOWN-7-TAG: noise"))
	f.Add([]byte("Jan  2 15:04:05 chi-per1   %SYS-5-RESTART:   padded   \n\n# comment\nshort"))
	f.Add([]byte("Jan  2 15:04:05 unknown-device %SYS-5-RESTART: x\nJan  2 15:04:05 chi-per1\t%SYS-5-RESTART: tab"))
	// PIM in its VRF (PE loopback) and uplink (directly connected core)
	// forms, each going down and up, plus the malformed bodies.
	f.Add([]byte("Jan  2 06:00:00 chi-per1 %PIM-5-NBRCHG: VRF custA: neighbor 10.255.0.3 DOWN\n" +
		"Jan  2 06:01:00 chi-per1 %PIM-5-NBRCHG: VRF custA: neighbor 10.255.0.3 UP\n" +
		"Jan  2 07:00:00 chi-per1 %PIM-5-NBRCHG: neighbor 10.0.0.46 DOWN on interface to-chi-cr1\n" +
		"Jan  2 07:00:30 chi-per1 %PIM-5-NBRCHG: neighbor 10.0.0.46 UP on interface to-chi-cr1\n" +
		"Jan  2 07:01:00 chi-per1 %PIM-5-NBRCHG: neighbor 10.9.9.9 DOWN on interface to-chi-cr1\n" +
		"Jan  2 07:02:00 chi-per1 %PIM-5-NBRCHG: VRF custA: neighbor 10.255.0.3 SIDEWAYS\n" +
		"Jan  2 07:03:00 chi-per1 %PIM-5-NBRCHG: VRF custA:\tneighbor bogus DOWN\n"))
	// NOTIFICATION sent, received and with the hold timer, and without a
	// usable neighbor.
	f.Add([]byte("Jan  2 06:00:00 chi-per1 %BGP-5-NOTIFICATION: received from neighbor 10.1.0.10 6/4 (administrative reset)\n" +
		"Jan  2 06:00:10 chi-per1 %BGP-5-NOTIFICATION: sent to neighbor 10.1.0.10 6/2 (peer de-configured)\n" +
		"Jan  2 06:00:20 nyc-per1 %BGP-5-NOTIFICATION: received from neighbor 10.2.0.10 4/0 (hold time expired)\n" +
		"Jan  2 06:00:30 chi-per1 %BGP-5-NOTIFICATION: sent to neighbor 10.1.0.x 4/0\n" +
		"Jan  2 06:00:40 chi-per1 %BGP-5-NOTIFICATION: no peer named\n"))
	// Month case, non-ASCII device names and spaces, tabs inside fields.
	f.Add([]byte("JAN  2 06:00:00 chi-per1 %SYS-5-RESTART: upper-case month\n" +
		"Jan  2 06:00:00 chi-pér1 %SYS-5-RESTART: non-ASCII device\n" +
		"Jan  2 06:00:00 CHI-PER1\u00a0%SYS-5-RESTART: no-break space\n" +
		"Jan  2 06:00:00 chi-per1 %BGP-5-ADJCHANGE: neighbor\t10.1.0.10 Down\tInterface  flap\u00a0now\n" +
		"Jan  2 06:00:00 chi-per1 %LINK-3-UPDOWN: Interface to-custB, changed state to\tdown\u2003\n"))
}

func FuzzParserParitySyslog(f *testing.F) {
	syslogParitySeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { parityCheck(t, SourceSyslog, data, false) })
}

// FuzzParserParitySyslogGeneric is FuzzParserParitySyslog in the
// correlation-mining mode (EmitGenericSignatures), where every tagged
// line also yields its "syslog:<tag>" event, malformed body or not.
func FuzzParserParitySyslogGeneric(f *testing.F) {
	syslogParitySeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { parityCheck(t, SourceSyslog, data, true) })
}

func FuzzParserParitySNMP(f *testing.F) {
	f.Add([]byte("1262304000,chi-per1,cpu5min,,87.5\n1262304000,CHI-CR1,ifutil,to-chi-cr2,92.0\n" +
		"1262304000,chi-cr1,iferrors,to-chi-cr2,340\n"))
	f.Add([]byte("1262304300,chi-per1,cpu5min,,12.5\n1262304000,chi-per1,cpu5min,,99\n")) // out of order
	f.Add([]byte("1262304000,chi-per1,cpu5min,,1e2\n+1262304000,chi-per1,cpu5min,,87.5\n"))
	f.Add([]byte("1262304000,chi-per1,ifutil,,92.0\nbad,chi-per1,cpu5min,,87.5\n1262304000,nobody,cpu5min,,87.5"))
	f.Add([]byte("1262304000,10.255.0.1,cpu5min,,97.25\n1262304000,chi-per1,bogus,,1\n1262304000,chi-per1,cpu5min,87.5"))
	f.Add([]byte("9223372036854775808,chi-per1,cpu5min,,87.5\n-62135596800,chi-per1,cpu5min,,87.5"))
	// Exponents, 16-digit and hex floats, Inf/NaN, a 19-digit epoch.
	f.Add([]byte("1262304000,chi-per1,cpu5min,,8.75E1\n1262304300,chi-per1,cpu5min,,87.50000000000001\n" +
		"1262304600,chi-cr1,ifutil,to-chi-cr2,9200000000000000e-14\n1262304900,chi-cr1,iferrors,to-chi-cr2,0x1.5p8\n" +
		"1262305200,chi-per1,cpu5min,,+Inf\n1262305500,chi-per1,cpu5min,,NaN\n1262305800,chi-per1,cpu5min,,1e400\n" +
		"0001262306100,chi-per1,cpu5min,,99\n"))
	// Non-ASCII device names, tabs inside fields.
	f.Add([]byte("1262304000,chi-pér1,cpu5min,,87.5\n1262304000,\u00a0chi-per1,cpu5min,,87.5\n" +
		"1262304000,chi-per1\t,cpu5min,,87.5\n1262304000,chi-per1,cpu5min,,\t87.5\n1262304000\t,chi-per1,cpu5min,,87.5\n"))
	f.Fuzz(func(t *testing.T, data []byte) { parityCheck(t, SourceSNMP, data, false) })
}

func FuzzParserParityBGPMon(f *testing.F) {
	f.Add([]byte("1262304000|A|198.51.100.0/24|10.255.0.6|100|3|0|0\n" +
		"1262307600|W|198.51.100.0/24|10.255.0.6\n"))
	f.Add([]byte("1262307600|W|198.51.100.0/24|chi-per1|extra\n1262304000|A|198.51.100.0/24|chi-per1|100|3|0|0"))
	f.Add([]byte("1262304000|A|198.51.100.0/24|10.255.0.6|100|3|0\n1262304000|X|198.51.100.0/24|10.255.0.6\n" +
		"bad|A|198.51.100.0/24|10.255.0.6|100|3|0|0\n1262304000|A|not-a-prefix|10.255.0.6|100|3|0|0"))
	// Out-of-order announces over two prefixes: order restoration must
	// agree byte-for-byte between the string and arena buffering paths.
	f.Add([]byte("1262307600|A|198.51.100.0/24|10.255.0.6|100|3|0|0\n" +
		"1262304000|A|203.0.113.0/24|10.255.0.6|100|3|0|0\n" +
		"1262305000|W|198.51.100.0/24|10.255.0.6\n"))
	f.Add([]byte("1262304000|A|198.51.100.0/24|unknown|100|3|0|0\n1262304000|A|198.51.100.0/24|10.255.0.6|+1|-2|0|0"))
	// Non-ASCII and tab-padded egress references, 19-digit numbers.
	f.Add([]byte("1262304000|A|198.51.100.0/24|CHI-PÉR1|100|3|0|0\n1262304100|A|198.51.100.0/24|\t10.255.0.6|100|3|0|0\n" +
		"1262304200|A|198.51.100.0/24|chi-per1\u00a0|100|3|0|0\n1262304300|A|198.51.100.0/24|chi-per1|1000000000000000000|3|0|0\n" +
		"1262304400000000000|W|198.51.100.0/24|chi-per1\n1262304500|A|198.51.100.0/24 |chi-per1|100|3|0|0\n"))
	f.Fuzz(func(t *testing.T, data []byte) { parityCheck(t, SourceBGPMon, data, false) })
}

func FuzzParserParityOSPFMon(f *testing.F) {
	f.Add([]byte("2010-01-01T00:00:00Z 10.255.0.1 10.0.0.1 metric 10 initial\n" +
		"2010-01-02T03:04:05Z 10.255.0.1 10.0.0.1 metric 65535\n" +
		"2010-01-02T04:00:00Z 10.255.0.1 10.0.0.1 metric 10\n"))
	f.Add([]byte("2010-01-02T03:04:05-05:00 10.255.0.1 10.0.0.1 metric 20\n" + // offset form: time.Parse stamp and parse
		"2010-01-02T03:04:05Z 10.255.0.1 10.0.0.1 metric 21\n"))
	f.Add([]byte("2010-01-02T03:04:05Z  10.255.0.1 10.0.0.1 metric 10\n" + // double space
		"2010-01-02T03:04:05Z 10.255.0.1 10.0.0.1\tmetric 10\n" + // tab
		"2010-02-30T03:04:05Z 10.255.0.1 10.0.0.1 metric 10\n")) // bad day
	f.Add([]byte("2010-01-02T03:04:05Z bad-addr 10.0.0.1 metric 10\n2010-01-02T03:04:05Z 10.255.0.1 10.9.9.9 metric 10\n" +
		"2010-01-02T03:04:05Z 10.255.0.1 10.0.0.1 metric -1\n2010-01-02T03:04:05Z 10.255.0.1 10.0.0.1 weight 10\n" +
		"2010-01-02T03:04:05Z 10.255.0.1 10.0.0.1 metric 10 bogus"))
	// RFC 3339 offsets and fractions out of order, a no-break space and an
	// em space as separators, odd metric spellings.
	f.Add([]byte("2010-01-02T06:00:00+01:00 10.255.0.1 10.0.0.1 metric 30\n" +
		"2010-01-02T04:30:00.5Z 10.255.0.1 10.0.0.1 metric 31\n" +
		"2010-01-02T05:30:00z 10.255.0.1 10.0.0.1 metric 32\n" +
		"2010-01-02T07:00:00Z\u00a010.255.0.1 10.0.0.1 metric 33\n" +
		"2010-01-02T08:00:00Z 10.255.0.1\u200310.0.0.1 metric 34\n" +
		"2010-01-02T09:00:00Z 10.255.0.1 10.0.0.1 metric +0035\n" +
		"2010-01-02T10:00:00Z 10.255.0.1 10.0.0.1 metric 9223372036854775808\n"))
	f.Fuzz(func(t *testing.T, data []byte) { parityCheck(t, SourceOSPFMon, data, false) })
}

func FuzzParserParityPerfMon(f *testing.F) {
	// Enough samples to arm the rolling baseline, then a breach: the
	// baseline bookkeeping must agree across parsers.
	f.Add([]byte("1262304000,nyc-per1,chi-per1,23.1,0.0,940\n" +
		"1262304300,nyc-per1,chi-per1,23.0,0.0,941\n" +
		"1262304600,nyc-per1,chi-per1,23.2,0.0,939\n" +
		"1262304900,nyc-per1,chi-per1,80.5,2.5,200\n"))
	f.Add([]byte("1262304300,nyc-per1,chi-per1,23.0,0.0,941\n1262304000,NYC-PER1,CHI-PER1,23.1,0.0,940\n")) // out of order + case
	f.Add([]byte("1262304000,nyc-per1,chi-per1,2.31e1,0.0,940\n1262304000,nyc-per1,nobody,23.1,0.0,940\n" +
		"1262304000,nyc-per1,chi-per1,23.1,0.0\n1262304000,nyc-per1,chi-per1,23.1,0.0,940,extra"))
	f.Add([]byte("# comment\n\n1262304000,10.255.0.2,10.255.0.1,0.5,0.25,100.125"))
	// Exponent and 16-digit floats arming and breaching the baseline, a
	// non-ASCII device name, tabs inside fields.
	f.Add([]byte("1262304000,nyc-per1,chi-per1,2.3E1,0e0,9.4e2\n" +
		"1262304300,nyc-per1,chi-per1,23.00000000000001,0.000000000000001,940.0000000000001\n" +
		"1262304600,nyc-per1,chi-per1,23,0,940\n" +
		"1262304900,nyc-per1,chi-per1,8.05e1,2.5,2e2\n" +
		"1262305200,nyc-pér1,chi-per1,23.1,0.0,940\n" +
		"1262305500,\tnyc-per1,chi-per1 ,23.1,0.0,940\n" +
		"1262305800,nyc-per1,chi-per1,23.1,\t0.0,940\n"))
	f.Fuzz(func(t *testing.T, data []byte) { parityCheck(t, SourcePerfMon, data, false) })
}
