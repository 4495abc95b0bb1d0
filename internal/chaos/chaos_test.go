package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"grca/internal/collector"
	"grca/internal/platform"
)

func syslogFeed(n int) string {
	var b strings.Builder
	base := time.Date(2010, 1, 5, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		at := base.Add(time.Duration(i) * 37 * time.Second)
		dev := fmt.Sprintf("r%d.pop%02d", i%5, i%3)
		fmt.Fprintf(&b, "%s %s %%SYS-5-TEST: unique line %d\n", at.Format("Jan _2 15:04:05"), dev, i)
	}
	return b.String()
}

func TestFeedDeterministicAndSeedSensitive(t *testing.T) {
	text := syslogFeed(500)
	cfg := Config{Seed: 42, Faults: AllFaults()}
	a := New(cfg).Feed(collector.SourceSyslog, text)
	b := New(cfg).Feed(collector.SourceSyslog, text)
	if a != b {
		t.Fatal("same seed produced different mutations")
	}
	cfg.Seed = 43
	if c := New(cfg).Feed(collector.SourceSyslog, text); c == a {
		t.Fatal("different seed produced identical mutations")
	}
}

func TestSkewConsistentPerDeviceAndBounded(t *testing.T) {
	text := syslogFeed(300)
	inj := New(Config{Seed: 7, Faults: []Fault{FaultSkew}})
	out := inj.Feed(collector.SourceSyslog, text)

	orig := splitLines(text)
	got := splitLines(out)
	if len(got) != len(orig) {
		t.Fatalf("skew changed line count: %d != %d", len(got), len(orig))
	}
	offsets := map[string]time.Duration{}
	skewed := 0
	for i := range orig {
		if got[i][15:] != orig[i][15:] {
			t.Fatalf("skew touched the body of line %d: %q", i, got[i])
		}
		t0, err := time.Parse("Jan _2 15:04:05", orig[i][:15])
		if err != nil {
			t.Fatal(err)
		}
		t1, err := time.Parse("Jan _2 15:04:05", got[i][:15])
		if err != nil {
			t.Fatalf("skewed timestamp unparseable: %q", got[i][:15])
		}
		delta := t1.Sub(t0)
		dev := strings.Fields(orig[i][15:])[0]
		if prev, ok := offsets[dev]; ok && prev != delta {
			t.Fatalf("device %s skewed inconsistently: %v then %v", dev, prev, delta)
		}
		offsets[dev] = delta
		if delta != 0 {
			skewed++
			if delta < -15*time.Second || delta > 15*time.Second {
				t.Fatalf("skew %v exceeds skewMax", delta)
			}
		}
	}
	if skewed == 0 {
		t.Fatal("no line skewed at SkewFraction 0.5")
	}

	// Skew must not touch centrally-stamped feeds.
	snmp := "1262649600,r0.pop00,ifOperStatus,ge-0/0/0,1\n"
	if inj.Feed(collector.SourceSNMP, snmp) != snmp {
		t.Fatal("skew mutated a non-syslog feed")
	}
}

func TestReorderPreservesRecords(t *testing.T) {
	text := syslogFeed(1000)
	out := New(Config{Seed: 3, Faults: []Fault{FaultReorder}}).Feed(collector.SourceSyslog, text)
	orig, got := splitLines(text), splitLines(out)
	if len(got) != len(orig) {
		t.Fatalf("reorder changed line count: %d != %d", len(got), len(orig))
	}
	seen := map[string]int{}
	for _, l := range orig {
		seen[l]++
	}
	moved := 0
	for i, l := range got {
		seen[l]--
		if seen[l] < 0 {
			t.Fatalf("reorder invented line %q", l)
		}
		if l != orig[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("reorder moved nothing at reorderFraction 0.10")
	}
}

func TestDuplicateAdjacentAndRateBounded(t *testing.T) {
	text := syslogFeed(4000)
	out := New(Config{Seed: 5, Faults: []Fault{FaultDuplicate}}).Feed(collector.SourceSyslog, text)
	orig, got := splitLines(text), splitLines(out)
	extra := len(got) - len(orig)
	if extra == 0 {
		t.Fatal("no duplicates at DuplicateFraction 0.05")
	}
	if rate := float64(extra) / float64(len(orig)); rate < 0.02 || rate > 0.09 {
		t.Fatalf("duplicate rate %.3f far from configured 0.05", rate)
	}
	// Removing adjacent repeats must recover the original exactly (the
	// source lines are unique, so any adjacent pair is an injected copy).
	var dedup []string
	for i, l := range got {
		if i > 0 && got[i-1] == l {
			continue
		}
		dedup = append(dedup, l)
	}
	if strings.Join(dedup, "\n") != strings.Join(orig, "\n") {
		t.Fatal("duplicates are not adjacent copies of original lines")
	}
}

func TestTruncateProducesPrefixes(t *testing.T) {
	text := syslogFeed(4000)
	out := New(Config{Seed: 9, Faults: []Fault{FaultTruncate}}).Feed(collector.SourceSyslog, text)
	orig, got := splitLines(text), splitLines(out)
	if len(got) != len(orig) {
		t.Fatalf("truncate changed line count: %d != %d", len(got), len(orig))
	}
	cut := 0
	for i := range got {
		if got[i] == orig[i] {
			continue
		}
		cut++
		if !strings.HasPrefix(orig[i], got[i]) || len(got[i]) == 0 {
			t.Fatalf("line %d is not a proper prefix: %q of %q", i, got[i], orig[i])
		}
	}
	if rate := float64(cut) / float64(len(orig)); rate < 0.005 || rate > 0.05 {
		t.Fatalf("truncate rate %.3f far from configured 0.02", rate)
	}
}

func TestFaultMixIndependence(t *testing.T) {
	// Each fault draws from its own (seed, fault, source) generator, so
	// enabling duplication must not change how skew lands: collapsing the
	// injected adjacent copies recovers the skew-only output exactly.
	text := syslogFeed(600)
	skewOnly := New(Config{Seed: 11, Faults: []Fault{FaultSkew}}).Feed(collector.SourceSyslog, text)
	both := New(Config{Seed: 11, Faults: []Fault{FaultSkew, FaultDuplicate}}).Feed(collector.SourceSyslog, text)
	var dedup []string
	lines := splitLines(both)
	for i, l := range lines {
		if i > 0 && lines[i-1] == l {
			continue
		}
		dedup = append(dedup, l)
	}
	if strings.Join(dedup, "\n")+"\n" != skewOnly {
		t.Fatal("activating duplicate changed the skew draw — sub-generators are coupled")
	}
}

func TestPickDropsDeterministicAndRestricted(t *testing.T) {
	feeds := map[string]string{}
	for _, src := range []string{
		collector.SourceSyslog, collector.SourceSNMP, collector.SourceLayer1,
		collector.SourceTACACS, collector.SourceWorkflow, collector.SourceServer,
	} {
		feeds[src] = "x\n"
	}
	b := platform.Bundle{Feeds: feeds}
	inj := New(Config{Seed: 21, Faults: []Fault{FaultDropSource}})
	out := inj.Bundle(b)
	if len(inj.Dropped) != 1 {
		t.Fatalf("Dropped = %v, want exactly dropCount=1 source", inj.Dropped)
	}
	allowed := map[string]bool{}
	for _, src := range DefaultDroppable {
		allowed[src] = true
	}
	if !allowed[inj.Dropped[0]] {
		t.Fatalf("dropped %q, not in DefaultDroppable", inj.Dropped[0])
	}
	if _, ok := out.Feeds[inj.Dropped[0]]; ok {
		t.Fatal("dropped source still present in perturbed bundle")
	}
	if len(out.Feeds) != len(feeds)-1 {
		t.Fatalf("perturbed bundle has %d feeds, want %d", len(out.Feeds), len(feeds)-1)
	}

	inj2 := New(Config{Seed: 21, Faults: []Fault{FaultDropSource}})
	inj2.Bundle(b)
	if inj2.Dropped[0] != inj.Dropped[0] {
		t.Fatalf("drop pick not seed-stable: %v vs %v", inj2.Dropped, inj.Dropped)
	}
}

func TestFeedEmptyAndHeaderLinesSurvive(t *testing.T) {
	inj := New(Config{Seed: 1, Faults: AllFaults()})
	if got := inj.Feed(collector.SourceSyslog, ""); got != "" {
		t.Fatalf("empty feed mutated to %q", got)
	}
	// A comment header is shorter than a syslog timestamp; it must pass
	// through skew unharmed (reorder/truncate may still act on it).
	one := "# header\n"
	out := New(Config{Seed: 1, Faults: []Fault{FaultSkew}}).Feed(collector.SourceSyslog, one)
	if out != one {
		t.Fatalf("header line mutated by skew: %q", out)
	}
}
