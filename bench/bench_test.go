package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

func TestPercentileRule(t *testing.T) {
	sample := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	for _, c := range []struct {
		n, permille int
		ok          bool
		want        float64
	}{
		{999, 990, false, 0}, // no p99 under 1000 samples
		{1000, 990, true, 989},
		{19, 500, false, 0}, // nor a p50 under 20
		{20, 500, true, 9},
		{2000, 990, true, 1979},
		{0, 500, false, 0},
	} {
		got, ok := percentile(sample(c.n), c.permille)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(n=%d, %d‰) = %v, %v; want %v, %v", c.n, c.permille, got, ok, c.want, c.ok)
		}
	}
	var l latencies
	for i := 0; i < 500; i++ {
		l.add(time.Duration(500-i) * time.Millisecond)
	}
	p50, p99 := l.quantiles()
	if p50 == nil || *p50 != 250 || p99 != nil {
		t.Errorf("500 samples: p50 = %v, p99 = %v; want 250 and withheld", p50, p99)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := spread([]float64{16, 1, 4, 2, 8}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "parent", Start: msec(0), End: msec(100)},
		{ID: 2, Parent: 1, Name: "a", Start: msec(10), End: msec(40)},
		{ID: 3, Parent: 1, Name: "b", Start: msec(30), End: msec(60)},  // overlaps a by 10 ms
		{ID: 4, Parent: 1, Name: "c", Start: msec(90), End: msec(120)}, // sticks out of the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: msec(15), End: msec(20)},
		{ID: 6, Parent: 1, Name: "inside a", Start: msec(12), End: msec(18)}, // wholly covered by a
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: msec(100 - 50 - 10), // children cover [10,60] and [90,100]
		2: msec(25),
		3: msec(30),
		4: msec(30),
		5: msec(5),
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if byName["parent"] != msec(40) {
		t.Errorf("selfByName[parent] = %v", byName["parent"])
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	if total <= 0 {
		t.Errorf("self times sum to %v", total)
	}

	// A nil tracer is a no-op recorder.
	var tr *tracer
	tr.end(tr.begin("x", 0, 0))
	if tr.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
}

func TestChunkLinesNeverSplitsARecord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	var lines []string
	for sb.Len() < 300_000 {
		line := strings.Repeat("x", 1+rng.Intn(900))
		lines = append(lines, line)
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	feed := sb.String()
	for _, limit := range []int{1000, 4096, 65536, len(feed), len(feed) + 1} {
		chunks, err := chunkLines(feed, limit)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if strings.Join(chunks, "") != feed {
			t.Fatalf("limit %d: chunks do not reassemble the feed", limit)
		}
		var got []string
		for _, c := range chunks {
			if len(c) > limit {
				t.Fatalf("limit %d: chunk of %d bytes", limit, len(c))
			}
			if !strings.HasSuffix(c, "\n") {
				t.Fatalf("limit %d: chunk ends inside a record", limit)
			}
			got = append(got, strings.Split(strings.TrimSuffix(c, "\n"), "\n")...)
		}
		if len(got) != len(lines) {
			t.Fatalf("limit %d: %d records out, %d in", limit, len(got), len(lines))
		}
	}
	if _, err := chunkLines(feed, 500); err == nil {
		t.Error("a line longer than the limit must be an error, not a torn record")
	}
	if chunks, err := chunkLines("", 10); err != nil || len(chunks) != 0 {
		t.Errorf("empty feed: %v, %v", chunks, err)
	}
	if maxChunk > 4<<20 {
		t.Errorf("maxChunk = %d, over 4 MiB", maxChunk)
	}
}

func TestReplayStaysInEndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	start := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	duration := 48 * time.Hour
	var base []event.Instance
	for i := 0; i < 500; i++ {
		s := start.Add(time.Duration(rng.Int63n(int64(duration))))
		// Some events end past the corpus window: the period must stretch.
		e := s.Add(time.Duration(rng.Int63n(int64(5 * time.Hour))))
		base = append(base, event.Instance{ID: i, Name: "e", Start: s, End: e, Loc: locus.At(locus.Router, "r")})
	}
	byAvailability(base)
	period := replayPeriod(base, duration)
	if period < duration || period%(24*time.Hour) != 0 {
		t.Fatalf("period %v: want whole days ≥ %v", period, duration)
	}
	var last time.Time
	for k := 1; k <= 4; k++ {
		for _, in := range shifted(base, k, period) {
			if in.End.Before(last) {
				t.Fatalf("replay %d: End %v precedes the previous event's %v", k, in.End, last)
			}
			if in.ID != 0 {
				t.Fatal("replayed events must not carry store IDs")
			}
			last = in.End
		}
	}
	if got := shifted(base, 2, period)[0]; !got.Start.Equal(base[0].Start.Add(2*period)) || got.End.Sub(got.Start) != base[0].End.Sub(base[0].Start) {
		t.Errorf("shift moved an event by the wrong amount or stretched it: %v", got)
	}
}

func TestFailedShareCountsRetriedOperationsOnce(t *testing.T) {
	var o ops
	o.note(false, 0) // clean
	o.note(false, 2) // two 429s, then accepted: failed once
	o.note(true, 1)  // a 429, then a 500: failed once
	if a, f, retried := o.counts(); a != 3 || f != 2 || retried != 3 {
		t.Errorf("attempted %d failed %d retried %d; want 3, 2, 3", a, f, retried)
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the code's tables")

// TestBenchmarkJSON keeps the contract file and the code's tables in
// step: BENCHMARK.json is exactly what the tables render to (run with
// -update to rewrite it), and the tables respect the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	render := func(ms []metricDef, withBound bool) []metricJSON {
		out := make([]metricJSON, len(ms))
		for i, m := range ms {
			out[i] = metricJSON{Name: m.name, Unit: m.unit, Better: "lower"}
			if m.higher {
				out[i].Better = "higher"
			}
			if withBound {
				bound := m.bound
				out[i].Bound = &bound
			}
		}
		return out
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}{
		Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: 10,
		EndToEnd: render(bounded, true), PerLayer: render(perLayer, false),
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	want, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the code's tables; run go test ./bench -run TestBenchmarkJSON -update")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, bounded...), perLayer...) {
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) || seen[m.name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", m.name, m.unit)
		}
		seen[m.name] = true
	}
	hasSetup := false
	for _, m := range bounded {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && !m.higher)
	}
	if !hasSetup || len(bounded) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("setup_s present: %v; %d end-to-end, %d per-layer metrics", hasSetup, len(bounded), len(perLayer))
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name, or why is not one line of at most 200 characters (%d)", w.name, len(w.why))
		}
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
}

// TestSmoke runs every workload end to end at 1/200 of its size — real
// server processes, every correctness check — so the tier-1 suite
// exercises the harness without the long runs.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	e, err := newEnv(&out)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	began := time.Now()
	for _, w := range workloads {
		r, err := runWorkload(e, w, params{seed: 2010, seconds: 10, scale: 1.0 / 200})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		r.print(&out)
		for _, c := range r.checks {
			if !c.ok {
				t.Errorf("%s: check %q failed: %s", w.name, c.name, c.detail)
			}
		}
		if len(r.checks) == 0 {
			t.Errorf("%s ran no correctness check", w.name)
		}
		for _, m := range bounded {
			if v, ok := r.values[m.name]; !ok || v <= 0 {
				t.Errorf("%s: bounded metric %s = %v, %v; every workload must report it non-zero", w.name, m.name, v, ok)
			}
		}
		if a, f, _ := r.ops.counts(); a == 0 || f != 0 {
			t.Errorf("%s: %d operations attempted, %d failed", w.name, a, f)
		}
	}
	// About 9 s on an idle two-core box; the bound only catches a harness
	// that has stopped being a smoke test, not a busy CI runner.
	if took := time.Since(began); took > 45*time.Second {
		t.Errorf("smoke took %v", took)
	}
	if t.Failed() {
		t.Log(out.String())
	}
}
