package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// env is what one benchmark process shares across workloads: the
// checkout, the built server binary, a scratch directory on the repo's
// filesystem, the HTTP client, and the children it must not leak.
type env struct {
	root    string // checkout root (holds go.mod)
	bin     string // bench/.build/grca
	runDir  string // bench/.run/<tmp>, removed at exit
	workDir string // the current workload run's directory under runDir
	clients int    // closed-loop client count = connection count = nproc
	hc      *http.Client
	procs   procs
	out     io.Writer // the human-readable report

	// tr is nil on the untraced run; phase is the open phase span that
	// client spans hang under; reqID numbers traced requests.
	tr    *tracer
	phase int
	reqID atomic.Int64
}

func newEnv(out io.Writer) (*env, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	for _, dir := range []string{"bench/.build", "bench/.run"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			return nil, err
		}
	}
	// The data directories must sit on the repo's filesystem, not a
	// tmpfs /tmp: journal and WAL fsyncs are part of what is measured.
	runDir, err := os.MkdirTemp(filepath.Join(root, "bench/.run"), "run-")
	if err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()
	return &env{
		root: root, bin: filepath.Join(root, "bench/.build/grca"), runDir: runDir,
		clients: clients, out: out,
		hc: &http.Client{
			// Past the server's own 60 s request timeout: a wedged server
			// fails the run instead of hanging it.
			Timeout:   90 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
			// A follower answers writes with a 307 to its primary; the
			// benchmark must see that, not silently follow it.
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		},
	}, nil
}

// close stops every child and removes the scratch directory.
func (e *env) close() {
	e.procs.killAll()
	e.hc.CloseIdleConnections()
	os.RemoveAll(e.runDir) //nolint:errcheck // best-effort scratch cleanup
}

func (e *env) printf(format string, args ...any) { fmt.Fprintf(e.out, format, args...) }

// inPhase runs fn under a phase span (traced runs) and returns how long
// it took.
func (e *env) inPhase(name string, fn func() error) (time.Duration, error) {
	id := e.tr.begin("phase."+name, 0, 0)
	prev := e.phase
	e.phase = id
	t0 := time.Now()
	err := fn()
	took := time.Since(t0)
	e.phase = prev
	e.tr.end(id)
	return took, err
}

// metricDef names one metric. A positive bound puts an end-to-end
// metric into BENCHMARK.json: the share of the parent's median by which
// it may worsen. That needs a value on every workload, repeatable well
// inside the bound; the others are printed for the record only.
type metricDef struct {
	name, unit string
	higher     bool // better direction
	bound      float64
}

// endToEnd is every end-to-end metric the report prints, in print order.
// A workload the metric does not apply to prints null.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"ingest_events_per_s", "1/s", true, 0},
	{"ingest_p50_ms", "ms", false, 0},
	{"ingest_p99_ms", "ms", false, 0},
	{"failed_share", "share", false, 0},
	{"restart_s", "s", false, 0},
	{"disk_bytes_per_event", "bytes", false, 0.15},
	{"disk_write_bytes_per_event", "bytes", false, 0.15},
	{"server_rss_mb", "MB", false, 0.25},
	{"feed_lines_per_s", "1/s", true, 0},
	{"finalize_s", "s", false, 0},
	{"diagnose_p50_ms", "ms", false, 0},
	{"diagnose_p99_ms", "ms", false, 0},
	{"browse_p50_ms", "ms", false, 0},
	{"browse_p99_ms", "ms", false, 0},
	{"replica_catchup_s", "s", false, 0},
	{"promote_s", "s", false, 0},
}

// check is one correctness check of a run; a check made several times
// (once per window or restart) passes only if every time did.
type check struct {
	name   string
	ok     bool
	detail string
	times  int
}

// result is what one workload run produced.
type result struct {
	workload string
	values   map[string]float64   // end-to-end metrics that apply (absent = null)
	samples  map[string]int       // how many observations stand behind a value
	repeated map[string][]float64 // observations of metrics a run measures several times
	diag     map[string]float64   // printed diagnostics, not bounded
	layer    map[string]float64   // per-layer metrics (traced run)
	checks   []check
	ops      ops
}

func newResult(workload string) *result {
	return &result{
		workload: workload,
		values:   map[string]float64{}, samples: map[string]int{},
		repeated: map[string][]float64{},
		diag:     map[string]float64{}, layer: map[string]float64{},
	}
}

func (r *result) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// observe adds one observation of a metric the run measures several
// times.
func (r *result) observe(name string, v float64) {
	r.repeated[name] = append(r.repeated[name], v)
}

// settle reduces the repeated observations to the run's value. The two
// wall-clock metrics take their best observation — the highest rate, the
// shortest restart: on a shared box interference only ever slows a
// window, so the best of a few estimates the undisturbed speed, which is
// what a code change moves, and it repeats about twice as closely from
// run to run as the median does (README.md has the measurement). Sizes
// take the median.
func (r *result) settle() {
	for name, vs := range r.repeated {
		switch name {
		case "ingest_events_per_s":
			r.set(name, slices.Max(vs), len(vs))
		case "restart_s":
			r.set(name, slices.Min(vs), len(vs))
		default:
			r.set(name, median(vs), len(vs))
		}
	}
}

// setOpt records a metric that the percentile rule may have withheld.
func (r *result) setOpt(name string, v *float64, samples int) {
	if v != nil {
		r.set(name, *v, samples)
	} else {
		r.samples[name] = samples
	}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	for i := range r.checks {
		if c := &r.checks[i]; c.name == name {
			c.times++
			if c.ok { // keep the first failure's detail
				c.ok, c.detail = ok, detail
			}
			return
		}
	}
	r.checks = append(r.checks, check{name, ok, detail, 1})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// print writes the run's report: every end-to-end metric by name with
// unit and sample count, the diagnostics, and each check's verdict.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s\n", r.workload)
	for _, m := range endToEnd {
		v, ok := r.values[m.name]
		val := "null"
		if ok {
			val = fmt.Sprintf("%.4f", v)
		}
		fmt.Fprintf(w, "  %-26s %14s %-6s n=%d\n", m.name, val, m.unit, r.samples[m.name])
	}
	// The single observations behind each median, so a reader sees how
	// much the box moved within the run.
	repeated := make([]string, 0, len(r.repeated))
	for name := range r.repeated {
		repeated = append(repeated, name)
	}
	sort.Strings(repeated)
	for _, name := range repeated {
		fmt.Fprintf(w, "  obs   %-26s %.4g\n", name, r.repeated[name])
	}
	printSorted(w, "  diag  ", r.diag)
	printSorted(w, "  layer ", r.layer)
	for _, c := range r.checks {
		verdict := "PASS"
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %-4s %s (x%d): %s\n", verdict, c.name, c.times, c.detail)
	}
	a, f, retried := r.ops.counts()
	fmt.Fprintf(w, "  operations: %d attempted, %d failed, %d answers were 429\n", a, f, retried)
}

func printSorted(w io.Writer, prefix string, m map[string]float64) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s%-44s %.4f\n", prefix, name, m[name])
	}
}

// bounded is the subset of endToEnd that BENCHMARK.json lists and the
// result line carries.
var bounded = func() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.bound > 0 {
			out = append(out, m)
		}
	}
	return out
}()

func isBounded(name string) bool {
	for _, m := range bounded {
		if m.name == name {
			return true
		}
	}
	return false
}

// environment describes the box, printed once per run so nobody reads a
// two-core loopback number as something else.
func environment(e *env) string {
	return fmt.Sprintf("cores=%d GOMAXPROCS=%d %s %s/%s clients=%d (closed loop) server flags: %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		e.clients, strings.Join(serveFlags, " "))
}
