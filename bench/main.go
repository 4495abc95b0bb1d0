// Command bench is the repository's benchmark: it builds cmd/grca from
// the checkout, drives real `grca serve` child processes over loopback
// HTTP through four named workloads, checks that what came back is
// correct, and prints every end-to-end metric by name. A traced run
// (-trace) instead times the calls into each internal package and the
// stages of one batch and one diagnosis. See README.md in this directory.
//
//	go run ./bench                                       all workloads, full report
//	go run ./bench -workload ingest_bulk -seed 2010      one workload; last line is its JSON result
//	go run ./bench -trace spans.json                     per-layer metrics and budgets
//	go run ./bench -agree                                two sets of five runs held to the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "run only this workload and print its JSON result as the last line (default: all four)")
	seed := fs.Int64("seed", 2010, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "nominal length of the timed window; fixed-work streams scale with it")
	trace := fs.String("trace", "0", "0 = end-to-end run; 1 or a file name = traced run printing per-layer metrics, spans written to the file")
	agree := fs.Bool("agree", false, "run two sets of end-to-end runs and fail if their medians or spreads break a metric's bound")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	e, err := newEnv(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	// Children must not outlive the benchmark, whatever ends it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(1)
	}()
	code := run(e, *name, params{seed: *seed, seconds: *seconds, scale: 1}, *trace, *agree)
	e.close()
	os.Exit(code)
}

func run(e *env, name string, p params, trace string, agree bool) int {
	selected := workloads
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 1
		}
		selected = []workload{*w}
	}
	if p.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 1
	}
	e.printf("bench: %s seed=%d seconds=%d\n", environment(e), p.seed, p.seconds)
	if agree {
		return runAgree(e, selected, p)
	}
	traced := trace != "0"
	ok := true
	for _, w := range selected {
		var r *result
		var err error
		if traced {
			r, err = runTraced(e, w, p, trace)
		} else {
			r, err = runWorkload(e, w, p)
		}
		if err != nil {
			// A run that could not finish voids its metrics: no result line.
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		r.print(e.out)
		ok = ok && r.correct()
		if name != "" {
			resultLine(e.out, r, traced)
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a correctness check failed")
		return 1
	}
	return 0
}

// setupRounds is how many times set-up runs; setup_s is the median, so
// one cold build or a page-cache miss does not decide it.
const setupRounds = 5

// runWorkload is one untraced run: set-up (timed), the workload, its
// checks.
func runWorkload(e *env, w workload, p params) (*result, error) {
	// A directory per run: a second run of the workload in this process
	// (-agree, the traced pair) must not find the first one's data.
	var err error
	if e.workDir, err = os.MkdirTemp(e.runDir, w.name+"-"); err != nil {
		return nil, err
	}
	defer func() {
		e.procs.killAll()
		os.RemoveAll(e.workDir) //nolint:errcheck // best-effort scratch cleanup
	}()
	r := newResult(w.name)
	in, err := timedSetup(e, w, p, r)
	if err != nil {
		return nil, err
	}
	if err := w.run(e, p, in, r); err != nil {
		return nil, err
	}
	r.settle()
	failedShare(r)
	return r, nil
}

// timedSetup builds the server binary and the workload's inputs
// setupRounds times and records the median as setup_s.
func timedSetup(e *env, w workload, p params, r *result) (*inputs, error) {
	var in *inputs
	var took []float64
	for round := 0; round < setupRounds; round++ {
		dir := filepath.Join(e.workDir, fmt.Sprintf("corpus-%d", round))
		t0 := time.Now()
		if err := buildBinary(e.root, e.bin); err != nil {
			return nil, err
		}
		var err error
		if in, err = w.setup(e, p, dir); err != nil {
			return nil, fmt.Errorf("set-up: %v", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(took), len(took))
	return in, nil
}

// resultLine prints the run's machine-readable result as one JSON
// object: the bounded end-to-end metrics, or on a traced run the
// per-layer metrics.
func resultLine(w io.Writer, r *result, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range perLayer {
			metrics[m.name] = value{r.layer[m.name], m.unit}
		}
	} else {
		for _, m := range bounded {
			metrics[m.name] = value{r.values[m.name], m.unit}
		}
	}
	attempted, failed, _ := r.ops.counts()
	line, _ := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": max(attempted, 1), "failed": failed, "metrics": metrics,
	})
	fmt.Fprintf(w, "%s\n", line)
}

// agreeRuns is how many runs, on consecutive seeds, make one of
// -agree's two sets: half of what the driver takes.
const agreeRuns = 5

// runAgree applies the driver's acceptance rule to this build at half
// its sample: two sets of agreeRuns runs per workload on consecutive
// seeds; per bounded metric, the spread of each set (interquartile range
// over median) must stay inside the bound — except set-up's — and the
// second set's median may not be worse than the first's by more than the
// bound. The other metrics are printed for the record.
func runAgree(e *env, selected []workload, p params) int {
	code := 0
	for _, w := range selected {
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = map[string][]float64{}
			for k := 0; k < agreeRuns; k++ {
				q := p
				q.seed += int64(k)
				r, err := runWorkload(e, w, q)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				if !r.correct() {
					r.print(e.out)
					fmt.Fprintf(os.Stderr, "bench: %s: a correctness check failed\n", w.name)
					return 1
				}
				for name, v := range r.values {
					sets[i][name] = append(sets[i][name], v)
				}
			}
		}
		e.printf("\n%-16s %-26s %14s %14s %7s %8s %8s %6s\n", w.name, "metric", "median 1", "median 2", "worse", "spread 1", "spread 2", "bound")
		for _, m := range endToEnd {
			a, b := sets[0][m.name], sets[1][m.name]
			if len(a) < agreeRuns || len(b) < agreeRuns {
				continue // does not apply to this workload
			}
			ma, mb := median(a), median(b)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
			}
			if m.higher {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := ""
			if m.bound > 0 && (worse > m.bound || (m.name != "setup_s" && max(sa, sb) > m.bound)) {
				verdict = "  DISAGREE"
				code = 1
			}
			bound := "     -"
			if m.bound > 0 {
				bound = fmt.Sprintf("%5.0f%%", 100*m.bound)
			}
			e.printf("%-16s %-26s %14.4f %14.4f %6.1f%% %7.1f%% %7.1f%% %s%s\n",
				"", m.name, ma, mb, 100*worse, 100*sa, 100*sb, bound, verdict)
		}
	}
	return code
}
