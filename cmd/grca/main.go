// Command grca is the G-RCA platform front end. It runs the packaged RCA
// applications over a dataset bundle, prints root-cause breakdown tables
// in the paper's format, lists the Knowledge Library, trends events over
// time, and drills into individual diagnoses.
//
// Usage:
//
//	grca run bgpflap -data /tmp/corpus [-score] [-trend 24h] [-show 3]
//	grca run cdn     -data /tmp/corpus [-trace] [-slowest 3] [-metrics-addr :6060]
//	grca run pim     -data /tmp/corpus
//	grca stats bgpflap -data /tmp/corpus # pipeline metrics after a batch + streaming pass
//	grca stats -addr http://127.0.0.1:8080  # metrics from a running grca serve
//	grca events
//	grca rules
//	grca bayes -data /tmp/corpus        # §IV-C group inference
//	grca serve -data-dir /var/lib/grca -bundle /tmp/corpus  # durable HTTP diagnosis service
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"grca/internal/apps"
	"grca/internal/apps/bgpflap"
	"grca/internal/browser"
	"grca/internal/collector"
	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/obs"
	"grca/internal/platform"
	"grca/internal/realtime"
	"grca/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runApp(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	case "events":
		err = listEvents()
	case "rules":
		err = listRules()
	case "bayes":
		err = runBayes(os.Args[2:])
	case "check":
		err = runCheck(os.Args[2:])
	case "vet":
		err = runVet(os.Args[2:])
	case "graph":
		err = runGraph(os.Args[2:])
	case "report":
		err = runReport(os.Args[2:])
	case "chaos":
		err = runChaos(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "promote":
		err = runPromote(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "grca: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  grca run <bgpflap|cdn|pim|backbone> -data DIR [-score] [-trend DUR] [-show N] [-trace] [-slowest N] [-metrics-addr ADDR]
  grca stats <bgpflap|cdn|pim|backbone> -data DIR  # pipeline metrics after a batch + streaming pass
  grca stats -addr URL                   # /v1/stats from a running grca serve
  grca events
  grca rules
  grca bayes -data DIR
  grca check <bgpflap|cdn|pim|backbone> -data DIR
  grca vet [spec.grca ...] [-json] [-validate -data DIR]  # static spec/graph validation; no args vets the built-ins
  grca graph <bgpflap|cdn|pim|backbone>            # Graphviz DOT of the diagnosis graph
  grca report <bgpflap|cdn|pim|backbone> -data DIR # full SQM report (breakdown, trend, drill-downs)
  grca chaos -data DIR [-seed N] [-faults LIST] [-apps LIST] [-o FILE]  # fault-injection accuracy matrix (JSON)
  grca serve -data-dir DIR -bundle DIR [-addr :8080] [-snapshot-every N] [-retention DUR] [-max-inflight N] [-replica-of URL]
  grca promote -addr URL                 # flip a running replica into a standalone primary`)
}

// appArg resolves a command's leading application name.
func appArg(cmd string, args []string) (apps.App, error) {
	if len(args) < 1 {
		return apps.App{}, fmt.Errorf("%s: application name required", cmd)
	}
	a, ok := apps.Get(args[0])
	if !ok {
		return apps.App{}, fmt.Errorf("%s: unknown application %q", cmd, args[0])
	}
	return a, nil
}

// bundleCmd is the front half of every command that reads a bundle: the
// application (app, or the leading argument), the flags — -data plus
// whatever flags registers — then the bundle loaded, assembled, and bound
// to the application's engine.
type bundleCmd struct {
	name, app string
	flags     func(*flag.FlagSet)
	// ready, when set, runs once the flags are parsed, before the bundle
	// loads.
	ready func() error
}

type openBundle struct {
	app    apps.App
	bundle platform.Bundle
	sys    *platform.System
	eng    *engine.Engine
}

func (c bundleCmd) open(args []string) (*openBundle, error) {
	if c.app != "" {
		args = append([]string{c.app}, args...)
	}
	a, err := appArg(c.name, args)
	if err != nil {
		return nil, err
	}
	fs := flag.NewFlagSet(c.name, flag.ExitOnError)
	data := fs.String("data", "", "dataset bundle directory (required)")
	if c.flags != nil {
		c.flags(fs)
	}
	if err := fs.Parse(args[1:]); err != nil {
		return nil, err
	}
	if *data == "" {
		return nil, fmt.Errorf("%s: -data is required", c.name)
	}
	if c.ready != nil {
		if err := c.ready(); err != nil {
			return nil, err
		}
	}
	bundle, err := platform.Load(*data)
	if err != nil {
		return nil, err
	}
	sys, err := bundle.Assemble(platform.Options{})
	if err != nil {
		return nil, err
	}
	eng, err := a.NewEngine(sys.Store, sys.View)
	if err != nil {
		return nil, err
	}
	return &openBundle{a, bundle, sys, eng}, nil
}

func runApp(args []string) error {
	var o struct {
		score, trace  bool
		trend         time.Duration
		show, slowest int
		metricsAddr   string
	}
	shutdown := func() {}
	defer func() { shutdown() }()
	b, err := bundleCmd{
		name: "run",
		flags: func(fs *flag.FlagSet) {
			fs.BoolVar(&o.score, "score", false, "score diagnoses against ground truth when available")
			fs.DurationVar(&o.trend, "trend", 0, "print a symptom trend with the given bin width")
			fs.IntVar(&o.show, "show", 0, "print the first N full diagnoses (evidence chains)")
			fs.BoolVar(&o.trace, "trace", false, "record per-stage diagnosis traces and print the slowest ones")
			fs.IntVar(&o.slowest, "slowest", 3, "with -trace, how many of the slowest diagnoses to print")
			fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve expvar/pprof on this address (e.g. :6060) while running")
		},
		ready: func() error {
			if o.metricsAddr == "" {
				return nil
			}
			bound, stop, err := obs.ServeDebug(o.metricsAddr)
			if err != nil {
				return err
			}
			shutdown = stop
			fmt.Fprintf(os.Stderr, "metrics: expvar at http://%s/debug/vars, pprof at http://%s/debug/pprof/\n", bound, bound)
			return nil
		},
	}.open(args)
	if err != nil {
		return err
	}
	a, bundle, sys, eng := b.app, b.bundle, b.sys, b.eng
	warnDrops(sys.Collector)
	eng.Tracing = o.trace
	began := time.Now()
	ds := eng.DiagnoseAll()
	elapsed := time.Since(began)

	rows := browser.Breakdown(ds, a.DisplayLabel)
	if err := browser.WriteTable(os.Stdout, a.Title(), rows); err != nil {
		return err
	}
	per := time.Duration(0)
	if len(ds) > 0 {
		per = elapsed / time.Duration(len(ds))
	}
	fmt.Printf("\n%d symptoms diagnosed in %v (%v/event)\n", len(ds), elapsed.Round(time.Millisecond), per.Round(time.Microsecond))

	if o.score && len(bundle.Truth) > 0 {
		s := platform.ScoreDiagnoses(bundle.Truth, a.Study, ds, 10*time.Minute)
		fmt.Printf("ground truth: %d/%d correct (%.1f%%), %d unmatched\n",
			s.Correct, s.Total, 100*s.Accuracy(), s.Unmatched)
	}
	if o.trend > 0 && len(ds) > 0 {
		printTrend(sys.Store, eng.Graph.Root, bundle.Start, bundle.Start.Add(bundle.Duration), o.trend)
	}
	for i := 0; i < o.show && i < len(ds); i++ {
		printDiagnosis(ds[i])
	}
	if o.trace {
		printSlowest(ds, o.slowest)
	}
	return nil
}

// warnDrops surfaces the collector's per-source parse failures: a nonzero
// drop rate means the diagnosis below ran on an incomplete evidence base,
// and a quarantined source means a whole feed tail went unread.
func warnDrops(c *collector.Collector) {
	sum := c.Summary()
	if sum.Totals.Malformed == 0 && len(sum.Quarantined()) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "warning: %d/%d raw lines malformed and skipped (%.2f%% drop rate)\n",
		sum.Totals.Malformed, sum.Totals.Lines, 100*sum.Totals.DropRate())
	for _, s := range sum.Sources {
		if s.Malformed > 0 {
			fmt.Fprintf(os.Stderr, "  %-10s %d/%d lines dropped (%.2f%%)\n",
				s.Source, s.Malformed, s.Lines, 100*s.DropRate())
		}
		if s.Quarantined() {
			fmt.Fprintf(os.Stderr, "  %-10s QUARANTINED: %s\n", s.Source, s.Quarantine)
		}
	}
}

// printSlowest renders the per-stage traces of the n slowest diagnoses —
// where the paper's per-event latency budget (§III) actually went.
func printSlowest(ds []engine.Diagnosis, n int) {
	slow := append([]engine.Diagnosis(nil), ds...)
	sort.SliceStable(slow, func(i, j int) bool { return slow[i].Elapsed > slow[j].Elapsed })
	if n > len(slow) {
		n = len(slow)
	}
	if n <= 0 {
		return
	}
	fmt.Printf("\nSlowest %d diagnoses (per-stage traces):\n", n)
	for _, d := range slow[:n] {
		fmt.Println()
		if err := d.Trace.Write(os.Stdout); err != nil {
			fmt.Printf("  (trace unavailable: %v)\n", err)
		}
	}
}

func printTrend(st store.Store, name string, from, to time.Time, bin time.Duration) {
	fmt.Printf("\nTrend of %q per %v:\n", name, bin)
	for _, p := range browser.Trend(st, name, from, to, bin) {
		fmt.Printf("  %s  %4d  %s\n", p.Start.Format("2006-01-02 15:04"), p.Count, bar(p.Count))
	}
}

func bar(n int) string {
	if n > 60 {
		n = 60
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}

func printDiagnosis(d engine.Diagnosis) {
	fmt.Printf("\nsymptom %s\n  root cause: %s\n", d.Symptom, d.Label())
	var walk func(n *engine.Node, depth int)
	walk = func(n *engine.Node, depth int) {
		for _, c := range n.Children {
			fmt.Printf("  %*s<- %s (priority %d)\n", depth*2, "", c.Instance, c.Rule.Priority)
			walk(c, depth+1)
		}
	}
	walk(d.Root, 1)
	for _, w := range d.Warnings {
		fmt.Printf("  warning: %s\n", w)
	}
}

// runStats exercises the full pipeline over a bundle — batch diagnosis
// plus a streaming replay of the same corpus — and prints the resulting
// metrics registry, giving the operator the numbers behind the paper's
// §III latency claims without attaching a debugger.
func runStats(args []string) error {
	// Remote mode: `grca stats -addr http://host:port` fetches /v1/stats
	// from a running `grca serve` instead of assembling a local bundle,
	// so a live service can be inspected without shell access to it.
	if len(args) >= 1 && strings.HasPrefix(args[0], "-") {
		fs := flag.NewFlagSet("stats", flag.ExitOnError)
		addr := fs.String("addr", "", "base URL of a running grca serve (e.g. http://127.0.0.1:8080)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *addr == "" {
			return fmt.Errorf("stats: application name or -addr required")
		}
		return remoteStats(*addr)
	}
	if len(args) < 1 {
		return fmt.Errorf("stats: application name or -addr required")
	}
	var stream *bool
	b, err := bundleCmd{name: "stats", flags: func(fs *flag.FlagSet) {
		stream = fs.Bool("stream", true, "also replay the corpus through the streaming processor")
	}}.open(args)
	if err != nil {
		return err
	}
	sys, eng := b.sys, b.eng
	warnDrops(sys.Collector)
	began := time.Now()
	ds := eng.DiagnoseAll()
	batch := time.Since(began)

	streamed, lateArrivals := 0, 0
	if *stream {
		// Replay the corpus in availability order so the realtime.* gauges
		// and grace-wait histogram reflect this dataset too.
		g := eng.Graph
		proc := realtime.New(sys.View, g, realtime.GraceFor(g, 15*time.Minute))
		var ins []*event.Instance
		for _, name := range sys.Store.Names() {
			ins = append(ins, sys.Store.All(name)...)
		}
		sort.SliceStable(ins, func(i, j int) bool { return ins[i].End.Before(ins[j].End) })
		for _, in := range ins {
			if _, late := proc.Observe(*in); !late {
				streamed++
			} else {
				lateArrivals++
			}
		}
		proc.Flush()
	}

	fmt.Printf("%s: %d events in store, %d symptoms diagnosed in %v batch",
		args[0], sys.Store.Len(), len(ds), batch.Round(time.Millisecond))
	if *stream {
		fmt.Printf("; %d events replayed through the streaming processor", streamed)
		if lateArrivals > 0 {
			fmt.Printf(" (%d late)", lateArrivals)
		}
	}
	fmt.Print("\n\n")
	return obs.WriteText(os.Stdout, obs.Default().Snapshot())
}

// remoteStats renders a running server's /v1/stats in the same text
// format the local stats path uses.
func remoteStats(base string) error {
	base = strings.TrimRight(base, "/")
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return fmt.Errorf("stats: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats: %s/v1/stats returned %s", base, resp.Status)
	}
	var body struct {
		Phase   string       `json:"phase"`
		Events  int          `json:"events"`
		Metrics obs.Snapshot `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("stats: decoding /v1/stats: %v", err)
	}
	fmt.Printf("%s: phase %s, %d events in store\n\n", base, body.Phase, body.Events)
	return obs.WriteText(os.Stdout, body.Metrics)
}

func listEvents() error {
	lib := event.Knowledge()
	fmt.Println("G-RCA Knowledge Library: common event definitions (Table I)")
	fmt.Println()
	for _, name := range lib.Names() {
		d, _ := lib.Get(name)
		fmt.Printf("%-46s %-20s %s\n", d.Name, d.LocType, d.Source)
		fmt.Printf("    %s\n", d.Description)
	}
	return nil
}

func listRules() error {
	cat := dgraph.Knowledge()
	fmt.Println("G-RCA Knowledge Library: common diagnosis rules (Table II)")
	fmt.Println()
	rules := cat.All()
	sort.Slice(rules, func(i, j int) bool { return rules[i].Key() < rules[j].Key() })
	for _, r := range rules {
		fmt.Printf("%-46s <- %-46s join %-14s sym(%s) diag(%s)\n",
			r.Symptom, r.Diagnostic, r.JoinLevel, r.Temporal.Symptom, r.Temporal.Diagnostic)
	}
	fmt.Printf("\n%d rules\n", len(rules))
	return nil
}

// runBayes reproduces the §IV-C study: group flaps by line card and run
// joint Bayesian inference, comparing against the rule-based verdicts.
func runBayes(args []string) error {
	var window *time.Duration
	var minMulti *int
	b, err := bundleCmd{name: "bayes", app: "bgpflap", flags: func(fs *flag.FlagSet) {
		window = fs.Duration("window", 3*time.Minute, "grouping window")
		minMulti = fs.Int("min-multi", 4, "flaps per card+window to count as a multi-flap group")
	}}.open(args)
	if err != nil {
		return err
	}
	sys := b.sys
	ds := b.eng.DiagnoseAll()
	cfg, err := bgpflap.BayesConfig()
	if err != nil {
		return err
	}
	groups := bgpflap.GroupByCard(sys.Topo, ds, *window)
	disagreements := 0
	for _, g := range groups {
		res, err := bgpflap.ClassifyGroup(cfg, g, *minMulti)
		if err != nil {
			return err
		}
		ruleVerdicts := map[string]bool{}
		for _, d := range g.Diagnoses {
			ruleVerdicts[d.Primary()] = true
		}
		if res.Best == bgpflap.ClassLineCard {
			disagreements++
			fmt.Printf("card %-16s %s: %d flaps within %v\n  Bayesian: %s | rule-based verdicts: %v\n",
				g.Card, g.Start.Format(time.DateTime), len(g.Diagnoses), *window, res.Best, keys(ruleVerdicts))
		}
	}
	fmt.Printf("\n%d flaps in %d card groups; %d groups flagged as line-card issues\n",
		len(ds), len(groups), disagreements)
	return nil
}

// runGraph emits the application's diagnosis graph as Graphviz DOT — a
// rendering of the paper's Figs. 4, 5, or 6.
func runGraph(args []string) error {
	a, err := appArg("graph", args)
	if err != nil {
		return err
	}
	lib, g, err := a.Build()
	if err != nil {
		return err
	}
	// Application-specific events are the ones absent from the shared
	// Knowledge Library.
	base := event.Knowledge()
	appSpecific := map[string]bool{}
	for _, name := range lib.Names() {
		if _, inBase := base.Get(name); !inBase {
			appSpecific[name] = true
		}
	}
	fmt.Print(g.DOT(args[0], appSpecific))
	return nil
}

// runReport renders the full SQM report for an application over a bundle.
func runReport(args []string) error {
	var trendBin *time.Duration
	b, err := bundleCmd{name: "report", flags: func(fs *flag.FlagSet) {
		trendBin = fs.Duration("trend", 24*time.Hour, "trend bucket width")
	}}.open(args)
	if err != nil {
		return err
	}
	a, sys := b.app, b.sys
	ds := b.eng.DiagnoseAll()
	return browser.WriteReport(os.Stdout, sys.Store, ds, browser.ReportOptions{
		Title:    a.Title(),
		Display:  a.DisplayLabel,
		TrendBin: *trendBin,
		View:     sys.View,
		Metrics:  obs.Default(),
	})
}

// runCheck validates every diagnosis rule of an application against the
// dataset with the Correlation Tester (§II-E): rules whose symptom and
// diagnostic series are not statistically correlated are flagged.
func runCheck(args []string) error {
	b, err := bundleCmd{name: "check"}.open(args)
	if err != nil {
		return err
	}
	m := browser.Miner{Store: b.sys.Store}
	verdicts := m.ValidateGraph(b.eng.Graph, b.bundle.Start, b.bundle.Start.Add(b.bundle.Duration))
	pass, fail, skip := 0, 0, 0
	for _, v := range verdicts {
		switch {
		case v.Err != nil:
			skip++
			fmt.Printf("SKIP  %-60s (%v)\n", v.Rule.Key(), v.Err)
		case v.Result.Significant:
			pass++
			fmt.Printf("PASS  %-60s score %6.2f\n", v.Rule.Key(), v.Result.Score)
		default:
			fail++
			fmt.Printf("FAIL  %-60s score %6.2f\n", v.Rule.Key(), v.Result.Score)
		}
	}
	fmt.Printf("\n%d rules: %d pass, %d fail, %d untestable on this data\n", len(verdicts), pass, fail, skip)
	return nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
