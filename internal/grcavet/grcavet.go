// Package grcavet statically validates G-RCA configuration artifacts —
// rulespec files, assembled diagnosis graphs, and the Knowledge Library —
// without running any diagnosis. The paper's Rule Builder (§II-C) assumes
// operators hand-edit event definitions and diagnosis rules; a typo there
// does not crash anything, it silently never correlates, which at
// production scale is indistinguishable from "the network is healthy".
// grcavet moves those failures from the diagnosis hot path to deploy time.
//
// Every finding carries a stable check ID, a severity, and file:line
// provenance threaded from the rulespec lexer. The check catalogue is
// documented in DESIGN.md §8.
package grcavet

import (
	"fmt"
	"sort"
	"time"

	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/netstate"
	"grca/internal/rulespec"
	"grca/internal/temporal"
)

// Severity ranks findings. Error-level findings make `grca vet` exit
// non-zero; warnings indicate rules that will behave surprisingly but not
// incorrectly; info findings are hygiene notes.
type Severity uint8

const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// Check IDs. These are stable identifiers: CI pipelines and suppression
// lists key on them, so existing IDs must never be renamed.
const (
	CheckParseError       = "parse-error"                // spec does not parse
	CheckUndefinedEvent   = "undefined-event"            // rule/root references an event absent from the library
	CheckRedefineUnknown  = "redefine-unknown"           // redefine of an event absent from the base library
	CheckShadowsLibrary   = "event-shadows-library"      // event statement re-declares a base library event
	CheckDuplicateEvent   = "duplicate-event"            // event defined twice in one spec
	CheckUnknownUse       = "unknown-catalogue-rule"     // use pulls a pair the catalogue does not have
	CheckDuplicateEdge    = "duplicate-edge"             // two statements declare the same (symptom, diagnostic)
	CheckShadowedEdge     = "shadowed-edge"              // a rule statement silently overrides a use pull
	CheckGraphCycle       = "graph-cycle"                // diagnosis graph has a causal cycle
	CheckUnreachableRule  = "unreachable-rule"           // rule's symptom unreachable from the root
	CheckJoinSymptom      = "join-infeasible-symptom"    // symptom loctype cannot convert to the join level
	CheckJoinDiagnostic   = "join-infeasible-diagnostic" // diagnostic loctype cannot convert to the join level
	CheckEmptyWindow      = "empty-window"               // temporal margins yield an always/possibly empty window
	CheckRetention        = "window-exceeds-retention"   // margin reaches beyond the store's retention
	CheckSNMPMargin       = "snmp-margin"                // SNMP-sourced side with margins finer than its 5-minute bin
	CheckPriorityInverted = "priority-inversion"         // deeper cause with lower priority than its parent edge
	CheckNegativePriority = "negative-priority"          // rule priority below zero
	CheckUnusedEvent      = "unused-event"               // event defined but referenced by no rule
	CheckRootNoRules      = "root-no-rules"              // root symptom has no diagnosis rules
	CheckLabelUnknown     = "label-unknown"              // label renames a name that is no event of the graph nor Unknown
	CheckUncorrelated     = "rule-uncorrelated"          // correlation test failed (with -validate)
	CheckUntestable       = "rule-untestable"            // correlation test had no data (with -validate)
)

// Finding is one static-analysis result.
type Finding struct {
	Check    string   `json:"check"`
	Severity Severity `json:"-"`
	// Level is the severity's name, for JSON consumers.
	Level string `json:"level"`
	// File names the vetted artifact: a path for spec files, or a
	// "builtin:<app>" / "catalogue" pseudo-path for compiled-in sources.
	File string `json:"file"`
	// Line is the 1-based source line of the offending statement; 0 when
	// the artifact has no text form (the compiled-in catalogue).
	Line int `json:"line,omitempty"`
	// Subject names the offending rule (its Key) or event.
	Subject string `json:"subject,omitempty"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	pos := f.File
	if f.Line > 0 {
		pos = fmt.Sprintf("%s:%d", f.File, f.Line)
	}
	return fmt.Sprintf("%s: %s [%s] %s", pos, f.Severity, f.Check, f.Message)
}

// Options configures a vet pass. The zero value selects the shipped
// Knowledge Library, catalogue, and default retention.
type Options struct {
	// Retention is the event store's look-back horizon: temporal margins
	// reaching past it can never be satisfied by stored data. Defaults to
	// DefaultRetention.
	Retention time.Duration
	// Base is the event library specs layer over; defaults to
	// event.Knowledge().
	Base *event.Library
	// Catalogue resolves use statements; defaults to dgraph.Knowledge().
	Catalogue *dgraph.Catalogue
}

// DefaultRetention mirrors a typical production deployment: one week of
// normalized events kept queryable (the paper's studies span months, but
// on rolled-up data).
const DefaultRetention = 7 * 24 * time.Hour

func (o Options) withDefaults() Options {
	if o.Retention <= 0 {
		o.Retention = DefaultRetention
	}
	if o.Base == nil {
		o.Base = event.Knowledge()
	}
	if o.Catalogue == nil {
		o.Catalogue = dgraph.Knowledge()
	}
	return o
}

// CheckSource vets rulespec source text, attributing findings to file.
func CheckSource(file, src string, opts Options) []Finding {
	spec, err := rulespec.Parse(src)
	if err != nil {
		return []Finding{{
			Check:    CheckParseError,
			Severity: Error,
			File:     file,
			Line:     errorLine(err),
			Message:  err.Error(),
		}}
	}
	return CheckSpec(file, spec, opts)
}

// errorLine extracts the "line N" provenance a rulespec parse error
// carries (guaranteed by the parser's fuzz invariant).
func errorLine(err error) int {
	var n int
	msg := err.Error()
	for i := 0; i+5 < len(msg); i++ {
		if msg[i:i+5] == "line " {
			if _, e := fmt.Sscanf(msg[i:], "line %d", &n); e == nil {
				return n
			}
		}
	}
	return 0
}

// edge is one resolved diagnosis-graph edge with its provenance.
type edge struct {
	rule    dgraph.Rule
	line    int
	fromUse bool
}

// CheckSpec vets a parsed specification: event-layer consistency, edge
// resolution, graph shape, spatial-join feasibility, and temporal sanity.
// Findings come back sorted by line, then check ID.
func CheckSpec(file string, spec *rulespec.Spec, opts Options) []Finding {
	opts = opts.withDefaults()
	v := &vetter{file: file, opts: opts}

	// Layer the spec's event definitions over the base library, flagging
	// shadowing and duplicates instead of failing on the first.
	lib := opts.Base.Clone()
	seen := map[string]bool{}
	for _, d := range spec.Events {
		switch {
		case seen[d.Name]:
			v.addf(CheckDuplicateEvent, Error, d.Line, d.Name,
				"event %q defined more than once", d.Name)
		case has(opts.Base, d.Name):
			v.addf(CheckShadowsLibrary, Error, d.Line, d.Name,
				"event %q already exists in the Knowledge Library; use redefine to override it", d.Name)
		default:
			seen[d.Name] = true
			if err := lib.Define(d.Definition); err != nil {
				v.addf(CheckUndefinedEvent, Error, d.Line, d.Name, "%v", err)
			}
		}
	}
	for _, d := range spec.Redefines {
		if !has(lib, d.Name) {
			v.addf(CheckRedefineUnknown, Error, d.Line, d.Name,
				"redefine of unknown event %q", d.Name)
			continue
		}
		if err := lib.Redefine(d.Definition); err != nil {
			v.addf(CheckRedefineUnknown, Error, d.Line, d.Name, "%v", err)
		}
	}

	// Resolve use statements against the catalogue and rules as written
	// into one edge list, flagging duplicates and shadowing.
	var edges []edge
	byKey := map[string]edge{}
	for _, u := range spec.Uses {
		r, ok := opts.Catalogue.Find(u.Symptom, u.Diagnostic)
		if !ok {
			v.addf(CheckUnknownUse, Error, u.Line, u.Symptom+" <- "+u.Diagnostic,
				"catalogue has no rule %q <- %q", u.Symptom, u.Diagnostic)
			continue
		}
		r.Priority = u.Priority
		e := edge{rule: r, line: u.Line, fromUse: true}
		if prev, dup := byKey[r.Key()]; dup {
			v.addf(CheckDuplicateEdge, Error, u.Line, r.Key(),
				"edge %q already declared on line %d", r.Key(), prev.line)
			continue
		}
		byKey[r.Key()] = e
		edges = append(edges, e)
	}
	for _, r := range spec.Rules {
		e := edge{rule: r.Rule, line: r.Line}
		if prev, dup := byKey[r.Key()]; dup {
			if prev.fromUse {
				v.addf(CheckShadowedEdge, Warning, r.Line, r.Key(),
					"rule %q overrides the catalogue pull on line %d (drop the use, or the rule)", r.Key(), prev.line)
				// The rule wins, as Build documents.
				for i := range edges {
					if edges[i].rule.Key() == r.Key() {
						edges[i] = e
					}
				}
				byKey[r.Key()] = e
			} else {
				v.addf(CheckDuplicateEdge, Error, r.Line, r.Key(),
					"edge %q already declared on line %d", r.Key(), prev.line)
			}
			continue
		}
		byKey[r.Key()] = e
		edges = append(edges, e)
	}

	v.checkEvents(spec, lib, edges)
	v.checkEdges(lib, edges)
	v.checkGraph(spec, lib, edges)
	sort.SliceStable(v.findings, func(i, j int) bool {
		a, b := v.findings[i], v.findings[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Subject < b.Subject
	})
	return v.findings
}

func has(l *event.Library, name string) bool {
	_, ok := l.Get(name)
	return ok
}

type vetter struct {
	file     string
	opts     Options
	findings []Finding
}

func (v *vetter) addf(check string, sev Severity, line int, subject, format string, args ...any) {
	v.findings = append(v.findings, Finding{
		Check:    check,
		Severity: sev,
		Level:    sev.String(),
		File:     v.file,
		Line:     line,
		Subject:  subject,
		Message:  fmt.Sprintf(format, args...),
	})
}

// checkEvents flags spec-defined events that no rule references (the
// classic "renamed the event, forgot the rule" drift) and labels that
// rename no event of the graph (a typo that leaves a row unrenamed), and
// verifies the root is defined.
func (v *vetter) checkEvents(spec *rulespec.Spec, lib *event.Library, edges []edge) {
	if !has(lib, spec.Root) {
		v.addf(CheckUndefinedEvent, Error, spec.Line, spec.Root,
			"root event %q is not defined", spec.Root)
	}
	used := map[string]bool{spec.Root: true}
	for _, e := range edges {
		used[e.rule.Symptom] = true
		used[e.rule.Diagnostic] = true
	}
	for _, d := range spec.Events {
		if !used[d.Name] {
			v.addf(CheckUnusedEvent, Info, d.Line, d.Name,
				"event %q is defined but no rule references it", d.Name)
		}
	}
	for _, l := range spec.Labels {
		if !used[l.Raw] && l.Raw != engine.Unknown {
			v.addf(CheckLabelUnknown, Warning, l.Line, l.Raw,
				"label %q names no event of the graph (nor %s): the row it renames never appears", l.Raw, engine.Unknown)
		}
	}
}

// checkEdges runs the per-rule checks: endpoint definedness, spatial-join
// feasibility, and temporal sanity.
func (v *vetter) checkEdges(lib *event.Library, edges []edge) {
	for _, e := range edges {
		v.checkRule(lib, e.rule, e.line)
	}
}

// checkRule is the shared per-rule validation used for spec edges and
// catalogue entries alike.
func (v *vetter) checkRule(lib *event.Library, r dgraph.Rule, line int) {
	key := r.Key()
	symDef, symOK := lib.Get(r.Symptom)
	diagDef, diagOK := lib.Get(r.Diagnostic)
	if !symOK {
		v.addf(CheckUndefinedEvent, Error, line, key,
			"rule %q references undefined symptom event %q", key, r.Symptom)
	}
	if !diagOK {
		v.addf(CheckUndefinedEvent, Error, line, key,
			"rule %q references undefined diagnostic event %q", key, r.Diagnostic)
	}
	if symOK && !netstate.ConvertibleTo(symDef.LocType, r.JoinLevel) {
		v.addf(CheckJoinSymptom, Error, line, key,
			"rule %q joins at %s but symptom %q is located at %s, which never converts to %s: the rule can never join",
			key, r.JoinLevel, r.Symptom, symDef.LocType, r.JoinLevel)
	}
	if diagOK && !netstate.ConvertibleTo(diagDef.LocType, r.JoinLevel) {
		v.addf(CheckJoinDiagnostic, Error, line, key,
			"rule %q joins at %s but diagnostic %q is located at %s, which never converts to %s: the rule can never join",
			key, r.JoinLevel, r.Diagnostic, diagDef.LocType, r.JoinLevel)
	}
	if r.Priority < 0 {
		v.addf(CheckNegativePriority, Warning, line, key,
			"rule %q has negative priority %d; priorities order root causes and should be non-negative", key, r.Priority)
	}
	v.checkExpansion(r, line, "symptom", r.Temporal.Symptom, symDef, symOK)
	v.checkExpansion(r, line, "diagnostic", r.Temporal.Diagnostic, diagDef, diagOK)
}

// checkExpansion vets one side's three temporal parameters.
func (v *vetter) checkExpansion(r dgraph.Rule, line int, side string, x temporal.Expansion, def event.Definition, defined bool) {
	key := r.Key()
	// An expansion with Left+Right < 0 anchored at a single instant
	// (start/start, end/end) is empty for every instance; anchored at
	// start/end it is empty for any instance shorter than the deficit.
	if x.Left+x.Right < 0 {
		if x.Option == temporal.StartEnd {
			v.addf(CheckEmptyWindow, Warning, line, key,
				"rule %q %s window (%s) is empty for instances shorter than %s", key, side, x, -(x.Left + x.Right))
		} else {
			v.addf(CheckEmptyWindow, Error, line, key,
				"rule %q %s window (%s) is always empty: the rule can never join", key, side, x)
		}
	}
	ret := v.opts.Retention
	if x.Left > ret || x.Right > ret {
		v.addf(CheckRetention, Warning, line, key,
			"rule %q %s margin (%s) reaches beyond the store's %s retention", key, side, x, ret)
	}
	// SNMP feeds arrive in 5-minute bins: a condition reported in a bin
	// may have occurred anywhere inside it, so margins finer than the bin
	// express precision the data does not have and miss joins.
	if defined && def.Source == event.SourceSNMP && (x.Left < dgraph.SNMPBin || x.Right < dgraph.SNMPBin) {
		v.addf(CheckSNMPMargin, Warning, line, key,
			"rule %q %s event %q is SNMP-sourced (5-minute bins) but its margins (%s) are finer than the bin", key, side, def.Name, x)
	}
}

// checkGraph runs whole-graph checks: root fan-out, reachability from the
// root, cycles, and priority inversions along evidence chains.
func (v *vetter) checkGraph(spec *rulespec.Spec, lib *event.Library, edges []edge) {
	bySymptom := map[string][]edge{}
	for _, e := range edges {
		bySymptom[e.rule.Symptom] = append(bySymptom[e.rule.Symptom], e)
	}
	if len(edges) > 0 && len(bySymptom[spec.Root]) == 0 {
		v.addf(CheckRootNoRules, Warning, spec.Line, spec.Root,
			"root %q has no diagnosis rules: every symptom will be Unknown", spec.Root)
	}

	// Reachability from the root.
	reach := map[string]bool{spec.Root: true}
	queue := []string{spec.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range bySymptom[n] {
			if !reach[e.rule.Diagnostic] {
				reach[e.rule.Diagnostic] = true
				queue = append(queue, e.rule.Diagnostic)
			}
		}
	}
	for _, e := range edges {
		if !reach[e.rule.Symptom] {
			v.addf(CheckUnreachableRule, Error, e.line, e.rule.Key(),
				"rule %q is unreachable from root %q: it can never contribute evidence", e.rule.Key(), spec.Root)
		}
	}

	// Cycle detection (iterative DFS with colors), reporting each cycle
	// once at the edge that closes it.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(n string, path []string)
	visit = func(n string, path []string) {
		color[n] = gray
		path = append(path, n)
		for _, e := range bySymptom[n] {
			d := e.rule.Diagnostic
			switch color[d] {
			case gray:
				v.addf(CheckGraphCycle, Error, e.line, e.rule.Key(),
					"rule %q closes a causal cycle (%s): evidence-based reasoning cannot terminate", e.rule.Key(), cyclePath(path, d))
			case white:
				visit(d, path)
			}
		}
		color[n] = black
	}
	names := make([]string, 0, len(bySymptom))
	for n := range bySymptom {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if color[n] == white {
			visit(n, nil)
		}
	}

	// Priority inversion: dgraph's documented ordering is that deeper
	// causes carry higher priorities, so the max-priority leaf wins. A
	// child edge with a lower priority than its parent edge means the
	// deeper (more specific) cause loses to the shallower one.
	for _, parent := range edges {
		for _, child := range bySymptom[parent.rule.Diagnostic] {
			if child.rule.Priority < parent.rule.Priority {
				v.addf(CheckPriorityInverted, Warning, child.line, child.rule.Key(),
					"rule %q (priority %d) is deeper than %q (priority %d) but carries a lower priority: the deeper cause can never win",
					child.rule.Key(), child.rule.Priority, parent.rule.Key(), parent.rule.Priority)
			}
		}
	}
}

// cyclePath renders the cycle closed by reaching `to` along path.
func cyclePath(path []string, to string) string {
	start := 0
	for i, n := range path {
		if n == to {
			start = i
			break
		}
	}
	s := ""
	for _, n := range path[start:] {
		s += fmt.Sprintf("%q -> ", n)
	}
	return s + fmt.Sprintf("%q", to)
}

// CheckCatalogue vets the compiled-in Knowledge Library: every catalogue
// rule's endpoints must be defined events and its joins and windows sane.
// Findings are attributed to the pseudo-file "catalogue" with no lines.
func CheckCatalogue(opts Options) []Finding {
	opts = opts.withDefaults()
	v := &vetter{file: "catalogue", opts: opts}
	for _, r := range opts.Catalogue.All() {
		v.checkRule(opts.Base, r, 0)
	}
	sort.SliceStable(v.findings, func(i, j int) bool {
		a, b := v.findings[i], v.findings[j]
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		return a.Check < b.Check
	})
	return v.findings
}

// ErrorCount returns the number of error-level findings.
func ErrorCount(fs []Finding) int {
	n := 0
	for _, f := range fs {
		if f.Severity == Error {
			n++
		}
	}
	return n
}

// MaxSeverity returns the highest severity present, or Info for an empty
// list.
func MaxSeverity(fs []Finding) Severity {
	max := Info
	for _, f := range fs {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max
}
