package browser

import (
	"errors"
	"fmt"
	"time"

	"grca/internal/dgraph"
	"grca/internal/nice"
)

// ErrUntestable marks a rule the Correlation Tester could not assess on
// the given window — one of the event series never occurs there. Callers
// (grca vet -validate) distinguish it with errors.Is: untestable is not
// the same as inaccurate, and on sparse data it is not even suspicious.
var ErrUntestable = errors.New("browser: rule untestable on this window")

// RuleVerdict is the Correlation Tester's assessment of one diagnosis
// rule (paper §II-E: "the diagnosis rule is only considered to be accurate
// when it passes the test").
type RuleVerdict struct {
	Rule   dgraph.Rule
	Result nice.Result
	// Err is set when the rule could not be tested on this data (e.g. one
	// of the event series never occurs); untestable is not the same as
	// inaccurate.
	Err error
}

// ValidateRule tests the statistical correlation between a rule's symptom
// and diagnostic event series over [from, to]. The series are smoothed by
// the rule's own temporal margins so that a causal lag the rule models
// (e.g. the 180 s BGP hold timer) does not defeat the test.
func (m Miner) ValidateRule(r dgraph.Rule, from, to time.Time) RuleVerdict {
	n := int(to.Sub(from)/mineBin) + 1
	if n < 8 {
		return RuleVerdict{Rule: r, Err: fmt.Errorf("browser: validation window too short")}
	}
	symIns := m.Store.Query(r.Symptom, from, to)
	diagIns := m.Store.Query(r.Diagnostic, from, to)
	if len(symIns) == 0 || len(diagIns) == 0 {
		return RuleVerdict{Rule: r, Err: fmt.Errorf("%w: no instances of %q and/or %q",
			ErrUntestable, r.Symptom, r.Diagnostic)}
	}
	// Smoothing radius: the rule's widest temporal reach, in bins.
	reach := r.Temporal.Symptom.Left
	for _, d := range []time.Duration{r.Temporal.Symptom.Right, r.Temporal.Diagnostic.Left, r.Temporal.Diagnostic.Right} {
		if d > reach {
			reach = d
		}
	}
	radius := int(reach/mineBin) + 1
	sym := nice.FromInstances(symIns, from, mineBin, n).Smooth(radius)
	diag := nice.FromInstances(diagIns, from, mineBin, n).Smooth(radius)
	res, err := nice.Tester{}.Test(sym, diag)
	if err != nil {
		return RuleVerdict{Rule: r, Err: err}
	}
	return RuleVerdict{Rule: r, Result: res}
}

// ValidateGraph runs ValidateRule over every edge of a diagnosis graph —
// the periodic retest G-RCA applies to keep diagnosis rules up to date
// (§II-E). Verdicts are returned in the graph's rule order.
func (m Miner) ValidateGraph(g *dgraph.Graph, from, to time.Time) []RuleVerdict {
	rules := g.Rules()
	out := make([]RuleVerdict, 0, len(rules))
	for _, r := range rules {
		out = append(out, m.ValidateRule(r, from, to))
	}
	return out
}
