package bayes

import (
	"math"
	"testing"
	"testing/quick"
)

// fig8Config builds the Bayesian configuration of Fig. 8: three virtual
// root causes for the BGP-flap application. A line-card issue predicts
// simultaneous flaps across sessions sharing the card; an interface issue
// predicts a single-session flap with link-level evidence; a CPU issue
// predicts hold-timer expiry with high CPU.
func fig8Config(t *testing.T) *Config {
	t.Helper()
	c := NewConfig()
	add := func(cl Class) {
		t.Helper()
		if err := c.AddClass(cl); err != nil {
			t.Fatal(err)
		}
	}
	add(Class{
		Name:  "CPU High Issue",
		Prior: Low,
		Present: map[string]Ratio{
			"cpu-high": High, "ebgp-hte": Medium,
		},
		Absent: map[string]Ratio{"cpu-high": 1.0 / 50},
	})
	add(Class{
		Name:  "Interface Issue",
		Prior: Medium,
		Present: map[string]Ratio{
			"interface-flap": High, "line-proto-flap": Medium,
			"same-card-multi-flap": 1.0 / 100, // a lone interface issue does not flap the whole card
		},
	})
	add(Class{
		Name:  "Line-card Issue",
		Prior: Low,
		Present: map[string]Ratio{
			"interface-flap": Medium, "same-card-multi-flap": High,
		},
	})
	return c
}

func TestSingleSymptomInterfaceIssue(t *testing.T) {
	c := fig8Config(t)
	res, err := c.Classify(Evidence{"interface-flap": true, "line-proto-flap": true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != "Interface Issue" {
		t.Errorf("best = %q, want Interface Issue (ranked %+v)", res.Best, res.Ranked)
	}
}

func TestCPUIssue(t *testing.T) {
	c := fig8Config(t)
	res, err := c.Classify(Evidence{"cpu-high": true, "ebgp-hte": true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != "CPU High Issue" {
		t.Errorf("best = %q (ranked %+v)", res.Best, res.Ranked)
	}
}

// TestLineCardJointInference reproduces the §IV-C scenario shape: many
// flaps on sessions sharing one line card, each with an interface-flap
// signature. Per-instance classification says Interface Issue (the
// rule-based answer); joint classification over the group with the
// same-card feature says Line-card Issue.
func TestLineCardJointInference(t *testing.T) {
	c := fig8Config(t)
	single := Evidence{"interface-flap": true}
	res, err := c.Classify(single)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != "Interface Issue" {
		t.Fatalf("single-flap best = %q", res.Best)
	}

	group := make([]Evidence, 133)
	for i := range group {
		group[i] = Evidence{"interface-flap": true, "same-card-multi-flap": true}
	}
	jres, err := c.ClassifyJoint(group)
	if err != nil {
		t.Fatal(err)
	}
	if jres.Best != "Line-card Issue" {
		t.Errorf("joint best = %q, want Line-card Issue (ranked %+v)", jres.Best, jres.Ranked)
	}
}

func TestAbsenceCountsAgainst(t *testing.T) {
	c := fig8Config(t)
	// HTE without CPU evidence: the CPU class is penalized by its Absent
	// ratio, so Interface Issue (prior Medium) wins over it even with no
	// interface evidence at all... with no features present except HTE.
	res, err := c.Classify(Evidence{"ebgp-hte": true})
	if err != nil {
		t.Fatal(err)
	}
	// CPU: log(2) + log(100) + log(1/50) = log(4). Interface: log(100).
	if res.Best != "Interface Issue" {
		t.Errorf("best = %q (ranked %+v)", res.Best, res.Ranked)
	}
}

func TestValidation(t *testing.T) {
	c := NewConfig()
	if err := c.AddClass(Class{Prior: Low}); err == nil {
		t.Error("nameless class accepted")
	}
	if err := c.AddClass(Class{Name: "x", Prior: 0}); err == nil {
		t.Error("zero prior accepted")
	}
	if err := c.AddClass(Class{Name: "x", Prior: Low, Present: map[string]Ratio{"f": -1}}); err == nil {
		t.Error("negative ratio accepted")
	}
	if err := c.AddClass(Class{Name: "x", Prior: Low, Absent: map[string]Ratio{"f": 0}}); err == nil {
		t.Error("zero absence ratio accepted")
	}
	if err := c.AddClass(Class{Name: "x", Prior: Low}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddClass(Class{Name: "x", Prior: Low}); err == nil {
		t.Error("duplicate class accepted")
	}
	if _, err := c.Classify(nil); err != nil {
		t.Errorf("nil evidence should classify with defaults: %v", err)
	}
	if _, err := c.ClassifyJoint(nil); err == nil {
		t.Error("empty joint classification accepted")
	}
	if _, err := NewConfig().Classify(Evidence{}); err == nil {
		t.Error("classless classification accepted")
	}
}

func TestClassesAndFeatures(t *testing.T) {
	c := fig8Config(t)
	if got := c.Classes(); len(got) != 3 || got[0] != "CPU High Issue" {
		t.Errorf("Classes = %v", got)
	}
	f := c.Features()
	if len(f) != 5 {
		t.Errorf("Features = %v", f)
	}
	for i := 1; i < len(f); i++ {
		if f[i-1] > f[i] {
			t.Fatal("Features not sorted")
		}
	}
}

// TestScaleInvariance is the paper's observation that multiplying the
// probability parameters by a constant does not change the argmax: adding
// the same log-constant to every class's prior preserves the ranking. Two
// classes whose log-odds tie (within 1e-9) under either scale have no
// argmax to preserve — floating point breaks an exact tie one way at one
// scale and the other way at another — so either Best passes.
func TestScaleInvariance(t *testing.T) {
	tied := func(r Result) bool {
		return len(r.Ranked) == 2 && math.Abs(r.Ranked[0].LogOdds-r.Ranked[1].LogOdds) < 1e-9
	}
	f := func(p1, p2, e1, e2 uint8, present bool) bool {
		mk := func(scale float64) *Config {
			c := NewConfig()
			c.AddClass(Class{Name: "a", Prior: Ratio(float64(p1%50+1) * scale),
				Present: map[string]Ratio{"f": Ratio(e1%50 + 1)}})
			c.AddClass(Class{Name: "b", Prior: Ratio(float64(p2%50+1) * scale),
				Present: map[string]Ratio{"f": Ratio(e2%50 + 1)}})
			return c
		}
		ev := Evidence{"f": present}
		r1, err1 := mk(1).Classify(ev)
		r2, err2 := mk(1000).Classify(ev)
		return err1 == nil && err2 == nil && (r1.Best == r2.Best || tied(r1) || tied(r2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestJointMonotone: adding another instance with supporting evidence for
// class X can only improve X's standing relative to a class indifferent to
// that evidence.
func TestJointMonotone(t *testing.T) {
	c := fig8Config(t)
	ev := Evidence{"interface-flap": true, "same-card-multi-flap": true}
	gap := func(n int) float64 {
		evs := make([]Evidence, n)
		for i := range evs {
			evs[i] = ev
		}
		res, err := c.ClassifyJoint(evs)
		if err != nil {
			t.Fatal(err)
		}
		var lc, ii float64
		for _, s := range res.Ranked {
			switch s.Class {
			case "Line-card Issue":
				lc = s.LogOdds
			case "Interface Issue":
				ii = s.LogOdds
			}
		}
		return lc - ii
	}
	if !(gap(10) > gap(2) && gap(2) > gap(1)) {
		t.Errorf("joint evidence not monotone: %v %v %v", gap(1), gap(2), gap(10))
	}
}

func TestLogOddsFinite(t *testing.T) {
	c := fig8Config(t)
	evs := make([]Evidence, 10000)
	for i := range evs {
		evs[i] = Evidence{"interface-flap": true}
	}
	res, err := c.ClassifyJoint(evs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Ranked {
		if math.IsInf(s.LogOdds, 0) || math.IsNaN(s.LogOdds) {
			t.Errorf("log-odds overflowed: %+v", s)
		}
	}
}
