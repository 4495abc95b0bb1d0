// Package bayes implements G-RCA's Bayesian inference engine (paper
// §II-D.2): a Naive Bayes classifier in which the potential root causes
// are the classes and the presence or absence of diagnostic evidence are
// the features. The engine selects the class with the maximum likelihood
// ratio
//
//	argmax_r  p(r)/p(r̄) × Π_i p(e_i|r)/p(e_i|r̄)
//
// Ratios are configured with the paper's fuzzy discrete values Low,
// Medium, and High (2, 100, and 20000); because only the argmax matters,
// any constant scaling of the underlying probabilities cancels, which is
// why the coarse integer ratios work (§II-D.2).
//
// Unlike rule-based reasoning, classes may be *virtual* (unobservable)
// root causes with no event signature of their own — e.g. "Line-card
// Issue" — and multiple symptom instances can be classified jointly to
// deduce a common root cause (§IV-C).
package bayes

import (
	"fmt"
	"math"
	"sort"
)

// Ratio is a likelihood ratio. The fuzzy values below follow the paper;
// arbitrary positive values are also accepted (e.g. trained from
// rule-classified historical data).
type Ratio float64

const (
	// Low ≈ weak support (ratio 2).
	Low Ratio = 2
	// Medium ≈ moderate support (ratio 100).
	Medium Ratio = 100
	// High ≈ strong support (ratio 20000).
	High Ratio = 20000
)

// Class is one candidate root cause.
type Class struct {
	// Name labels the root cause; virtual causes need no event signature.
	Name string
	// Prior is the a-priori odds ratio p(r)/p(r̄).
	Prior Ratio
	// Present maps a feature to the ratio p(e|r)/p(e|r̄) applied when the
	// feature is observed.
	Present map[string]Ratio
	// Absent maps a feature to the ratio applied when the feature is NOT
	// observed; unlisted features default to ratio 1 (no information).
	// Use a value below 1 to make missing evidence count against the
	// class.
	Absent map[string]Ratio
}

// Evidence is the feature vector of one symptom instance: feature → was it
// observed. Features missing from the map are treated as absent.
type Evidence map[string]bool

// Config is a classifier configuration.
type Config struct {
	classes  []Class
	features map[string]bool
}

// NewConfig returns an empty classifier configuration.
func NewConfig() *Config { return &Config{features: map[string]bool{}} }

// AddClass registers a root-cause class. Names must be unique and all
// ratios positive.
func (c *Config) AddClass(cl Class) error {
	if cl.Name == "" {
		return fmt.Errorf("bayes: class without a name")
	}
	for _, existing := range c.classes {
		if existing.Name == cl.Name {
			return fmt.Errorf("bayes: duplicate class %q", cl.Name)
		}
	}
	if cl.Prior <= 0 {
		return fmt.Errorf("bayes: class %q has non-positive prior", cl.Name)
	}
	for f, r := range cl.Present {
		if r <= 0 {
			return fmt.Errorf("bayes: class %q feature %q has non-positive ratio", cl.Name, f)
		}
		c.features[f] = true
	}
	for f, r := range cl.Absent {
		if r <= 0 {
			return fmt.Errorf("bayes: class %q feature %q has non-positive absence ratio", cl.Name, f)
		}
		c.features[f] = true
	}
	c.classes = append(c.classes, cl)
	return nil
}

// Classes returns the configured class names in add order.
//
//lint:ignore deadcode TestBayesConfig reads the classes of bgpflap's hand-set classifier
func (c *Config) Classes() []string {
	out := make([]string, len(c.classes))
	for i, cl := range c.classes {
		out[i] = cl.Name
	}
	return out
}

// Score is one class's posterior log-odds.
type Score struct {
	Class string
	// LogOdds is log(prior ratio) + Σ log(evidence ratios); comparable
	// across classes of the same classification only.
	LogOdds float64
}

// Result ranks all classes for a classification.
type Result struct {
	// Best is the maximum-likelihood-ratio class.
	Best string
	// Ranked lists all classes, best first. Ties break by add order.
	Ranked []Score
}

// Classify scores a single symptom's evidence vector.
//
//lint:ignore deadcode BenchmarkAblationReasoners classifies each symptom alone against the rule-based verdict
func (c *Config) Classify(ev Evidence) (Result, error) {
	return c.ClassifyJoint([]Evidence{ev})
}

// ClassifyJoint scores a set of symptom instances together and deduces
// their common root cause: each class's log-odds accumulates the evidence
// ratios of every instance. This is the paper's multi-symptom inference —
// the mode that identified the line-card crash behind 133 near-simultaneous
// eBGP flaps.
func (c *Config) ClassifyJoint(evs []Evidence) (Result, error) {
	if len(c.classes) == 0 {
		return Result{}, fmt.Errorf("bayes: no classes configured")
	}
	if len(evs) == 0 {
		return Result{}, fmt.Errorf("bayes: no evidence to classify")
	}
	scores := make([]Score, len(c.classes))
	for i, cl := range c.classes {
		s := math.Log(float64(cl.Prior))
		for _, ev := range evs {
			for f := range c.features {
				if ev[f] {
					if r, ok := cl.Present[f]; ok {
						s += math.Log(float64(r))
					}
				} else if r, ok := cl.Absent[f]; ok {
					s += math.Log(float64(r))
				}
			}
		}
		scores[i] = Score{Class: cl.Name, LogOdds: s}
	}
	ranked := append([]Score(nil), scores...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].LogOdds > ranked[j].LogOdds })
	return Result{Best: ranked[0].Class, Ranked: ranked}, nil
}
