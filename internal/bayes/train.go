package bayes

import (
	"fmt"
	"sort"
)

// Labeled is one training example: an evidence vector with its known (or
// rule-based-diagnosed) root-cause class. The paper bootstraps Bayesian
// parameters "from classified historical data, which we can bootstrap
// using the rule-based reasoning" (§II-D.2).
type Labeled struct {
	Class    string
	Evidence Evidence
}

// TrainOptions tunes parameter estimation.
type TrainOptions struct {
	// Smoothing is the Laplace pseudo-count guarding zero frequencies
	// (default 1).
	Smoothing float64
	// MinExamples drops classes with fewer training examples (default 1).
	MinExamples int
}

// Train estimates a classifier configuration from labeled examples:
// priors from class frequencies and per-feature likelihood ratios
// p(e|r)/p(e|r̄) with Laplace smoothing. Both presence and absence ratios
// are populated, so missing evidence counts against classes that usually
// exhibit it.
//
//lint:ignore deadcode TestBootstrapTraining reproduces the §II-D.2 bootstrap from rule-based diagnoses
func Train(examples []Labeled, opts TrainOptions) (*Config, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("bayes: no training examples")
	}
	if opts.Smoothing <= 0 {
		opts.Smoothing = 1
	}
	if opts.MinExamples <= 0 {
		opts.MinExamples = 1
	}

	features := map[string]bool{}
	classCount := map[string]int{}
	// present[class][feature] = examples of class with feature observed.
	present := map[string]map[string]int{}
	for _, ex := range examples {
		if ex.Class == "" {
			return nil, fmt.Errorf("bayes: training example without a class")
		}
		classCount[ex.Class]++
		if present[ex.Class] == nil {
			present[ex.Class] = map[string]int{}
		}
		for f, on := range ex.Evidence {
			features[f] = true
			if on {
				present[ex.Class][f]++
			}
		}
	}

	classes := make([]string, 0, len(classCount))
	for c, n := range classCount {
		if n >= opts.MinExamples {
			classes = append(classes, c)
		}
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("bayes: every class below MinExamples=%d", opts.MinExamples)
	}
	sort.Strings(classes)

	total := len(examples)
	s := opts.Smoothing
	cfg := NewConfig()
	for _, c := range classes {
		nc := classCount[c]
		rest := total - nc
		cl := Class{
			Name:    c,
			Prior:   Ratio((float64(nc) + s) / (float64(rest) + s)),
			Present: map[string]Ratio{},
			Absent:  map[string]Ratio{},
		}
		for f := range features {
			inClass := present[c][f]
			elsewhere := 0
			for other, m := range present {
				if other != c {
					elsewhere += m[f]
				}
			}
			pPresent := (float64(inClass) + s) / (float64(nc) + 2*s)
			pPresentBar := (float64(elsewhere) + s) / (float64(rest) + 2*s)
			cl.Present[f] = Ratio(pPresent / pPresentBar)
			cl.Absent[f] = Ratio((1 - pPresent) / (1 - pPresentBar))
		}
		if err := cfg.AddClass(cl); err != nil {
			return nil, err
		}
	}
	return cfg, nil
}
