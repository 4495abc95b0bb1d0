package chaos

import (
	"sort"

	"grca/internal/engine"
	"grca/internal/platform"
	"grca/internal/simnet"
)

// LabelScore is the confusion tally for one root-cause label within a
// scenario: how often the engine named it correctly (TP), named it when
// the truth said otherwise (FP), and failed to name it when it was the
// injected cause (FN — including truth incidents no diagnosis matched at
// all, i.e. undetected symptoms).
type LabelScore struct {
	Label     string
	TP        int
	FP        int
	FN        int
	Precision float64 // TP / (TP+FP); 0 when the label was never predicted
	Recall    float64 // TP / (TP+FN); 0 when the label never resolved
}

// ScoreSummary scores one scenario's diagnoses against the injected
// ground truth of one study. Accuracy follows the platform scorer
// (correct / matched); Detection adds what that number hides — the
// fraction of injected incidents that produced *any* matched diagnosis.
// A fault that suppresses symptoms entirely leaves Accuracy flattering
// and Detection collapsed.
type ScoreSummary struct {
	Truths    int     // injected incidents for the study
	Matched   int     // diagnoses matched to a truth record
	Correct   int     // matched diagnoses whose top cause was the injected one
	Unmatched int     // diagnoses with no truth record within tolerance
	Missed    int     // truth records no diagnosis matched
	Accuracy  float64 // Correct / Matched
	Detection float64 // (Truths - Missed) / Truths
	Labels    []LabelScore
}

// Score matches each diagnosis to a truth record the way the platform
// scorer does (platform.MatchTruth: nearest same-location record of the
// study within tolerance, 10 minutes), then computes top-cause accuracy,
// detection and per-label precision/recall. The expected label for a truth kind
// follows platform.ExpectedLabel (what rule-based reasoning *can*
// conclude, e.g. a line-card crash presents as an interface flap, §IV-C).
func Score(truths []simnet.Truth, study string, ds []engine.Diagnosis) ScoreSummary {
	var s ScoreSummary
	counts := map[string]*LabelScore{}
	tally := func(label string) *LabelScore {
		ls := counts[label]
		if ls == nil {
			ls = &LabelScore{Label: label}
			counts[label] = ls
		}
		return ls
	}

	matched := map[*simnet.Truth]bool{}
	for i, tr := range platform.MatchTruth(truths, study, ds, tolerance) {
		if tr == nil {
			s.Unmatched++
			continue
		}
		matched[tr] = true
		s.Matched++
		expected := platform.ExpectedLabel(tr.Kind)
		predicted := ds[i].Primary()
		if predicted == expected {
			s.Correct++
			tally(expected).TP++
		} else {
			tally(predicted).FP++
			tally(expected).FN++
		}
	}
	for i := range truths {
		tr := &truths[i]
		if tr.Study != study {
			continue
		}
		s.Truths++
		if !matched[tr] {
			s.Missed++
			tally(platform.ExpectedLabel(tr.Kind)).FN++
		}
	}

	if s.Matched > 0 {
		s.Accuracy = float64(s.Correct) / float64(s.Matched)
	}
	if s.Truths > 0 {
		s.Detection = float64(s.Truths-s.Missed) / float64(s.Truths)
	}
	labels := make([]string, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		ls := counts[l]
		if ls.TP+ls.FP > 0 {
			ls.Precision = float64(ls.TP) / float64(ls.TP+ls.FP)
		}
		if ls.TP+ls.FN > 0 {
			ls.Recall = float64(ls.TP) / float64(ls.TP+ls.FN)
		}
		s.Labels = append(s.Labels, *ls)
	}
	return s
}
