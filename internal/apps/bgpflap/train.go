package bgpflap

import (
	"grca/internal/bayes"
	"grca/internal/engine"
	"grca/internal/event"
)

// ClassOf maps a rule-based primary label onto the Bayesian class
// hierarchy of Fig. 8: the layer events roll up to the Interface Issue,
// CPU evidence to the CPU High Issue, customer actions to Customer Action.
// Labels with no class (Unknown, reboot) return "".
func ClassOf(primary string) string {
	switch primary {
	case event.InterfaceFlap, event.LineProtoFlap,
		event.SONETRestoration, event.OpticalFast, event.OpticalRegular:
		return ClassIface
	case event.CPUHighSpike, event.CPUHighAverage, event.EBGPHoldTimerExpired:
		return ClassCPU
	case event.CustomerResetSession:
		return ClassCustomer
	}
	return ""
}

// TrainingSet converts rule-based diagnoses into labeled Bayesian
// training examples — the paper's bootstrap of inference parameters from
// rule-classified historical data (§II-D.2). Diagnoses whose label maps to
// no class are skipped.
//
//lint:ignore deadcode TestBootstrapTraining reproduces the §II-D.2 bootstrap from rule-based diagnoses
func TrainingSet(ds []engine.Diagnosis) []bayes.Labeled {
	var out []bayes.Labeled
	for _, d := range ds {
		class := ClassOf(d.Primary())
		if class == "" {
			continue
		}
		out = append(out, bayes.Labeled{Class: class, Evidence: Features(d)})
	}
	return out
}
