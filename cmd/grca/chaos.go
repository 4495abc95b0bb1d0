package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"grca/internal/chaos"
	"grca/internal/platform"
)

// runChaos executes the fault-injection scenario matrix over a dataset
// bundle and emits the deterministic JSON accuracy report.
func runChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	data := fs.String("data", "", "dataset bundle directory (required; must carry ground truth)")
	seed := fs.Int64("seed", 1, "injection seed; the same seed reproduces the report byte for byte")
	faults := fs.String("faults", "", "comma-separated fault classes (default all: "+faultList()+")")
	appsFlag := fs.String("apps", "", "comma-separated applications (default all)")
	out := fs.String("o", "", "write the JSON report to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("chaos: -data is required")
	}

	bundle, err := platform.Load(*data)
	if err != nil {
		return err
	}
	if len(bundle.Truth) == 0 {
		return fmt.Errorf("chaos: bundle %s carries no ground truth; accuracy cannot be scored", *data)
	}

	opts := chaos.Options{Seed: *seed}
	if *appsFlag != "" {
		opts.Apps = strings.Split(*appsFlag, ",")
	}
	if *faults != "" {
		known := map[chaos.Fault]bool{}
		for _, f := range chaos.AllFaults() {
			known[f] = true
		}
		for _, name := range strings.Split(*faults, ",") {
			f := chaos.Fault(strings.TrimSpace(name))
			if !known[f] {
				return fmt.Errorf("chaos: unknown fault %q (have %s)", name, faultList())
			}
			opts.Faults = append(opts.Faults, f)
		}
	}

	rep, err := chaos.RunMatrix(bundle, opts)
	if err != nil {
		return err
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out != "" {
		return os.WriteFile(*out, enc, 0o644)
	}
	_, err = os.Stdout.Write(enc)
	return err
}

func faultList() string {
	var names []string
	for _, f := range chaos.AllFaults() {
		names = append(names, string(f))
	}
	return strings.Join(names, ",")
}
