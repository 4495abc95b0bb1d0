// Command grcalint runs the project's custom analyzers (internal/lint)
// over the module: the clock discipline (nakedtime, utctime), stdout
// hygiene (noprint), deterministic-output (mapiter), event-identity
// (instident) and raw-memory (rawmem) checks, the
// concurrency-correctness suite (lockorder, deferunlock, atomicmix,
// hookreentry, goroutinelife) that ordinary go vet cannot express, and
// deadcode (internal declarations no non-test file references). It is
// a multichecker in the golang.org/x/tools/go/analysis mold, built on the
// standard library alone.
//
// Usage:
//
//	grcalint [-list] [-json] [-allow file] [package ...]
//
// With no arguments every package in the module is checked. Package
// arguments are import paths ("grca/internal/engine") or "./..." for the
// whole module; with import paths, deadcode (which needs every caller)
// does not run and a //lint:ignore that suppresses nothing is not
// reported. -json emits the findings as the same JSON envelope `grca
// vet -json` uses, so downstream tooling can merge the two streams.
// -allow overrides the embedded lock-order allowlist
// (internal/lint/lockorder.allow). Exit status is 1 when any diagnostic
// is reported, 2 on load failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"grca/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	dir := flag.String("C", ".", "module root directory")
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array (grca vet envelope)")
	allowPath := flag.String("allow", "", "lock-order allowlist file (default: embedded lockorder.allow)")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}

	loader, err := lint.NewLoader(*dir)
	if err != nil {
		fail(err)
	}
	paths := flag.Args()
	partial := !(len(paths) == 0 || (len(paths) == 1 && paths[0] == "./..."))
	if !partial {
		if paths, err = loader.Walk(); err != nil {
			fail(err)
		}
	}

	passes := make([]*lint.Pass, 0, len(paths))
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fail(err)
		}
		passes = append(passes, pkg.Pass(loader.Fset))
	}
	prog := lint.NewProgram(passes)
	prog.Partial = partial
	if *allowPath != "" {
		src, err := os.ReadFile(*allowPath)
		if err != nil {
			fail(err)
		}
		if prog.Allow, err = lint.ParseAllowlist(*allowPath, string(src)); err != nil {
			fail(fmt.Errorf("%s: %v", *allowPath, err))
		}
	}

	diags := lint.RunSuite(prog, lint.Analyzers())
	if *asJSON {
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "grcalint: %d diagnostics\n", len(diags))
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "grcalint: %v\n", err)
	os.Exit(2)
}
