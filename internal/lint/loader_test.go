package lint

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// repo is the module this package lints, loaded once for every test that
// type-checks the whole of it: the Loader caches each package it checks,
// so a second test's Load of the same path costs nothing.
var repo struct {
	once  sync.Once
	l     *Loader
	paths []string // Walk's
	err   error
}

// loadRepo returns the shared loader over the module and its Walk.
func loadRepo(t *testing.T) (*Loader, []string) {
	t.Helper()
	repo.once.Do(func() {
		if repo.l, repo.err = NewLoader("../.."); repo.err == nil {
			repo.paths, repo.err = repo.l.Walk()
		}
	})
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.l, repo.paths
}

// TestWalkCoversInternalPackages is the regression gate for the loader
// satellite: every directory under internal/ that holds non-test Go
// files must appear in Walk's output and load successfully. A loader
// that silently skips a package (as a stale importer could after the
// PR 4–6 package additions) makes grcalint report "clean" vacuously.
func TestWalkCoversInternalPackages(t *testing.T) {
	l, paths := loadRepo(t)
	seen := map[string]bool{}
	for _, p := range paths {
		seen[p] = true
	}

	root := filepath.Join("..", "..")
	var wantPkgs []string
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor" {
			return filepath.SkipDir
		}
		files, err := sourceFiles(path)
		if err != nil || len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		wantPkgs = append(wantPkgs, "grca/"+filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantPkgs) < 15 {
		t.Fatalf("filesystem scan found only %d internal packages: %v", len(wantPkgs), wantPkgs)
	}
	for _, p := range wantPkgs {
		if !seen[p] {
			t.Errorf("Walk silently skipped %s", p)
			continue
		}
		if _, err := l.Load(p); err != nil {
			t.Errorf("Load(%s): %v", p, err)
		}
	}

	// The packages PRs 4–6 added must be in the covered set by name —
	// guards against the filesystem scan and Walk sharing a blind spot.
	for _, p := range []string{
		"grca/internal/rollup", "grca/internal/wal", "grca/internal/server",
		"grca/internal/realtime", "grca/internal/store", "grca/internal/obs",
		"grca/internal/engine", "grca/internal/ospf", "grca/internal/bgp",
		"grca/internal/lint", "grca/internal/grcavet", "grca/internal/chaos",
	} {
		if !seen[p] {
			t.Errorf("Walk missed %s", p)
		}
	}
}
