package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// TestReplaceFile holds the one durable replace to its contract: after a
// success the new bytes are whole, a write that fails before the rename
// leaves the old ones, and a crash's stale temp file is overwritten, not
// appended to.
func TestReplaceFile(t *testing.T) {
	t.Run("success", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "sub", "MARKER") // the directory is made
		for _, content := range []string{"first, and longer\n", "2\n"} {
			if err := ReplaceFile(path+".tmp", path, []byte(content)); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != content {
				t.Fatalf("after replacing with %q: %q, %v", content, got, err)
			}
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("the temp file is left: %v", err)
		}
	})
	t.Run("two missing levels", func(t *testing.T) {
		root := t.TempDir()
		path := filepath.Join(root, "data", "snap", "MARKER")
		if err := ReplaceFile(path+".tmp", path, []byte("10\n")); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "10\n" {
			t.Fatalf("under two new directories: %q, %v", got, err)
		}
		entries, err := os.ReadDir(root)
		if err != nil || len(entries) != 1 || entries[0].Name() != "data" || !entries[0].IsDir() {
			t.Fatalf("the root holds %v (%v), want the one directory made", entries, err)
		}
	})
	t.Run("failed write keeps the old bytes", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "MARKER")
		if err := ReplaceFile(path+".tmp", path, []byte("old\n")); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(path+".tmp", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := ReplaceFile(path+".tmp", path, []byte("new\n")); err == nil {
			t.Fatal("a temp path that is a directory did not fail the replace")
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "old\n" {
			t.Fatalf("after a failed replace: %q, %v", got, err)
		}
	})
	t.Run("stale temp file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "MARKER")
		if err := os.WriteFile(path+".tmp", []byte("garbage a crash left, longer than the marker"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := ReplaceFile(path+".tmp", path, []byte("10\n")); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "10\n" {
			t.Fatalf("over a stale temp file: %q, %v", got, err)
		}
	})
}
