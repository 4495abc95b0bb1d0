package wal

import (
	"os"
	"path/filepath"
)

// ReplaceFile makes data the content of path durably: the temp file tmp
// beside it, fdatasynced, renamed over it, the directory fsynced (made as
// needed, each directory made fsynced into its parent). After a power cut
// path is the old file or the new one, whole, and in place before
// anything written behind it. It is the one way a data-dir file is
// replaced — a manifest, and the server's markers (FORMAT, REPLICA). A
// tmp a crash left is overwritten, never read.
func ReplaceFile(tmp, path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := mkdirAll(dir); err != nil {
		return err
	}
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	if err := commitFile(f, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// RemoveFile unlinks path durably: the unlink, then its directory's
// fsync. A path already gone is removed.
func RemoveFile(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// RemoveJournalAndCheckpoints removes everything of the history under
// dir — the journal, head and tail, and the checkpoints — for a follower
// that resyncs from its primary. What else dir holds stays.
func RemoveJournalAndCheckpoints(dir string) error {
	paths, err := JournalFiles(dir)
	if err != nil {
		return err
	}
	for _, p := range paths {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return RemoveCheckpoints(dir)
}

// RemoveCheckpoints removes the checkpoints under dir, so that recovery
// refills the store from the journal alone.
func RemoveCheckpoints(dir string) error { return os.RemoveAll(snapDir(dir)) }

// commitFile syncs and closes a written temp file and renames it to path.
func commitFile(f *os.File, path string) error {
	err := fileSync(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// mkdirAll makes dir and any parent it lacks, each fsynced into its
// parent, so that a power cut takes back neither them nor what is
// written under them.
func mkdirAll(dir string) error {
	parent := filepath.Dir(dir)
	if _, err := os.Stat(dir); !os.IsNotExist(err) || parent == dir {
		return err
	}
	if err := mkdirAll(parent); err != nil {
		return err
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	return syncDir(parent)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
