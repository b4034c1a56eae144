// Package durable holds the crash-safety primitives the corpus store
// and the model registry share: fsynced file writes, directory syncs,
// the tmp + rename manifest commit, and a quarantine that never
// overwrites the evidence of an earlier crash.
package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// QuarantineDir is the subdirectory damaged or uncommitted files are
// moved into.
const QuarantineDir = "quarantine"

// WriteFile writes data to path and fsyncs it before closing.
func WriteFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SyncDir best-effort fsyncs a directory so renames in it are durable.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // advisory on platforms without dir fsync
		d.Close()
	}
}

// SyncTree fsyncs every regular file directly under dir, then dir
// itself.
func SyncTree(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, de.Name()))
		if err != nil {
			return err
		}
		serr := f.Sync()
		f.Close()
		if serr != nil {
			return serr
		}
	}
	SyncDir(dir)
	return nil
}

// Commit atomically replaces dir/name with data: it writes and fsyncs
// dir/name.tmp, renames it over dir/name and syncs dir. A failed rename
// removes the tmp, so no half-commit residue survives.
func Commit(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	if err := WriteFile(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort; RemoveStaleTmp sweeps it at the next open
		return err
	}
	SyncDir(dir)
	return nil
}

// RemoveStaleTmp deletes dir/name.tmp, the residue of a Commit whose
// rename never happened. Call it once dir/name has been read: the
// committed file is the truth.
func RemoveStaleTmp(dir, name string) error {
	if err := os.Remove(filepath.Join(dir, name+".tmp")); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("removing stale %s.tmp: %w", name, err)
	}
	return nil
}

// Quarantine moves dir/name into dir/quarantine/ and returns the name
// it landed under: name itself, or name.1, name.2, ... when an earlier
// crash already left a file of that name there.
func Quarantine(dir, name string) (string, error) {
	qdir, dst, err := freeName(dir, name)
	if err != nil {
		return "", err
	}
	if err := os.Rename(filepath.Join(dir, name), filepath.Join(qdir, dst)); err != nil {
		return "", err
	}
	SyncDir(dir)
	return dst, nil
}

// QuarantineFile writes data as a new file in dir/quarantine/ under
// name, or under the first of name.1, name.2, ... not already taken,
// and returns the name it used.
func QuarantineFile(dir, name string, data []byte) (string, error) {
	qdir, dst, err := freeName(dir, name)
	if err != nil {
		return "", err
	}
	return dst, WriteFile(filepath.Join(qdir, dst), data)
}

// freeName creates dir/quarantine/ if needed and returns it with the
// first of name, name.1, name.2, ... that does not exist in it.
func freeName(dir, name string) (qdir, free string, err error) {
	qdir = filepath.Join(dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", "", err
	}
	free = name
	for i := 1; ; i++ {
		_, err := os.Lstat(filepath.Join(qdir, free))
		if errors.Is(err, fs.ErrNotExist) {
			return qdir, free, nil
		}
		if err != nil {
			return "", "", err
		}
		free = fmt.Sprintf("%s.%d", name, i)
	}
}
