package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// FS abstracts the small slice of a filesystem the storage and WAL layers
// need. The production implementation (OSFS) forwards to the os package;
// internal/simdisk provides an in-memory fault-injecting implementation so
// crash tests can kill the process model at every syscall boundary.
//
// Durability contract (mirrors POSIX):
//   - File writes become durable only after File.Sync.
//   - File creation, Remove, and Rename become durable only after SyncDir
//     on the parent directory.
type FS interface {
	// OpenFile opens path with os-style flags (O_RDWR, O_CREATE, O_TRUNC,
	// O_EXCL are honoured by all implementations).
	OpenFile(path string, flag int) (File, error)
	// Remove deletes the named file.
	Remove(path string) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// MkdirAll creates a directory (and parents) if missing.
	MkdirAll(path string) error
	// ReadDir lists the file names (not full paths) in a directory, sorted.
	ReadDir(path string) ([]string, error)
	// SyncDir fsyncs a directory, making entry creates/renames/removes in
	// it durable.
	SyncDir(path string) error
	// Stat returns the size of the named file.
	Stat(path string) (int64, error)
}

// File is the handle surface used by pagers and the WAL.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	// Sync makes all completed writes durable.
	Sync() error
	Close() error
}

// OSFS is the real-filesystem FS.
type OSFS struct{}

// OpenFile implements FS.
func (OSFS) OpenFile(path string, flag int) (File, error) {
	return os.OpenFile(path, flag, 0o644)
}

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

// ReadDir implements FS.
func (OSFS) ReadDir(path string) ([]string, error) {
	ents, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS.
func (OSFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: open dir %s: %w", path, err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("storage: sync dir %s: %w", path, serr)
	}
	if cerr != nil {
		return fmt.Errorf("storage: close dir %s: %w", path, cerr)
	}
	return nil
}

// Stat implements FS.
func (OSFS) Stat(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// WriteFileAtomic writes data to path via a temp file in the same
// directory, fsyncs it, renames it over path, and fsyncs the parent
// directory — the full sequence required for the file to survive a crash
// with either the old or the new contents, never a torn mix.
func WriteFileAtomic(fs FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", tmp, err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		return fmt.Errorf("storage: write %s: %w", tmp, errors.Join(err, f.Close(), fs.Remove(tmp)))
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: sync %s: %w", tmp, errors.Join(err, f.Close(), fs.Remove(tmp)))
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: close %s: %w", tmp, errors.Join(err, fs.Remove(tmp)))
	}
	if err := fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("storage: rename %s -> %s: %w", tmp, path, errors.Join(err, fs.Remove(tmp)))
	}
	if err := fs.SyncDir(dir); err != nil {
		return err
	}
	return nil
}
