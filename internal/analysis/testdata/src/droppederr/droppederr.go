// Package droppederr is an analyzer fixture: errors dropped from the
// durable substrate, next to the calls the rule leaves alone.
package droppederr

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/storage"
)

// writeAtomic is storage.WriteFileAtomic with its fsync's error dropped:
// a temp file whose data never reached the disk is renamed over the old
// one. No test or crash matrix caught that mutation in the real code.
func writeAtomic(fs storage.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		return errors.Join(err, f.Close(), fs.Remove(tmp))
	}
	f.Sync()
	if err := f.Close(); err != nil {
		return errors.Join(err, fs.Remove(tmp))
	}
	return fs.Rename(tmp, path)
}

// headerIntact is the WAL recovery scan as it was: a failed read counts
// as a short one, so one transient EIO looked like a torn tail.
func headerIntact(f storage.File, hdr []byte) bool {
	n, _ := f.ReadAt(hdr, 0)
	return n == len(hdr)
}

// removeBlank discards a lone substrate error with the blank identifier.
func removeBlank(fs storage.FS, path string) {
	_ = fs.Remove(path)
}

// suppressedClose is annotated with a justification.
func suppressedClose(f storage.File) {
	f.Close() //avqlint:ignore droppederr fixture: proves suppression works
}

// goodJoin folds a cleanup error into the error already being returned.
func goodJoin(f storage.File, err error) error {
	return errors.Join(err, f.Close())
}

// goodDefer relies on the defer exclusion, directly and through a closure.
func goodDefer(f storage.File) {
	defer f.Close()
	defer func() {
		f.Sync()
	}()
}

type closer struct{}

func (closer) Close() error { return nil }

// goodNotSubstrate drops errors from calls outside the substrate, which
// the rule leaves alone.
func goodNotSubstrate(c closer) {
	c.Close()
	_ = os.Remove("x")
	fmt.Println("hello")
}
