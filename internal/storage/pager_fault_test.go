// Fault-injected pager tests. These live in package storage_test because
// simdisk imports storage — an in-package import would cycle.
package storage_test

import (
	"errors"
	"testing"

	"repro/internal/simdisk"
	"repro/internal/storage"
)

// TestFilePagerCloseSurfacesSyncError: Close performs the final fsync of
// the file's lifetime; swallowing its error acknowledges data the disk
// refused. Reverting the Close fix makes this test fail.
func TestFilePagerCloseSurfacesSyncError(t *testing.T) {
	fs := simdisk.NewFaultFS()
	p, err := storage.OpenFilePagerFS(fs, "p.db", 128)
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(id, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	// Next mutating op is Close's internal Sync.
	fs.FailAt(1, nil)
	if err := p.Close(); err == nil {
		t.Fatal("Close dropped the final Sync error")
	}
}

// TestFilePagerCreateSyncsDir: creating the page file must fsync the
// parent directory, or the whole database can vanish on crash even though
// its contents were synced. Reverting the SyncDir call makes this fail.
func TestFilePagerCreateSyncsDir(t *testing.T) {
	fs := simdisk.NewFaultFS()
	p, err := storage.OpenFilePagerFS(fs, "p.db", 128)
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(id, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Recover(nil)
	if _, err := fs.Stat("p.db"); err != nil {
		t.Fatalf("page file vanished after crash: parent dir was never synced: %v", err)
	}
}

// TestFilePagerReopenExistingSkipsDirSync: reopening an existing file
// must not fail just because the directory fsync path is unavailable;
// the entry is already durable.
func TestFilePagerReopenExistingSkipsDirSync(t *testing.T) {
	fs := simdisk.NewFaultFS()
	p, err := storage.OpenFilePagerFS(fs, "p.db", 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	before := fs.DirSyncs
	q, err := storage.OpenFilePagerFS(fs, "p.db", 128)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if fs.DirSyncs != before {
		t.Fatalf("reopen of an existing file synced the directory %d extra times", fs.DirSyncs-before)
	}
}

// TestWriteFileAtomicCrashSafety: WriteFileAtomic must leave either the
// old content or the new content after a crash at any point — never a
// partial file. We only exercise the happy path plus full recovery here;
// the syscall-level matrix lives in internal/wal.
func TestWriteFileAtomicDurable(t *testing.T) {
	fs := simdisk.NewFaultFS()
	if err := storage.WriteFileAtomic(fs, "conf.json", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	fs.Recover(nil)
	f, err := fs.OpenFile("conf.json", 0)
	if err != nil {
		t.Fatalf("atomically written file lost after crash: %v", err)
	}
	buf := make([]byte, 32)
	n, _ := f.ReadAt(buf, 0)
	if string(buf[:n]) != `{"v":1}` {
		t.Fatalf("recovered %q", buf[:n])
	}
}

// TestFilePagerAllocateKeepsFreePageOnWriteError: Allocate zeroes a reused
// page before handing it out. When that write fails the page must stay on
// the free list — unreadable, and the next Allocate's — instead of being
// neither free nor owned.
func TestFilePagerAllocateKeepsFreePageOnWriteError(t *testing.T) {
	fs := simdisk.NewFaultFS()
	p, err := storage.OpenFilePagerFS(fs, "p.db", 128)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Free(id); err != nil {
		t.Fatal(err)
	}
	fs.FailAt(1, nil) // the reused page's zero write
	if _, err := p.Allocate(); err == nil {
		t.Fatal("Allocate succeeded through a failed zero write")
	}
	if err := p.Read(id, make([]byte, 128)); !errors.Is(err, storage.ErrPageFreed) {
		t.Fatalf("Read of the page after the failed Allocate: err = %v, want ErrPageFreed", err)
	}
	got, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if got != id || p.NumPages() != 1 {
		t.Fatalf("Allocate after the failure got page %d of %d, want the freed page %d reused", got, p.NumPages(), id)
	}
}
