package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simdisk"
)

const testDir = "log.wal"

func mustCreate(t *testing.T, fs *simdisk.FaultFS, gen uint64) *Log {
	t.Helper()
	l, err := Create(Options{FS: fs, Dir: testDir}, gen)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func appendCommit(t *testing.T, l *Log, payload string) uint64 {
	t.Helper()
	lsn, err := l.AppendCommit([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

func TestAppendCommitReopen(t *testing.T) {
	fs := simdisk.NewFaultFS()
	l := mustCreate(t, fs, 1)
	for i := 0; i < 10; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if err := l.Commit(10); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, records, err := Open(Options{FS: fs, Dir: testDir}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 10 {
		t.Fatalf("recovered %d records, want 10", len(records))
	}
	for i, r := range records {
		if r.LSN != uint64(i+1) || string(r.Payload) != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("record %d = {%d, %q}", i, r.LSN, r.Payload)
		}
	}
	// The reopened log appends after the recovered records.
	if lsn := appendCommit(t, l2, "rec-10"); lsn != 11 {
		t.Fatalf("post-recovery lsn = %d, want 11", lsn)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, records, err = Open(Options{FS: fs, Dir: testDir}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 11 {
		t.Fatalf("recovered %d records after second open, want 11", len(records))
	}
}

func TestUncommittedRecordsLostOnCrash(t *testing.T) {
	fs := simdisk.NewFaultFS()
	l := mustCreate(t, fs, 1)
	appendCommit(t, l, "durable-1")
	appendCommit(t, l, "durable-2")
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("buffered")); err != nil {
			t.Fatal(err)
		}
	}
	// Kill without Close: the machine reverts to the durable image.
	fs.Recover(nil)

	_, records, err := Open(Options{FS: fs, Dir: testDir}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("recovered %d records, want the 2 committed ones", len(records))
	}
}

func TestEmptyRecordRejected(t *testing.T) {
	fs := simdisk.NewFaultFS()
	l := mustCreate(t, fs, 1)
	if _, err := l.Append(nil); err == nil {
		t.Fatal("empty append accepted")
	}
}

// corruptAt flips bytes in a segment file and makes the damage durable, as
// bit rot would.
func corruptAt(t *testing.T, fs *simdisk.FaultFS, name string, off int64, b []byte) {
	t.Helper()
	f, err := fs.OpenFile(filepath.Join(testDir, name), os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncatedAndOverwritten(t *testing.T) {
	fs := simdisk.NewFaultFS()
	l := mustCreate(t, fs, 1)
	appendCommit(t, l, "alpha")
	appendCommit(t, l, "beta")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: a frame header claiming 200 bytes with only
	// one byte of payload behind it.
	seg := segName(1, 0)
	end, err := fs.Stat(filepath.Join(testDir, seg))
	if err != nil {
		t.Fatal(err)
	}
	corruptAt(t, fs, seg, end, []byte{200, 0, 0, 0, 1, 2, 3, 4, 'x'})

	l2, records, err := Open(Options{FS: fs, Dir: testDir}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("recovered %d records, want 2 (torn tail dropped)", len(records))
	}
	// New appends land where the torn tail was cut.
	appendCommit(t, l2, "gamma")
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, records, err = Open(Options{FS: fs, Dir: testDir}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 || string(records[2].Payload) != "gamma" {
		t.Fatalf("after re-append: %d records", len(records))
	}
}

func TestCorruptionInRotatedSegmentIsFatal(t *testing.T) {
	fs := simdisk.NewFaultFS()
	l, err := Create(Options{FS: fs, Dir: testDir, SegmentSize: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		appendCommit(t, l, fmt.Sprintf("record-%02d", i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir(testDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %v", names)
	}
	// Damage a payload byte in the FIRST segment: it was fsynced by
	// rotation, so this is corruption, not a torn tail.
	corruptAt(t, fs, segName(1, 0), segHeaderLen+frameOverhead, []byte{0xFF})

	_, _, err = Open(Options{FS: fs, Dir: testDir}, 1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestRotateRetiresOldGenerations(t *testing.T) {
	fs := simdisk.NewFaultFS()
	l := mustCreate(t, fs, 1)
	appendCommit(t, l, "old-gen-1")
	appendCommit(t, l, "old-gen-2")
	if err := l.Rotate(2); err != nil {
		t.Fatal(err)
	}
	if got := l.Durable(); got != l.Appended() {
		t.Fatalf("rotate left durable=%d behind appended=%d", got, l.Appended())
	}
	appendCommit(t, l, "new-gen-1")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := fs.ReadDir(testDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if g, _, ok := parseSegName(name); ok && g != 2 {
			t.Fatalf("stale generation segment survived rotate: %s", name)
		}
	}
	_, records, err := Open(Options{FS: fs, Dir: testDir}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || string(records[0].Payload) != "new-gen-1" {
		t.Fatalf("recovered %d records at gen 2", len(records))
	}
}

func TestOpenDeletesStaleGenerations(t *testing.T) {
	fs := simdisk.NewFaultFS()
	l := mustCreate(t, fs, 1)
	appendCommit(t, l, "gen1-record")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The catalog moved on to generation 2 (checkpoint published) but the
	// process died before Rotate: recovery must ignore and delete gen-1
	// segments, whose effects are already folded into the catalog.
	_, records, err := Open(Options{FS: fs, Dir: testDir}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("recovered %d records from a folded generation", len(records))
	}
	names, err := fs.ReadDir(testDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if g, _, ok := parseSegName(name); ok && g != 2 {
			t.Fatalf("stale segment %s survived Open", name)
		}
	}
}

func TestDamagedFinalHeaderRecreated(t *testing.T) {
	fs := simdisk.NewFaultFS()
	l := mustCreate(t, fs, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-rotation: the final segment's header never fully landed.
	f, err := fs.OpenFile(filepath.Join(testDir, segName(1, 0)), os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l2, records, err := Open(Options{FS: fs, Dir: testDir}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("recovered %d records from a header-damaged segment", len(records))
	}
	appendCommit(t, l2, "after-repair")
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, records, err = Open(Options{FS: fs, Dir: testDir}, 1)
	if err != nil || len(records) != 1 {
		t.Fatalf("after repair: %d records, err %v", len(records), err)
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	fs := simdisk.NewFaultFS()
	fs.SyncDelay = 500 * time.Microsecond
	l := mustCreate(t, fs, 1)
	fs.Syncs = 0 // ignore setup syncs

	const writers, perWriter = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.AppendCommit([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := uint64(writers * perWriter)
	if l.Durable() != total {
		t.Fatalf("durable = %d, want %d", l.Durable(), total)
	}
	if fs.Syncs >= int64(total) {
		t.Fatalf("group commit issued %d fsyncs for %d commits — no batching", fs.Syncs, total)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, records, err := Open(Options{FS: fs, Dir: testDir}, 1)
	if err != nil || len(records) != int(total) {
		t.Fatalf("recovered %d records, err %v", len(records), err)
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	fs := simdisk.NewFaultFS()
	l := mustCreate(t, fs, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed log = %v", err)
	}
	if err := l.Commit(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit on closed log = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
}

func TestInspect(t *testing.T) {
	fs := simdisk.NewFaultFS()
	l, err := Create(Options{FS: fs, Dir: testDir, SegmentSize: 64}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		appendCommit(t, l, fmt.Sprintf("inspect-%d", i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	infos, err := Inspect(fs, testDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) < 2 {
		t.Fatalf("Inspect found %d segments, want >= 2", len(infos))
	}
	records := 0
	for i, info := range infos {
		if info.BaseGen != 3 {
			t.Fatalf("segment %d reports gen %d", i, info.BaseGen)
		}
		if !info.HeaderOK || info.TornTail {
			t.Fatalf("segment %d reports damage: %+v", i, info)
		}
		records += info.Records
	}
	if records != 6 {
		t.Fatalf("Inspect counted %d records, want 6", records)
	}
}

func TestInspectMissingDirIsEmpty(t *testing.T) {
	// A checkpoint-only table has no log directory; that is an empty
	// result, not an inspection failure.
	infos, err := Inspect(simdisk.NewFaultFS(), "nonexistent.wal")
	if err != nil {
		t.Fatalf("Inspect of a missing dir: %v", err)
	}
	if len(infos) != 0 {
		t.Fatalf("got %d segments from a missing dir", len(infos))
	}
}

// BenchmarkGroupCommit times durable appends (AppendCommit) from 1 and 8
// concurrent writers over a filesystem whose fsync takes 2 ms, and
// reports fsyncs/op. One writer is the per-write-fsync baseline: every
// commit pays its own fsync. With more, commits that arrive while a
// leader is in the kernel share the next one.
func BenchmarkGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			fs := simdisk.NewFaultFS()
			fs.SyncDelay = 2 * time.Millisecond
			l, err := Create(Options{FS: fs, Dir: testDir}, 1)
			if err != nil {
				b.Fatal(err)
			}
			fs.Syncs = 0 // ignore setup syncs
			var next atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			b.ResetTimer()
			for range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := l.AppendCommit([]byte("group-commit-record")); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
			b.ReportMetric(float64(fs.Syncs)/float64(b.N), "fsyncs/op")
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
