package table

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/simdisk"
)

func walTestOpts(fs *simdisk.FaultFS) []Option {
	return []Option{
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithPath("db.avq"),
		WithVFS(fs),
		WithDurability(DurabilityWAL),
	}
}

// TestWALReopenAfterKillReplaysAcknowledged is the bug-class regression:
// before the WAL, every insert acknowledged after the last checkpoint was
// silently lost on a crash. Now reopen must replay all of them.
func TestWALReopenAfterKillReplaysAcknowledged(t *testing.T) {
	fs := simdisk.NewFaultFS()
	tbl := createTable(t, testSchema(t), walTestOpts(fs)...)
	ctx := context.Background()
	tuples := randomTuples(t, 200, 42)
	for _, tu := range tuples {
		if err := tbl.InsertContext(ctx, tu); err != nil {
			t.Fatal(err)
		}
	}
	// Kill: abandon the table without Close or Checkpoint, then drop every
	// unsynced write. Without the log this loses all 200 inserts.
	fs.Recover(nil)

	re := openTable(t, "db.avq", walTestOpts(fs)...)
	defer re.Close()
	if got := re.Len(); got != len(tuples) {
		t.Fatalf("recovered %d tuples, want %d acknowledged inserts", got, len(tuples))
	}
	for _, tu := range tuples[:20] {
		ok, err := re.Contains(tu)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("acknowledged tuple %v missing after replay", tu)
		}
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatalf("invariants after replay: %v", err)
	}
}

// TestWALWritersShareFsyncs: concurrent inserts on a WAL table commit
// after releasing the table's lock, so writers that arrive while a
// commit's fsync is in the kernel share the next one: 8 writers issue
// fewer fsyncs than inserts, and every acknowledged insert survives a
// kill.
func TestWALWritersShareFsyncs(t *testing.T) {
	fs := simdisk.NewFaultFS()
	fs.SyncDelay = time.Millisecond
	tbl := createTable(t, testSchema(t), walTestOpts(fs)...)
	ctx := context.Background()
	const writers = 8
	tuples := randomTuples(t, 200, 44)
	fs.Syncs = 0 // ignore the create's syncs
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(tuples); i += writers {
				if err := tbl.InsertContext(ctx, tuples[i]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if fs.Syncs >= int64(len(tuples)) {
		t.Fatalf("%d inserts from %d writers issued %d fsyncs; group commit shares them", len(tuples), writers, fs.Syncs)
	}
	fs.Recover(nil)

	re := openTable(t, "db.avq", walTestOpts(fs)...)
	defer re.Close()
	got, _, err := re.SelectContext(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := selectOracle(re.Schema(), tuples, nil); !equalRows(got, want) {
		t.Fatalf("recovered %d rows, want the %d acknowledged inserts", len(got), len(want))
	}
}

// TestOpenAutoDetectsWAL proves a WAL-mode table reopened WITHOUT the
// durability option still finds its log, replays it, and stays in WAL
// mode — forgetting a flag must not silently discard the log.
func TestOpenAutoDetectsWAL(t *testing.T) {
	fs := simdisk.NewFaultFS()
	tbl := createTable(t, testSchema(t), walTestOpts(fs)...)
	ctx := context.Background()
	tuples := randomTuples(t, 50, 7)
	for _, tu := range tuples {
		if err := tbl.InsertContext(ctx, tu); err != nil {
			t.Fatal(err)
		}
	}
	fs.Recover(nil)

	// The caller "forgot" WAL mode.
	opts := append(walTestOpts(fs), WithDurability(DurabilityCheckpoint))
	re := openTable(t, "db.avq", opts...)
	if got := re.Len(); got != len(tuples) {
		t.Fatalf("auto-detected replay recovered %d tuples, want %d", got, len(tuples))
	}
	// Mutations after the auto-detected open must keep logging: kill again
	// and check the post-reopen insert also survives.
	extra := relation.Tuple{1, 2, 3, 4, 5}
	if err := re.InsertContext(ctx, extra); err != nil {
		t.Fatal(err)
	}
	fs.Recover(nil)
	re2 := openTable(t, "db.avq", opts...)
	defer re2.Close()
	ok, err := re2.Contains(extra)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("insert after auto-detected reopen was not logged")
	}
}

// TestWALCheckpointTruncatesLog proves checkpoints retire the log: after
// Checkpoint, reopen must not need (or replay) the old records.
func TestWALCheckpointTruncatesLog(t *testing.T) {
	fs := simdisk.NewFaultFS()
	tbl := createTable(t, testSchema(t), walTestOpts(fs)...)
	ctx := context.Background()
	for _, tu := range randomTuples(t, 100, 3) {
		if err := tbl.InsertContext(ctx, tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	post := relation.Tuple{2, 4, 8, 16, 32}
	if err := tbl.InsertContext(ctx, post); err != nil {
		t.Fatal(err)
	}
	fs.Recover(nil)

	re := openTable(t, "db.avq", walTestOpts(fs)...)
	defer re.Close()
	if got := re.Len(); got != 101 {
		t.Fatalf("recovered %d tuples, want 101 (100 checkpointed + 1 replayed)", got)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedFileErrCorruptBlock: a torn page file with no WAL to
// explain it must fail with a typed, offset-bearing corruption error, not
// a bare message. Reverting the Open wrapping breaks the errors.Is.
func TestTruncatedFileErrCorruptBlock(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.avq")
	tbl := createTable(t, testSchema(t), WithCodec(core.CodecAVQ), WithPageSize(512), WithPath(path))
	for _, tu := range randomTuples(t, 64, 9) {
		if err := tbl.InsertContext(context.Background(), tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-page.
	if err := os.Truncate(path, st.Size()-129); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path, WithPageSize(512))
	if err == nil {
		t.Fatal("open of a torn page file succeeded")
	}
	if !errors.Is(err, blockstore.ErrCorruptBlock) {
		t.Fatalf("torn-file error %q is not ErrCorruptBlock", err)
	}
}

// TestWALTornPageFileRepaired: the same torn tail IS repairable when a
// WAL exists, because every catalog-referenced page was synced before
// publish — trailing garbage can only be an unacknowledged write.
func TestWALTornPageFileRepaired(t *testing.T) {
	fs := simdisk.NewFaultFS()
	tbl := createTable(t, testSchema(t), walTestOpts(fs)...)
	ctx := context.Background()
	tuples := randomTuples(t, 80, 11)
	for _, tu := range tuples {
		if err := tbl.InsertContext(ctx, tu); err != nil {
			t.Fatal(err)
		}
	}
	fs.Recover(nil)

	// Append a torn partial page to the durable image.
	f, err := fs.OpenFile("db.avq", os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	size, err := fs.Stat("db.avq")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 100), size); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	re := openTable(t, "db.avq", walTestOpts(fs)...)
	defer re.Close()
	if got := re.Len(); got != len(tuples) {
		t.Fatalf("recovered %d tuples, want %d", got, len(tuples))
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWALUpdateDeleteDurable exercises the non-insert mutations across a
// kill: deletes, updates, and predicate deletes must all replay.
func TestWALUpdateDeleteDurable(t *testing.T) {
	fs := simdisk.NewFaultFS()
	tbl := createTable(t, testSchema(t), walTestOpts(fs)...)
	ctx := context.Background()
	tuples := randomTuples(t, 60, 21)
	if err := tbl.InsertBatchContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	if found, err := tbl.DeleteContext(ctx, tuples[0]); err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	repl := relation.Tuple{3, 5, 7, 11, 13}
	if found, err := tbl.UpdateContext(ctx, tuples[1], repl); err != nil || !found {
		t.Fatalf("update: found=%v err=%v", found, err)
	}
	want := tbl.Len()
	fs.Recover(nil)

	re := openTable(t, "db.avq", walTestOpts(fs)...)
	defer re.Close()
	if got := re.Len(); got != want {
		t.Fatalf("recovered %d tuples, want %d", got, want)
	}
	if ok, _ := re.Contains(tuples[0]); ok {
		t.Fatal("deleted tuple resurrected by replay")
	}
	if ok, _ := re.Contains(repl); !ok {
		t.Fatal("updated tuple missing after replay")
	}
}
