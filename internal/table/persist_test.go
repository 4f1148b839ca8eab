package table

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/storage"
)

func tempPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "table.avqdb")
}

func TestPersistentCreateLoadReopen(t *testing.T) {
	path := tempPath(t)
	s := testSchema(t)
	tuples := randomTuples(t, 1200, 40)

	tb := createTable(t, s,
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithPath(path),
		WithSecondaryAttrs(1, 4),
	)
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	wantBlocks := tb.NumBlocks()
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}

	got := openTable(t, path, WithPageSize(512))
	defer got.Close()
	if got.Len() != 1200 {
		t.Fatalf("reopened Len = %d", got.Len())
	}
	if got.NumBlocks() != wantBlocks {
		t.Fatalf("reopened blocks = %d, want %d", got.NumBlocks(), wantBlocks)
	}
	if got.Codec() != core.CodecAVQ {
		t.Fatalf("reopened codec = %v", got.Codec())
	}
	if !got.Schema().Equal(s) {
		t.Fatal("reopened schema differs")
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Queries work after reopen, including through rebuilt secondaries.
	rows, stats, err := got.SelectRangeContext(context.Background(), 1, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strategy != exec.StrategySecondary {
		t.Fatalf("reopened strategy = %v", stats.Strategy)
	}
	want := 0
	for _, tu := range tuples {
		if tu[1] >= 3 && tu[1] <= 9 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("reopened query matched %d, want %d", len(rows), want)
	}
}

func TestPersistentMutationsSurviveReopen(t *testing.T) {
	path := tempPath(t)
	s := testSchema(t)
	tb := createTable(t, s, WithCodec(core.CodecAVQ), WithPageSize(512), WithPath(path))
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 300, 41)); err != nil {
		t.Fatal(err)
	}
	added := relation.Tuple{7, 15, 63, 63, 4095}
	if err := tb.InsertContext(context.Background(), added); err != nil {
		t.Fatal(err)
	}
	victim := relation.Tuple{0, 0, 0, 0, 0}
	deleted, err := tb.DeleteContext(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := tb.Len()
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}

	got := openTable(t, path, WithPageSize(512))
	defer got.Close()
	if got.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", got.Len(), wantLen)
	}
	ok, err := got.Contains(added)
	if err != nil || !ok {
		t.Fatalf("inserted tuple missing after reopen: %v, %v", ok, err)
	}
	if deleted {
		ok, err := got.Contains(victim)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("deleted tuple resurrected after reopen")
		}
	}
}

func TestCheckpointWithoutClose(t *testing.T) {
	path := tempPath(t)
	tb := createTable(t, testSchema(t), WithCodec(core.CodecAVQ), WithPageSize(512), WithPath(path))
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 200, 42)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no Close. The last checkpoint must be readable.
	// (The pool may hold clean pages only, since Checkpoint flushed.)
	got := openTable(t, path, WithPageSize(512))
	defer got.Close()
	if got.Len() != 200 {
		t.Fatalf("Len after crash-reopen = %d", got.Len())
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tb.closed = true // silence Close-side effects for the leaked table
}

func TestLargeCatalogChain(t *testing.T) {
	// A small page size plus many blocks forces a multi-page catalog.
	path := tempPath(t)
	tb := createTable(t, testSchema(t), WithCodec(core.CodecRaw), WithPageSize(256), WithPath(path))
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 3000, 43)); err != nil {
		t.Fatal(err)
	}
	if len(tb.catalogChains[tb.generation&1]) < 2 {
		t.Skipf("catalog fits one page (%d blocks)", tb.NumBlocks())
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	got := openTable(t, path, WithPageSize(256))
	defer got.Close()
	if got.Len() != 3000 {
		t.Fatalf("Len = %d", got.Len())
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateRefusesExistingTable(t *testing.T) {
	path := tempPath(t)
	tb := createTable(t, testSchema(t), WithPageSize(512), WithPath(path))
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(testSchema(t), WithPageSize(512), WithPath(path)); err == nil {
		t.Fatal("Create over an existing table succeeded")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open with empty path succeeded")
	}
	// Empty file: no catalog.
	path := tempPath(t)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(path, WithPageSize(512)); err == nil {
		t.Fatal("Open of empty file succeeded")
	}
}

func TestCatalogCorruptionResilience(t *testing.T) {
	path := tempPath(t)
	tb := createTable(t, testSchema(t), WithPageSize(512), WithPath(path))
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 100, 44)); err != nil {
		t.Fatal(err)
	}
	// Two checkpoints so both catalog slots hold valid generations.
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt ONE catalog slot: the dual-slot design must recover through
	// the other.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), raw...)
	damaged[20] ^= 0xFF // inside page 0's catalog payload
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	got := openTable(t, path, WithPageSize(512))
	if got.Len() != 100 {
		t.Fatalf("recovered Len = %d", got.Len())
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got.Close()
	// Corrupt BOTH slots: now Open must fail.
	damaged = append([]byte(nil), raw...)
	damaged[20] ^= 0xFF
	damaged[512+20] ^= 0xFF // inside page 1's catalog payload
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, WithPageSize(512)); err == nil {
		t.Fatal("both catalogs corrupt but Open succeeded")
	}
}

func TestClosedTableRejectsOps(t *testing.T) {
	path := tempPath(t)
	tb := createTable(t, testSchema(t), WithPageSize(512), WithPath(path))
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Checkpoint(); err == nil {
		t.Fatal("Checkpoint after Close succeeded")
	}
	if err := tb.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestInMemoryCheckpointIsFlush(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 50, 45)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistentHashIndexRestored: a page file written when the catalog's
// second header byte still named the secondary-index backend — here 1, the
// removed extendible-hash kind — opens, and its secondary index comes back
// as the B+ tree. The byte is reserved now: written 0, ignored on read.
func TestPersistentHashIndexRestored(t *testing.T) {
	path := tempPath(t)
	const pageSize = 512
	tb := createTable(t, testSchema(t),
		WithPageSize(pageSize),
		WithPath(path),
		WithSecondaryAttrs(4),
	)
	tuples := randomTuples(t, 400, 46)
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite both catalog slots as the old format would have: reserved
	// byte = 1, checksum recomputed.
	if old := patchCatalogHeader(t, path, pageSize, 1, 1); old != 0 {
		t.Fatalf("reserved byte written as %d, want 0", old)
	}
	got := openTable(t, path, WithPageSize(pageSize))
	defer got.Close()
	rows, stats, err := got.SelectPointContext(context.Background(), 4, tuples[3][4])
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strategy != exec.StrategySecondary || len(rows) == 0 {
		t.Fatalf("secondary index not restored: %v, %d rows", stats.Strategy, len(rows))
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
}

// patchCatalogHeader sets header byte off of both catalog slots of the
// page file at path — 0 is the codec byte, 1 the reserved byte — and
// recomputes their checksums. It returns the byte it replaced (both slots
// of a file written by Close hold the same header).
func patchCatalogHeader(t *testing.T, path string, pageSize, off int, v byte) (old byte) {
	t.Helper()
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 2; slot++ {
		page := file[slot*pageSize : (slot+1)*pageSize]
		if next := storage.PageID(binary.BigEndian.Uint32(page[0:4])); next != storage.InvalidPage {
			t.Fatalf("catalog slot %d spans pages; shrink the fixture", slot)
		}
		blob := page[catalogFrameOverhead : catalogFrameOverhead+int(binary.BigEndian.Uint32(page[4:8]))]
		_, n := binary.Uvarint(blob[len(catalogMagic):])
		at := len(catalogMagic) + n + off
		old, blob[at] = blob[at], v
		body := blob[:len(blob)-4]
		binary.BigEndian.PutUint32(blob[len(body):], crc32.ChecksumIEEE(body))
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	return old
}

// TestOpenRejectsBadCatalogCodec is the table catalog's boundary of the
// codec byte: a catalog naming codec 2, 3 (the retired rep-only and
// delta-chain layouts) or 9 fails Open with core.ErrBadCodec.
func TestOpenRejectsBadCatalogCodec(t *testing.T) {
	const pageSize = 512
	for _, c := range []core.Codec{2, 3, 9} {
		path := tempPath(t)
		tb := createTable(t, testSchema(t), WithCodec(core.CodecAVQ), WithPageSize(pageSize), WithPath(path))
		if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 50, 47)); err != nil {
			t.Fatal(err)
		}
		if err := tb.Close(); err != nil {
			t.Fatal(err)
		}
		if old := patchCatalogHeader(t, path, pageSize, 0, byte(c)); old != byte(core.CodecAVQ) {
			t.Fatalf("codec byte written as %d, want %d", old, core.CodecAVQ)
		}
		if _, err := Open(path, WithPageSize(pageSize)); !errors.Is(err, core.ErrBadCodec) {
			t.Errorf("codec %d: Open err = %v, want core.ErrBadCodec", c, err)
		}
	}
}

// TestCreateDefaultsToAVQ: a table created without a codec option codes
// its blocks with AVQ, the documented default, and records codec byte 1 in
// its catalog, so Open reads it back as AVQ.
func TestCreateDefaultsToAVQ(t *testing.T) {
	const pageSize = 512
	path := tempPath(t)
	tb := createTable(t, testSchema(t), WithPageSize(pageSize), WithPath(path))
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 300, 48)); err != nil {
		t.Fatal(err)
	}
	if tb.Codec() != core.CodecAVQ {
		t.Fatalf("Codec() = %v, want %v", tb.Codec(), core.CodecAVQ)
	}
	sn := tb.store.Snapshot()
	for i := 0; i < sn.NumBlocks(); i++ {
		stream, err := sn.ReadStream(i)
		if err != nil {
			t.Fatal(err)
		}
		info, err := core.Inspect(stream)
		if err != nil {
			t.Fatal(err)
		}
		if info.Codec != core.CodecAVQ {
			t.Fatalf("block %d coded %v, want %v", i, info.Codec, core.CodecAVQ)
		}
	}
	sn.Release()
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	if old := patchCatalogHeader(t, path, pageSize, 0, byte(core.CodecAVQ)); old != byte(core.CodecAVQ) {
		t.Fatalf("catalog codec byte %d, want %d", old, core.CodecAVQ)
	}
	re := openTable(t, path, WithPageSize(pageSize))
	defer re.Close()
	if re.Codec() != core.CodecAVQ {
		t.Fatalf("reopened Codec() = %v, want %v", re.Codec(), core.CodecAVQ)
	}
}

// TestCrashRecoversLastCheckpoint is the crash-consistency guarantee end
// to end: copy-on-write rewrites + deferred page reuse + dual catalogs
// mean the on-disk file always reopens at exactly the last checkpoint,
// no matter how many unflushed (or partially flushed) mutations follow it.
func TestCrashRecoversLastCheckpoint(t *testing.T) {
	path := tempPath(t)
	s := testSchema(t)
	tb := createTable(t, s,
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithPath(path),
		WithPoolFrames(4), // tiny pool: mutations force evictions to disk
	)
	base := randomTuples(t, 800, 47)
	if err := tb.BulkLoadContext(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Record the checkpointed logical state.
	var want []relation.Tuple
	if err := tb.ScanContext(context.Background(), func(tu relation.Tuple) bool {
		want = append(want, tu.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}

	// Heavy post-checkpoint churn: inserts, deletes, splits. The tiny pool
	// guarantees many of these reach the file before the "crash".
	extra := randomTuples(t, 600, 48)
	for _, tu := range extra {
		if err := tb.InsertContext(context.Background(), tu); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range base[:200] {
		if _, err := tb.DeleteContext(context.Background(), tu); err != nil {
			t.Fatal(err)
		}
	}

	// "Crash": snapshot the raw file bytes without Close or Checkpoint.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crashPath := filepath.Join(t.TempDir(), "crashed.avqdb")
	if err := os.WriteFile(crashPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got := openTable(t, crashPath, WithPageSize(512))
	defer got.Close()
	if got.Len() != len(want) {
		t.Fatalf("recovered %d tuples, checkpoint had %d", got.Len(), len(want))
	}
	i := 0
	if err := got.ScanContext(context.Background(), func(tu relation.Tuple) bool {
		if s.Compare(tu, want[i]) != 0 {
			t.Fatalf("recovered tuple %d = %v, checkpoint had %v", i, tu, want[i])
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tb.closed = true // the "crashed" table is abandoned
}

// TestCrashAfterManyCheckpoints interleaves checkpoints and churn, crashing
// at an arbitrary point: recovery must land exactly on the latest
// checkpoint, not an earlier one.
func TestCrashAfterManyCheckpoints(t *testing.T) {
	path := tempPath(t)
	s := testSchema(t)
	tb := createTable(t, s,
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithPath(path),
		WithPoolFrames(4),
	)
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 300, 49)); err != nil {
		t.Fatal(err)
	}
	var want []relation.Tuple
	for round := 0; round < 5; round++ {
		batch := randomTuples(t, 100, int64(50+round))
		if err := tb.InsertBatchContext(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.DeleteWhereContext(context.Background(), []Predicate{{Attr: 1, Lo: uint64(round), Hi: uint64(round)}}); err != nil {
			t.Fatal(err)
		}
		if err := tb.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want = want[:0]
		if err := tb.ScanContext(context.Background(), func(tu relation.Tuple) bool {
			want = append(want, tu.Clone())
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Post-checkpoint churn, then crash.
	if err := tb.InsertBatchContext(context.Background(), randomTuples(t, 400, 60)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crashPath := filepath.Join(t.TempDir(), "crashed.avqdb")
	if err := os.WriteFile(crashPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got := openTable(t, crashPath, WithPageSize(512))
	defer got.Close()
	if got.Len() != len(want) {
		t.Fatalf("recovered %d tuples, last checkpoint had %d", got.Len(), len(want))
	}
	i := 0
	if err := got.ScanContext(context.Background(), func(tu relation.Tuple) bool {
		if s.Compare(tu, want[i]) != 0 {
			t.Fatalf("recovered tuple %d differs from last checkpoint", i)
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	tb.closed = true
}
