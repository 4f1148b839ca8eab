package table

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

func TestInsertBatchMatchesSequential(t *testing.T) {
	s := testSchema(t)
	base := randomTuples(t, 800, 71)
	batch := randomTuples(t, 400, 72)

	seq := newTable(t, core.CodecAVQ, AllAttrs(s))
	bat := newTable(t, core.CodecAVQ, AllAttrs(s))
	if err := seq.BulkLoadContext(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	if err := bat.BulkLoadContext(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	for _, tu := range batch {
		if err := seq.InsertContext(context.Background(), tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := bat.InsertBatchContext(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if seq.Len() != bat.Len() {
		t.Fatalf("len: sequential %d, batch %d", seq.Len(), bat.Len())
	}
	if err := bat.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Same logical contents in the same phi order.
	var a, b []relation.Tuple
	seq.ScanContext(context.Background(), func(tu relation.Tuple) bool { a = append(a, tu.Clone()); return true })
	bat.ScanContext(context.Background(), func(tu relation.Tuple) bool { b = append(b, tu.Clone()); return true })
	if len(a) != len(b) {
		t.Fatalf("scan lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if s.Compare(a[i], b[i]) != 0 {
			t.Fatalf("tuple %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// Queries agree too.
	rng := rand.New(rand.NewSource(73))
	for q := 0; q < 30; q++ {
		attr := rng.Intn(s.NumAttrs())
		span := s.Domain(attr).Size
		lo := uint64(rng.Int63n(int64(span)))
		hi := lo + uint64(rng.Int63n(int64(span-lo)))
		x, _, err := seq.SelectRangeContext(context.Background(), attr, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		y, _, err := bat.SelectRangeContext(context.Background(), attr, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(x) != len(y) {
			t.Fatalf("query %d: %d vs %d rows", q, len(x), len(y))
		}
	}
}

func TestInsertBatchEmptyTable(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, []int{1})
	batch := randomTuples(t, 300, 74)
	if err := tb.InsertBatchContext(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 300 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBatchEdgeCases(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.InsertBatchContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.InsertBatchContext(context.Background(), []relation.Tuple{{99, 0, 0, 0, 0}}); err == nil {
		t.Fatal("invalid tuple accepted")
	}
	// A batch that lands entirely before the first block.
	if err := tb.BulkLoadContext(context.Background(), []relation.Tuple{{7, 15, 63, 63, 4095}}); err != nil {
		t.Fatal(err)
	}
	early := []relation.Tuple{{0, 0, 0, 0, 1}, {0, 0, 0, 0, 2}}
	if err := tb.InsertBatchContext(context.Background(), early); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBatchForcesSplits(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, []int{4})
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 200, 75)); err != nil {
		t.Fatal(err)
	}
	before := tb.NumBlocks()
	// A large batch into a small-paged table must split blocks.
	if err := tb.InsertBatchContext(context.Background(), randomTuples(t, 2000, 76)); err != nil {
		t.Fatal(err)
	}
	if tb.NumBlocks() <= before {
		t.Fatalf("blocks %d did not grow from %d", tb.NumBlocks(), before)
	}
	if tb.Len() != 2200 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteWhere(t *testing.T) {
	s := testSchema(t)
	tuples := randomTuples(t, 1000, 77)
	tb := newTable(t, core.CodecAVQ, []int{1})
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	preds := []Predicate{{Attr: 1, Lo: 0, Hi: 7}}
	want := 0
	for _, tu := range tuples {
		if tu[1] <= 7 {
			want++
		}
	}
	removed, err := tb.DeleteWhereContext(context.Background(), preds)
	if err != nil {
		t.Fatal(err)
	}
	if removed != want {
		t.Fatalf("removed %d, want %d", removed, want)
	}
	if tb.Len() != 1000-want {
		t.Fatalf("Len = %d", tb.Len())
	}
	// Nothing left in the range.
	n, _, err := tb.CountRangeContext(context.Background(), 1, 0, 7)
	if err != nil || n != 0 {
		t.Fatalf("range still has %d rows, %v", n, err)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = s
}

func TestCompactReclaimsSpace(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, []int{1, 4})
	tuples := randomTuples(t, 3000, 78)
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	// Delete two thirds, leaving blocks underfull.
	removed, err := tb.DeleteWhereContext(context.Background(), []Predicate{{Attr: 4, Lo: 0, Hi: 2730}})
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing deleted")
	}
	lenBefore := tb.Len()
	before, after, err := tb.CompactContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("compact did not shrink: %d -> %d blocks", before, after)
	}
	if tb.Len() != lenBefore {
		t.Fatalf("compact changed Len: %d -> %d", lenBefore, tb.Len())
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Queries still work through rebuilt indexes.
	rows, stats, err := tb.SelectRangeContext(context.Background(), 1, 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != tb.Len() {
		t.Fatalf("full-range query found %d of %d", len(rows), tb.Len())
	}
	if stats.BlocksRead != after {
		t.Fatalf("query read %d blocks of %d", stats.BlocksRead, after)
	}
}

func TestCompactEmptyTable(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	before, after, err := tb.CompactContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if before != 0 || after != 0 {
		t.Fatalf("empty compact: %d -> %d", before, after)
	}
}

func TestCompactPersistentTable(t *testing.T) {
	path := tempPath(t)
	tb := createTable(t, testSchema(t),
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithPath(path),
		WithSecondaryAttrs(1),
	)
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 1000, 79)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.DeleteWhereContext(context.Background(), []Predicate{{Attr: 1, Lo: 0, Hi: 11}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantLen := tb.Len()
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	got := openTable(t, path, WithPageSize(512))
	defer got.Close()
	if got.Len() != wantLen {
		t.Fatalf("Len after compact+reopen = %d, want %d", got.Len(), wantLen)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
