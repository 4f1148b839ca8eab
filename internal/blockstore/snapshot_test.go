package blockstore

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// TestSnapshotIsolation: a snapshot taken before mutations keeps reading
// the pre-mutation blocks, because the pages it references are parked
// instead of freed until it releases.
func TestSnapshotIsolation(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 600, 61)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	before := make([][]relation.Tuple, sn.NumBlocks())
	for i := range before {
		ts, _, err := sn.ReadBlock(i)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = ts
	}
	// Rewrite every block underneath the snapshot by deleting its first
	// tuple (order-preserving, so the store stays valid).
	for i, id := range s.Blocks() {
		if _, ok, err := s.DeleteFromBlock(id, before[i][0]); err != nil || !ok {
			t.Fatalf("delete from block %d: ok=%v err=%v", i, ok, err)
		}
	}
	schema := testSchema(t)
	for i := range before {
		ts, _, err := sn.ReadBlock(i)
		if err != nil {
			t.Fatalf("snapshot read after mutation: %v", err)
		}
		if len(ts) != len(before[i]) {
			t.Fatalf("block %d: snapshot sees %d tuples, had %d", i, len(ts), len(before[i]))
		}
		for j := range ts {
			if schema.Compare(ts[j], before[i][j]) != 0 {
				t.Fatalf("block %d tuple %d changed under the snapshot", i, j)
			}
		}
	}
	sn.Release()
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDefersFrees: pages freed by mutations while snapshots are
// live are parked, and their cache entries are invalidated only when the
// last snapshot releases.
func TestSnapshotDefersFrees(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	s.Configure(Config{CacheBlocks: 16})
	if _, err := s.BulkLoadContext(context.Background(), randomTuples(t, 600, 62)); err != nil {
		t.Fatal(err)
	}
	sn1 := s.Snapshot()
	sn2 := s.Snapshot()
	// Warm the cache with the first block, then rewrite it.
	if _, _, err := sn1.ReadBlock(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sn1.ReadBlock(0); err != nil { // second read = cache hit
		t.Fatal(err)
	}
	if _, err := s.InsertIntoBlock(sn1.Block(0), relation.Tuple{0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if inv := s.CacheStats().Invalidations; inv != 0 {
		t.Fatalf("cache invalidated while snapshots were live: %d", inv)
	}
	sn1.Release()
	sn1.Release() // idempotent
	if inv := s.CacheStats().Invalidations; inv != 0 {
		t.Fatalf("cache invalidated before the last snapshot released: %d", inv)
	}
	sn2.Release()
	if inv := s.CacheStats().Invalidations; inv == 0 {
		t.Fatal("deferred frees never drained after the last release")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSurvivesReset: Reset frees every block, but a live snapshot
// keeps its view.
func TestSnapshotSurvivesReset(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 400, 63)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	n := sn.NumBlocks()
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != 0 {
		t.Fatalf("store holds %d blocks after reset", s.NumBlocks())
	}
	total := 0
	for i := 0; i < n; i++ {
		ts, _, err := sn.ReadBlock(i)
		if err != nil {
			t.Fatalf("snapshot read after reset: %v", err)
		}
		total += len(ts)
	}
	if total != len(tuples) {
		t.Fatalf("snapshot sees %d tuples after reset, want %d", total, len(tuples))
	}
	sn.Release()
}

// TestAdoptFences: a restored layout has unknown fences until the table
// hands back the ones it saw while rebuilding indexes.
func TestAdoptFences(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	if _, err := s.BulkLoadContext(context.Background(), randomTuples(t, 500, 64)); err != nil {
		t.Fatal(err)
	}
	blocks := s.Blocks()

	// A second store over the same pool, restored from the block list,
	// has no fences.
	r, err := New(testSchema(t), core.CodecAVQ, s.pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(blocks); err != nil {
		t.Fatal(err)
	}
	sn := r.Snapshot()
	for i := 0; i < sn.NumBlocks(); i++ {
		if sn.Fence(i).Known() {
			t.Fatalf("restored block %d has a fence before adoption", i)
		}
	}
	sn.Release()

	// Wrong count and incomplete fences are rejected.
	if err := r.AdoptFences(make([]Fence, len(blocks)+1)); err == nil {
		t.Fatal("fence count mismatch accepted")
	}
	if err := r.AdoptFences(make([]Fence, len(blocks))); err == nil {
		t.Fatal("unknown fences accepted")
	}

	fences := make([]Fence, 0, len(blocks))
	for _, id := range blocks {
		ts, err := r.ReadBlock(id)
		if err != nil {
			t.Fatal(err)
		}
		fences = append(fences, fenceFor(ts))
	}
	if err := r.AdoptFences(fences); err != nil {
		t.Fatal(err)
	}
	sn = r.Snapshot()
	defer sn.Release()
	for i := 0; i < sn.NumBlocks(); i++ {
		f := sn.Fence(i)
		if !f.Known() {
			t.Fatalf("block %d fence unknown after adoption", i)
		}
		ts, _, err := sn.ReadBlock(i)
		if err != nil {
			t.Fatal(err)
		}
		schema := testSchema(t)
		if schema.Compare(f.First, ts[0]) != 0 || schema.Compare(f.Last, ts[len(ts)-1]) != 0 || f.Count != len(ts) {
			t.Fatalf("block %d fence disagrees with contents", i)
		}
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
}
