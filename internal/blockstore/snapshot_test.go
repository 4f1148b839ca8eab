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
		ts, err := sn.ReadBlock(i)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = ts
	}
	// Rewrite every block underneath the snapshot by deleting its first
	// tuple (order-preserving, so the store stays valid).
	for i, id := range s.Blocks() {
		if res, ok, err := s.Delete(before[i][0]); err != nil || !ok || res.Old.Page != id {
			t.Fatalf("delete from block %d: ok=%v err=%v rewrote page %d, want %d", i, ok, err, res.Old.Page, id)
		}
	}
	schema := testSchema(t)
	for i := range before {
		ts, err := sn.ReadBlock(i)
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
// live are parked, and returned to the pager only when the last snapshot
// releases.
func TestSnapshotDefersFrees(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	if _, err := s.BulkLoadContext(context.Background(), randomTuples(t, 600, 62)); err != nil {
		t.Fatal(err)
	}
	sn1 := s.Snapshot()
	sn2 := s.Snapshot()
	if _, err := sn1.ReadBlock(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(relation.Tuple{0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if len(s.deferred) == 0 {
		t.Fatal("rewritten page freed while snapshots were live")
	}
	sn1.Release()
	sn1.Release() // idempotent
	if len(s.deferred) == 0 {
		t.Fatal("parked pages freed before the last snapshot released")
	}
	sn2.Release()
	if n := len(s.deferred); n != 0 {
		t.Fatalf("%d parked pages never drained after the last release", n)
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
		ts, err := sn.ReadBlock(i)
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
