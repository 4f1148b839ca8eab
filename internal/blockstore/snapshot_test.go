package blockstore

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
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

// TestStreamCopiesSurviveFrameReuse: a pool miss reads into an evicted
// frame's buffer, so everything a snapshot read returns must be a copy,
// never the frame's page. A stream, a φ slab and a decoded block read from
// block 0 stay identical after 64+ further misses cycle every frame of a
// 4-frame pool.
func TestStreamCopiesSurviveFrameReuse(t *testing.T) {
	pager, err := storage.NewMemPager(256)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(pager, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(testSchema(t), core.CodecAVQ, pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BulkLoadContext(context.Background(), randomTuples(t, 6000, 64)); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	defer sn.Release()
	if sn.NumBlocks() < 66 {
		t.Fatalf("%d blocks; the test needs 64+ misses after block 0", sn.NumBlocks())
	}

	stream, err := sn.ReadStreamInto(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	phis, phiStream, err := sn.ReadPhis(0, core.NewArena(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := sn.ReadBlockArena(0, core.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	wantStream, wantPhis, wantPhiStream := bytes.Clone(stream), slices.Clone(phis), bytes.Clone(phiStream)
	wantTuples := make([]relation.Tuple, len(tuples))
	for i, tu := range tuples {
		wantTuples[i] = tu.Clone()
	}

	misses := pool.Stats().Misses
	var buf []byte
	for i := 1; i < sn.NumBlocks(); i++ {
		if buf, err = sn.ReadStreamInto(i, buf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	if n := pool.Stats().Misses - misses; n < 64 {
		t.Fatalf("only %d misses after block 0", n)
	}

	if !bytes.Equal(stream, wantStream) || !bytes.Equal(phiStream, wantPhiStream) {
		t.Fatal("a copied-out stream changed when its page's frame was reused")
	}
	if !slices.Equal(phis, wantPhis) {
		t.Fatal("a φ slab changed when its page's frame was reused")
	}
	for i := range tuples {
		if !slices.Equal(tuples[i], wantTuples[i]) {
			t.Fatalf("decoded tuple %d changed when its page's frame was reused", i)
		}
	}
}
