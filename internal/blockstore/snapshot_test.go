package blockstore

import (
	"bytes"
	"context"
	"fmt"
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
	s := poolStore(t, testSchema(t), core.CodecAVQ, pool)
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
	phis, err := readPhis(sn, 0, core.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := sn.ReadBlockArena(0, core.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	wantStream, wantPhis := bytes.Clone(stream), slices.Clone(phis)
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

	if !bytes.Equal(stream, wantStream) {
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

// TestConcurrentReadsShareFrames: readers on four goroutines cycle every
// block through a pool of four frames, so each miss reads a page into a
// buffer another goroutine's view held a moment before. Every read must
// still match the block's stream and decode as read alone. A view that
// reads its frame after the unpin races the next miss's load into it:
// -race reports it, and without -race the read shows the other page.
func TestConcurrentReadsShareFrames(t *testing.T) {
	const readers = 4
	s, _, pool := pipelineStore(t, core.CodecAVQ, 256, readers, 1)
	if _, err := s.BulkLoadContext(context.Background(), pipelineTuples(t, 3000, 65)); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	defer sn.Release()
	n := sn.NumBlocks()
	if n < 4*readers {
		t.Fatalf("%d blocks; the test needs the pool to cycle", n)
	}
	streams := make([][]byte, n)
	counts := make([]int, n)
	wantPhis := make([][]uint64, n)
	for i := range n {
		tuples, err := sn.ReadBlockArena(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = len(tuples)
		if streams[i], err = sn.ReadStreamInto(i, nil); err != nil {
			t.Fatal(err)
		}
		if wantPhis[i], err = readPhis(sn, i, core.NewArena()); err != nil {
			t.Fatal(err)
		}
	}
	misses := pool.Stats().Misses
	errs := make(chan error, readers)
	for g := range readers {
		go func() {
			errs <- func() error {
				a := core.NewArena()
				var buf []byte
				for round := range 3 {
					for k := range n {
						i := (k*(g+1) + round) % n
						a.Reset()
						phis, err := readPhis(sn, i, a)
						if err != nil {
							return err
						}
						if buf, err = sn.ReadStreamInto(i, buf[:0]); err != nil {
							return err
						}
						if !slices.Equal(phis, wantPhis[i]) || !bytes.Equal(buf, streams[i]) {
							return fmt.Errorf("block %d read %d φs, %d stream bytes; want %d, %d", i, len(phis), len(buf), counts[i], len(streams[i]))
						}
						tuples, err := sn.ReadBlockArena(i, a)
						if err != nil {
							return err
						}
						if len(tuples) != counts[i] {
							return fmt.Errorf("block %d decoded %d tuples, want %d", i, len(tuples), counts[i])
						}
					}
				}
				return nil
			}()
		}()
	}
	for range readers {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if got := pool.Stats().Misses - misses; got < int64(n) {
		t.Fatalf("only %d misses over %d blocks; the pool did not cycle", got, n)
	}
}

// readPhis is Snapshot.ReadSlab on a flat schema: the block's φ slab.
func readPhis(sn *Snapshot, i int, a *core.Arena) ([]uint64, error) {
	slab, err := sn.ReadSlab(i, a)
	return slab.Phis, err
}
