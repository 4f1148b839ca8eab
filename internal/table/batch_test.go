package table

import (
	"context"
	"errors"
	"math/big"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// newBatchPair loads the same tuples into two tables of the given codec
// (every codec runs both paths, which must agree byte for byte): one on
// the flat schema's batch path and one on the tuple path (tuplePath) —
// the differential oracle.
func newBatchPair(t *testing.T, codec core.Codec, tuples []relation.Tuple) (batch, oracle *Table) {
	t.Helper()
	s := testSchema(t)
	mk := func(tuplePath bool) *Table {
		tb := createTable(t, s, WithCodec(codec), WithPageSize(512))
		tb.tuplePath = tuplePath
		if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	return mk(false), mk(true)
}

// TestBatchAggregatesMatchTuplePath pins every batch aggregate kernel —
// count, aggregate, group-by (clustered and unclustered keys), histogram
// — to the tuple path, per codec, and cross-checks one aggregate against
// a big.Int φ-digit reference so both paths are anchored to the paper's
// arithmetic, not just to each other.
func TestBatchAggregatesMatchTuplePath(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 2000, 42)
	for _, codec := range core.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			batch, oracle := newBatchPair(t, codec, tuples)
			ranges := []struct {
				attr   int
				lo, hi uint64
			}{
				{0, 0, 7},  // full domain
				{0, 2, 5},  // clustered bound
				{0, 3, 3},  // point
				{1, 4, 11}, // residual attribute
				{4, 100, 3000},
			}
			for _, rg := range ranges {
				bn, bst, err := batch.CountRangeContext(ctx, rg.attr, rg.lo, rg.hi)
				if err != nil {
					t.Fatal(err)
				}
				on, _, err := oracle.CountRangeContext(ctx, rg.attr, rg.lo, rg.hi)
				if err != nil {
					t.Fatal(err)
				}
				if bn != on {
					t.Fatalf("CountRange(%v): batch %d, tuple %d", rg, bn, on)
				}
				if bst.BatchBlocks == 0 && bn > 0 {
					t.Fatalf("CountRange(%v): batch path did not run (BatchBlocks=0)", rg)
				}
				for agg := 0; agg < 5; agg++ {
					br, _, err := batch.AggregateRangeContext(ctx, rg.attr, rg.lo, rg.hi, agg)
					if err != nil {
						t.Fatal(err)
					}
					or, _, err := oracle.AggregateRangeContext(ctx, rg.attr, rg.lo, rg.hi, agg)
					if err != nil {
						t.Fatal(err)
					}
					if br != or {
						t.Fatalf("AggregateRange(%v, agg=%d): batch %+v, tuple %+v", rg, agg, br, or)
					}
				}
				for _, ga := range []int{0, 1, 2} {
					bg, _, err := batch.GroupByContext(ctx, rg.attr, rg.lo, rg.hi, ga, 3)
					if err != nil {
						t.Fatal(err)
					}
					og, _, err := oracle.GroupByContext(ctx, rg.attr, rg.lo, rg.hi, ga, 3)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(bg, og) {
						t.Fatalf("GroupBy(%v, group=%d): batch %+v, tuple %+v", rg, ga, bg, og)
					}
				}
			}
			for attr := 0; attr < 5; attr++ {
				bh, _, err := batch.HistogramContext(ctx, attr, 8)
				if err != nil {
					t.Fatal(err)
				}
				oh, _, err := oracle.HistogramContext(ctx, attr, 8)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(bh, oh) {
					t.Fatalf("Histogram(attr=%d): batch %v, tuple %v", attr, bh, oh)
				}
			}

			// Anchor: SUM over attribute 2 for 2<=A1<=5 recomputed through
			// arbitrary-precision φ digits straight off the loaded tuples.
			s := batch.Schema()
			want := big.NewInt(0)
			wantCount := 0
			for _, tu := range tuples {
				if tu[0] < 2 || tu[0] > 5 {
					continue
				}
				phi := ordinal.Phi(s, tu) // big.Int φ
				digit := new(big.Int).Set(phi)
				for a := s.NumAttrs() - 1; a > 2; a-- {
					digit.Div(digit, new(big.Int).SetUint64(s.Domain(a).Size))
				}
				digit.Mod(digit, new(big.Int).SetUint64(s.Domain(2).Size))
				want.Add(want, digit)
				wantCount++
			}
			got, _, err := batch.AggregateRangeContext(ctx, 0, 2, 5, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got.Sum != want.Uint64() || got.Count != wantCount {
				t.Fatalf("big.Int anchor: batch Sum=%d Count=%d, reference Sum=%s Count=%d",
					got.Sum, got.Count, want, wantCount)
			}
		})
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)-th call on, so a pass that checks Err at every block boundary
// stops after n blocks, in the middle of the table.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestAggregateCancelledMidBatch cancels a batch aggregate after each of
// its first blocks in turn: RunBatch must return the cancellation and the
// pass must release its snapshot and every pin on that error path, as on
// the success path (checked here after each pass, and by checkLeaks).
func TestAggregateCancelledMidBatch(t *testing.T) {
	tb, _ := newBatchPair(t, core.CodecAVQ, randomTuples(t, 2000, 43))
	blocks := tb.store.NumBlocks()
	if blocks < 4 {
		t.Fatalf("%d blocks; the test needs a pass to stop in the middle", blocks)
	}
	for n := int64(1); n < int64(blocks)/2; n++ {
		ctx := &cancelAfter{Context: context.Background()}
		ctx.n.Store(n)
		_, st, err := tb.AggregateRangeContext(ctx, 0, 0, 7, 2)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled after %d blocks: err = %v, want context.Canceled", n, err)
		}
		if st.BatchBlocks == 0 || st.BatchBlocks >= blocks {
			t.Fatalf("cancelled after %d blocks: the pass read %d of %d blocks", n, st.BatchBlocks, blocks)
		}
		if p, sn := tb.PinnedFrames(), tb.LiveSnapshots(); p != 0 || sn != 0 {
			t.Fatalf("cancelled after %d blocks: %d frames pinned, %d snapshots live", n, p, sn)
		}
	}
}

// TestMergeJoinBatchMatchesTuples pins the φ-space merge join to the
// tuple-at-a-time merge join, per codec: identical rows in identical
// order, identical match counts, and the batch run must actually take
// the columnar path and prune on sparse keys.
func TestMergeJoinBatchMatchesTuples(t *testing.T) {
	ctx := context.Background()
	left := randomTuples(t, 1500, 7)
	// Sparse right side: only every 4th dept key exists, so the left run
	// has long stretches the batch join should seek over.
	right := make([]relation.Tuple, 0, 400)
	for _, tu := range randomTuples(t, 400, 8) {
		tu[0] &^= 3
		right = append(right, tu)
	}
	for _, codec := range core.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			lb, lo := newBatchPair(t, codec, left)
			rb, ro := newBatchPair(t, codec, right)
			got, gst, err := MergeJoinContext(ctx, lb, rb)
			if err != nil {
				t.Fatal(err)
			}
			want, wst, err := MergeJoinContext(ctx, lo, ro)
			if err != nil {
				t.Fatal(err)
			}
			if gst.Left.BatchBlocks == 0 || gst.Right.BatchBlocks == 0 {
				t.Fatal("batch join did not take the columnar path")
			}
			if wst.Left.BatchBlocks != 0 || wst.Right.BatchBlocks != 0 {
				t.Fatal("oracle join took the columnar path")
			}
			if gst.Matches != wst.Matches || len(got) != len(want) {
				t.Fatalf("matches: batch %d (%d rows), tuple %d (%d rows)",
					gst.Matches, len(got), wst.Matches, len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("row %d: batch %v⋈%v, tuple %v⋈%v",
						i, got[i].Left, got[i].Right, want[i].Left, want[i].Right)
				}
			}
		})
	}
}

// TestMergeJoinTuplesCancelKeepsStats cancels a tuple-path merge join
// after its first row: the join stops at the next block boundary with
// context.Canceled and still reports the blocks each side read.
func TestMergeJoinTuplesCancelKeepsStats(t *testing.T) {
	tuples := randomTuples(t, 3000, 17)
	_, left := newBatchPair(t, core.CodecAVQ, tuples)
	_, right := newBatchPair(t, core.CodecAVQ, tuples)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := MergeJoinEachContext(ctx, left, right, func(JoinRow) bool {
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled join: err = %v, want context.Canceled", err)
	}
	if st.Left.BlocksRead == 0 || st.Right.BlocksRead == 0 {
		t.Fatalf("cancelled join lost its block counts: left %d, right %d", st.Left.BlocksRead, st.Right.BlocksRead)
	}
	if st.Left.BlocksRead >= left.NumBlocks() {
		t.Fatalf("cancelled join read all %d left blocks", st.Left.BlocksRead)
	}
}

// TestMergeJoinBatchEarlyStop checks emit=false stops the φ-space join
// with the right number of matches counted.
func TestMergeJoinBatchEarlyStop(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 800, 11)
	lb, _ := newBatchPair(t, core.CodecAVQ, tuples)
	rb, _ := newBatchPair(t, core.CodecAVQ, tuples)
	seen := 0
	st, err := MergeJoinEachContext(ctx, lb, rb, func(JoinRow) bool {
		seen++
		return seen < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 10 || st.Matches != 10 {
		t.Fatalf("early stop: emitted %d, Matches %d", seen, st.Matches)
	}
}

// TestMergeJoinEmittedRowsSafeToRetain checks the φ-space join's
// materialized tuples stay intact after the join advances (each group
// row is a fresh φ⁻¹ tuple, not an arena alias).
func TestMergeJoinEmittedRowsSafeToRetain(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 600, 13)
	lb, _ := newBatchPair(t, core.CodecPacked, tuples)
	rb, _ := newBatchPair(t, core.CodecPacked, tuples)
	var rows []JoinRow
	if _, err := MergeJoinEachContext(ctx, lb, rb, func(r JoinRow) bool {
		rows = append(rows, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	s := lb.Schema()
	for i, r := range rows {
		if err := s.ValidateTuple(r.Left); err != nil {
			t.Fatalf("row %d left invalid after join: %v", i, err)
		}
		if r.Left[0] != r.Right[0] {
			t.Fatalf("row %d keys diverge: %v vs %v", i, r.Left, r.Right)
		}
	}
}

// TestSyncBatchRouting checks the lock-then-plan shells route flat schemas
// to the batch kernels: results identical to the tuple path, batch counters
// live.
func TestSyncBatchRouting(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 1200, 23)
	batch, oracle := newBatchPair(t, core.CodecAVQ, tuples)
	n, st, err := batch.CountRangeContext(ctx, 0, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	on, _, err := oracle.CountRangeContext(ctx, 0, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if n != on {
		t.Fatalf("batch count %d, tuple %d", n, on)
	}
	if st.BatchBlocks == 0 {
		t.Fatal("count did not take the batch path")
	}
	bg, _, err := batch.GroupByContext(ctx, 0, 0, 7, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	og, _, err := oracle.GroupByContext(ctx, 0, 0, 7, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bg, og) {
		t.Fatalf("batch GroupBy %+v, tuple %+v", bg, og)
	}
}

// TestBatchCountAllocsBounded keeps the whole table-level batch count —
// plan, snapshot, batch pass, stats fold — within a small allocation
// budget once the buffer pool is warm. The kernel itself must not
// allocate; the budget covers plan/span scaffolding only.
func TestBatchCountAllocsBounded(t *testing.T) {
	tuples := randomTuples(t, 2000, 29)
	s := testSchema(t)
	tb := createTable(t, s, WithCodec(core.CodecPacked), WithPageSize(512))
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Warm the arena pool (the batch pass returns its arena sized for a
	// full block).
	if _, _, err := tb.CountRangeContext(ctx, 0, 0, 7); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := tb.CountRangeContext(ctx, 0, 2, 5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24 {
		t.Fatalf("batch CountRange allocates %.0f objects/op; want <= 24", allocs)
	}
}
