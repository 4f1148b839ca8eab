package table

import (
	"context"
	"errors"
	"math/big"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// splitSchema is testSchema plus one constant attribute wide enough that
// the space exceeds 64 bits: the same relation on the split read path.
func splitSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(append(testSchema(t).Domains(), relation.Domain{Name: "wide", Size: 1 << 62})...)
}

// newBatchPair loads the same rows into two tables of the given codec:
// one over testSchema, whose reads take φ slabs, and one over splitSchema
// — the rows plus the wide constant attribute — whose reads take tuple
// slabs. Every read on attributes 0-4 must answer the same on both.
func newBatchPair(t *testing.T, codec core.Codec, tuples []relation.Tuple) (flat, split *Table) {
	t.Helper()
	mk := func(s *relation.Schema, rows []relation.Tuple) *Table {
		tb := createTable(t, s, WithCodec(codec), WithPageSize(512))
		if err := tb.BulkLoadContext(context.Background(), rows); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	wide := make([]relation.Tuple, len(tuples))
	for i, tu := range tuples {
		wide[i] = append(tu.Clone(), 1<<61)
	}
	return mk(testSchema(t), tuples), mk(splitSchema(t), wide)
}

// modelRows is the in-test model's read: the rows, in φ order, with
// lo <= A_attr <= hi.
func modelRows(tuples []relation.Tuple, attr int, lo, hi uint64) []relation.Tuple {
	var out []relation.Tuple
	for _, tu := range tuples {
		if tu[attr] >= lo && tu[attr] <= hi {
			out = append(out, tu)
		}
	}
	return out
}

// modelAggregate folds attribute agg of rows in plain Go.
func modelAggregate(rows []relation.Tuple, agg int) AggregateResult {
	res := newAggregate()
	for _, tu := range rows {
		res.add(tu[agg])
	}
	if res.Count == 0 {
		res.Min = 0
	}
	return res
}

// modelGroupBy groups rows by attribute group and aggregates agg.
func modelGroupBy(rows []relation.Tuple, group, agg int) []GroupResult {
	byKey := map[uint64]AggregateResult{}
	for _, tu := range rows {
		a, ok := byKey[tu[group]]
		if !ok {
			a = newAggregate()
		}
		a.add(tu[agg])
		byKey[tu[group]] = a
	}
	var out []GroupResult
	for k, a := range byKey {
		out = append(out, GroupResult{Value: k, Agg: a})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// TestBatchAggregatesMatchTuplePath pins every fold kernel — count,
// aggregate, group-by (clustered and unclustered keys), histogram — to
// the in-test model, per codec, on the flat table (φ slabs) and the split
// one (tuple slabs), and cross-checks one aggregate against a big.Int
// φ-digit reference so the kernels are anchored to the paper's
// arithmetic.
func TestBatchAggregatesMatchTuplePath(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 2000, 42)
	s := testSchema(t)
	s.SortTuples(tuples)
	for _, codec := range core.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			flat, split := newBatchPair(t, codec, tuples)
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
			for _, tb := range []*Table{flat, split} {
				for _, rg := range ranges {
					rows := modelRows(tuples, rg.attr, rg.lo, rg.hi)
					n, st, err := tb.CountRangeContext(ctx, rg.attr, rg.lo, rg.hi)
					if err != nil {
						t.Fatal(err)
					}
					if n != len(rows) {
						t.Fatalf("%v CountRange(%v): %d, model %d", tb.Schema(), rg, n, len(rows))
					}
					if tb == flat && n > 0 && st.BatchBlocks == 0 {
						t.Fatalf("CountRange(%v): the flat fold read no whole φ slab", rg)
					}
					if tb == split && st.BatchBlocks != 0 {
						t.Fatalf("CountRange(%v): the split fold counted %d φ slabs", rg, st.BatchBlocks)
					}
					for agg := 0; agg < 5; agg++ {
						got, _, err := tb.AggregateRangeContext(ctx, rg.attr, rg.lo, rg.hi, agg)
						if err != nil {
							t.Fatal(err)
						}
						if want := modelAggregate(rows, agg); got != want {
							t.Fatalf("%v AggregateRange(%v, agg=%d): %+v, model %+v", tb.Schema(), rg, agg, got, want)
						}
					}
					for _, ga := range []int{0, 1, 2} {
						got, _, err := tb.GroupByContext(ctx, rg.attr, rg.lo, rg.hi, ga, 3)
						if err != nil {
							t.Fatal(err)
						}
						if want := modelGroupBy(rows, ga, 3); !reflect.DeepEqual(got, want) {
							t.Fatalf("%v GroupBy(%v, group=%d): %+v, model %+v", tb.Schema(), rg, ga, got, want)
						}
					}
				}
				checkHistogram(t, tb, tuples, 8)
			}

			// Anchor: SUM over attribute 2 for 2<=A1<=5 recomputed through
			// arbitrary-precision φ digits straight off the loaded tuples.
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
			got, _, err := flat.AggregateRangeContext(ctx, 0, 2, 5, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got.Sum != want.Uint64() || got.Count != wantCount {
				t.Fatalf("big.Int anchor: Sum=%d Count=%d, reference Sum=%s Count=%d",
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

// TestMergeJoinBatchMatchesTuples pins the merge join to a nested-loop
// model, per codec, on flat tables (φ slabs), split tables (tuple slabs)
// and one of each: identical rows on attributes 0-4 in identical order,
// identical match counts, and the flat join must read whole φ slabs and
// prune on sparse keys.
func TestMergeJoinBatchMatchesTuples(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	left := randomTuples(t, 1500, 7)
	// Sparse right side: only every 4th dept key exists, so the left run
	// has long stretches the join should seek over.
	right := make([]relation.Tuple, 0, 400)
	for _, tu := range randomTuples(t, 400, 8) {
		tu[0] &^= 3
		right = append(right, tu)
	}
	s.SortTuples(left)
	s.SortTuples(right)
	var want []JoinRow
	for i := 0; i < len(left); {
		j := i
		for j < len(left) && left[j][0] == left[i][0] {
			j++
		}
		for _, l := range left[i:j] {
			for _, r := range right {
				if r[0] == l[0] {
					want = append(want, JoinRow{Left: l, Right: r})
				}
			}
		}
		i = j
	}
	for _, codec := range core.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			lf, ls := newBatchPair(t, codec, left)
			rf, rs := newBatchPair(t, codec, right)
			for _, pair := range [][2]*Table{{lf, rf}, {ls, rs}, {lf, rs}} {
				got, st, err := MergeJoinContext(ctx, pair[0], pair[1])
				if err != nil {
					t.Fatal(err)
				}
				if st.Matches != len(want) || len(got) != len(want) {
					t.Fatalf("%v ⋈ %v: %d matches (%d rows), model %d", pair[0].Schema(), pair[1].Schema(), st.Matches, len(got), len(want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i].Left[:5], want[i].Left) || !reflect.DeepEqual(got[i].Right[:5], want[i].Right) {
						t.Fatalf("row %d: %v⋈%v, model %v⋈%v", i, got[i].Left, got[i].Right, want[i].Left, want[i].Right)
					}
				}
				if pair[0] == lf && pair[1] == rf {
					if st.Left.BatchBlocks == 0 || st.Right.BatchBlocks == 0 {
						t.Fatal("the flat join read no whole φ slab")
					}
					if st.Left.BlocksPruned == 0 {
						t.Fatal("the sparse-key join pruned no block")
					}
				}
			}
		})
	}
}

// TestMergeJoinTuplesCancelKeepsStats cancels a merge join of split
// tables (tuple slabs) after its first row: the join stops at the next
// block boundary with context.Canceled and still reports the blocks each
// side read.
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

// TestSyncBatchRouting checks the lock-then-plan shells route a flat
// table's folds to whole φ slabs and a split table's to tuple slabs, with
// the same answers.
func TestSyncBatchRouting(t *testing.T) {
	ctx := context.Background()
	tuples := randomTuples(t, 1200, 23)
	flat, split := newBatchPair(t, core.CodecAVQ, tuples)
	n, st, err := flat.CountRangeContext(ctx, 0, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	sn, sst, err := split.CountRangeContext(ctx, 0, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if n != sn || n != len(modelRows(tuples, 0, 1, 6)) {
		t.Fatalf("count: flat %d, split %d, model %d", n, sn, len(modelRows(tuples, 0, 1, 6)))
	}
	if st.BatchBlocks == 0 || sst.BatchBlocks != 0 {
		t.Fatalf("count read %d whole φ slabs on the flat table, %d on the split one", st.BatchBlocks, sst.BatchBlocks)
	}
	fg, _, err := flat.GroupByContext(ctx, 0, 0, 7, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	sg, _, err := split.GroupByContext(ctx, 0, 0, 7, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fg, sg) {
		t.Fatalf("GroupBy: flat %+v, split %+v", fg, sg)
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
