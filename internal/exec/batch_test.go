package exec

import (
	"context"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/ordinal"
	"repro/internal/relation"
	"repro/internal/storage"
)

// phisOf computes the φ sequence of tuples, checking each ordinal against
// the big.Int reference along the way.
func phisOf(t *testing.T, s *relation.Schema, tuples []relation.Tuple) []uint64 {
	t.Helper()
	out := make([]uint64, len(tuples))
	for i, tu := range tuples {
		out[i] = ordinal.PhiU64(s, tu)
		if big := ordinal.Phi(s, tu); !big.IsUint64() || big.Uint64() != out[i] {
			t.Fatalf("phi(%v) = %d disagrees with big.Int reference %v", tu, out[i], big)
		}
	}
	return out
}

// slabRows returns a slab's rows as owned tuples of schema s.
func slabRows(s *relation.Schema, sl core.Slab) []relation.Tuple {
	return sl.AppendRows(nil, core.NewDigits(s), 0, sl.Len())
}

// modelSelect is the in-test model of a pass: every block decoded in full
// (Snapshot.ReadBlock), filtered on every conjunct in plain Go.
func modelSelect(t *testing.T, sn *blockstore.Snapshot, preds []Pred) []relation.Tuple {
	t.Helper()
	var out []relation.Tuple
	for i := 0; i < sn.NumBlocks(); i++ {
		tuples, err := sn.ReadBlock(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, naiveSelect(tuples, preds)...)
	}
	return out
}

// splitSchema is testSchema plus one attribute wide enough that the space
// exceeds 64 bits, and splitRows the same rows with that attribute held
// constant: the same relation on the split read path.
func splitSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(append(testSchema(t).Domains(), relation.Domain{Name: "wide", Size: 1 << 62})...)
}

func splitRows(tuples []relation.Tuple) []relation.Tuple {
	out := make([]relation.Tuple, len(tuples))
	for i, tu := range tuples {
		out[i] = append(tu.Clone(), 1<<61)
	}
	return out
}

// TestRunBatchMatchesRun pins the slab pass and the select adapter to the
// in-test model on every codec and plan shape, over the flat schema (φ
// slabs) and the split one (tuple slabs): the concatenated slabs of
// RunBatch and the tuples of RunContext must both be exactly the model's
// rows, in order.
func TestRunBatchMatchesRun(t *testing.T) {
	flatRows := randomTuples(t, 1500, 21)
	plans := []Plan{
		{},
		{Preds: []Pred{{Attr: 0, Lo: 2, Hi: 5}}},
		{Preds: []Pred{{Attr: 0, Lo: 3, Hi: 3}}},
		{Preds: []Pred{{Attr: 0, Lo: 0, Hi: 0}}},
		{Preds: []Pred{{Attr: 2, Lo: 10, Hi: 40}}},
		{Preds: []Pred{{Attr: 0, Lo: 1, Hi: 6}, {Attr: 3, Lo: 100, Hi: 3000}}},
		{Preds: []Pred{{Attr: 1, Lo: 4, Hi: 9}, {Attr: 2, Lo: 0, Hi: 31}}},
		{Preds: []Pred{{Attr: 0, Lo: 7, Hi: 20}}},
	}
	for _, codec := range core.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			for _, shape := range []struct {
				s    *relation.Schema
				rows []relation.Tuple
			}{{testSchema(t), flatRows}, {splitSchema(t), splitRows(flatRows)}} {
				s := shape.s
				_, flat := s.FlatSpace()
				store := newStoreFor(t, s, codec, 512)
				if _, err := store.BulkLoadContext(context.Background(), shape.rows); err != nil {
					t.Fatal(err)
				}
				sn := store.Snapshot()
				for pi, plan := range plans {
					want := modelSelect(t, sn, plan.Preds)
					var got []relation.Tuple
					st, err := RunBatch(context.Background(), sn, plan, func(sl core.Slab) bool {
						if (sl.Phis != nil) != flat {
							t.Fatalf("flat=%v: slab of the wrong kind", flat)
						}
						got = append(got, slabRows(s, sl)...)
						return true
					})
					if err != nil {
						t.Fatalf("flat=%v plan %d: %v", flat, pi, err)
					}
					if !sameRows(s, got, want) || st.Matches != len(want) {
						t.Fatalf("flat=%v plan %d: RunBatch returned %d rows (Matches %d), model %d (or they differ)", flat, pi, len(got), st.Matches, len(want))
					}
					if flat && len(want) > 0 && (st.BatchBlocks != st.BlocksRead || st.PartialDecodes != 0) {
						t.Errorf("plan %d: a flat fold read %d blocks, %d as whole slabs, %d partially; want every block whole", pi, st.BlocksRead, st.BatchBlocks, st.PartialDecodes)
					}
					if !flat && st.BatchBlocks != 0 {
						t.Errorf("plan %d: a split fold counted %d batch slabs", pi, st.BatchBlocks)
					}
					if sel, _ := collect(t, sn, plan); !sameRows(s, sel, want) {
						t.Fatalf("flat=%v plan %d: RunContext returned %d rows, model %d (or they differ)", flat, pi, len(sel), len(want))
					}
				}
				sn.Release()
			}
		})
	}
}

// TestRunBatchPrunesAndStops: fences must prune non-intersecting blocks,
// and a false-returning kernel must stop the pass after one slab.
func TestRunBatchPrunesAndStops(t *testing.T) {
	store := newStore(t, core.CodecAVQ, 512)
	if _, err := store.BulkLoadContext(context.Background(), randomTuples(t, 3000, 7)); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()

	plan := Plan{Preds: []Pred{{Attr: 0, Lo: 3, Hi: 3}}}
	st, err := RunBatch(context.Background(), sn, plan, func(core.Slab) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksPruned == 0 {
		t.Error("narrow bound pruned no blocks")
	}
	if st.BlocksPruned+st.BatchBlocks != st.BlocksTotal {
		t.Errorf("pruned %d + visited %d != total %d", st.BlocksPruned, st.BatchBlocks, st.BlocksTotal)
	}

	st, err = RunBatch(context.Background(), sn, Plan{}, func(core.Slab) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchBlocks != 1 {
		t.Errorf("early-stopped pass visited %d blocks, want 1", st.BatchBlocks)
	}
}

// TestRunBatchNonFlat: on a schema whose space exceeds 64 bits the slab
// pass hands its kernel tuple slabs, holding the model's rows.
func TestRunBatchNonFlat(t *testing.T) {
	wide := relation.MustSchema(
		relation.Domain{Name: "a", Size: 1 << 40},
		relation.Domain{Name: "b", Size: 1 << 40},
	)
	pager, err := storage.NewMemPager(512)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(pager, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	store := poolStore(t, wide, core.CodecAVQ, pool)
	rows := []relation.Tuple{{1, 2}, {3, 4}}
	if _, err := store.BulkLoadContext(context.Background(), rows); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	var got []relation.Tuple
	if _, err := RunBatch(context.Background(), sn, Plan{}, func(sl core.Slab) bool {
		if sl.Phis != nil {
			t.Fatal("φ slab on a split schema")
		}
		got = append(got, slabRows(wide, sl)...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !sameRows(wide, got, rows) {
		t.Errorf("RunBatch on a split schema returned %v, want %v", got, rows)
	}
}

// drain collects every remaining row of a Stream as tuples of schema s.
func drain(t *testing.T, s *relation.Schema, st Stream) []relation.Tuple {
	t.Helper()
	var out []relation.Tuple
	for {
		sl, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if sl.Len() == 0 {
			return out
		}
		out = append(out, slabRows(s, sl)...)
	}
}

// TestBatchIteratorMatchesIterator: the slab stream's concatenation must
// be every row of the model, in order, for every codec, on the flat and
// the split schema.
func TestBatchIteratorMatchesIterator(t *testing.T) {
	tuples := randomTuples(t, 2000, 77)
	for _, codec := range core.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			for _, s := range []*relation.Schema{testSchema(t), splitSchema(t)} {
				rows := tuples
				if _, flat := s.FlatSpace(); !flat {
					rows = splitRows(tuples)
				}
				store := newStoreFor(t, s, codec, 512)
				if _, err := store.BulkLoadContext(context.Background(), rows); err != nil {
					t.Fatal(err)
				}
				it := NewBatchIterator(context.Background(), store.Snapshot())
				got := drain(t, s, it)
				if !sameRows(s, got, rows) {
					t.Fatalf("%v: stream returned %d rows, want %d (or they differ)", s, len(got), len(rows))
				}
				if it.Stats.BlocksRead != it.Stats.BlocksTotal {
					t.Fatalf("%v: stream read %d of %d blocks", s, it.Stats.BlocksRead, it.Stats.BlocksTotal)
				}
				it.Release()
			}
		})
	}
}

// TestBatchIteratorSeekPhi: after Seek(k) the stream must still deliver
// every row with attribute 0 >= k (the first slab may carry a smaller
// prefix — consumers clip in-slab), and fence-known seeks must prune.
func TestBatchIteratorSeekPhi(t *testing.T) {
	s := testSchema(t)
	tuples := randomTuples(t, 3000, 13)
	store := newStore(t, core.CodecAVQ, 512)
	if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k <= 8; k++ {
		it := NewBatchIterator(context.Background(), store.Snapshot())
		it.Seek(k)
		var tail []relation.Tuple
		for _, tu := range drain(t, s, it) {
			if tu[0] >= k {
				tail = append(tail, tu)
			}
		}
		if want := naiveSelect(tuples, []Pred{{Attr: 0, Lo: k, Hi: 7}}); !sameRows(s, tail, want) {
			t.Fatalf("seek %d: %d rows with attribute 0 >= key, want %d", k, len(tail), len(want))
		}
		if k >= 3 && it.Stats.BlocksPruned == 0 {
			t.Errorf("seek to key %d pruned no blocks", k)
		}
		it.Release()
	}
}

// TestChainPhiStreams emulates φ-range shards: two stores holding
// disjoint attribute-0 ranges, chained, must stream as one table — and a
// seek raised in the first shard's range must carry into the second.
func TestChainPhiStreams(t *testing.T) {
	s := testSchema(t)
	tuples := randomTuples(t, 2000, 5)
	var low, high []relation.Tuple
	for _, tu := range tuples {
		if tu[0] < 4 {
			low = append(low, tu)
		} else {
			high = append(high, tu)
		}
	}
	storeA, storeB := newStore(t, core.CodecAVQ, 512), newStore(t, core.CodecAVQ, 512)
	if _, err := storeA.BulkLoadContext(context.Background(), low); err != nil {
		t.Fatal(err)
	}
	if _, err := storeB.BulkLoadContext(context.Background(), high); err != nil {
		t.Fatal(err)
	}
	itA := NewBatchIterator(context.Background(), storeA.Snapshot())
	defer itA.Release()
	itB := NewBatchIterator(context.Background(), storeB.Snapshot())
	defer itB.Release()

	chain := ChainStreams(itA, itB)
	chain.Seek(5) // inside the second store's range
	var kept []relation.Tuple
	for _, tu := range drain(t, s, chain) {
		if tu[0] >= 5 {
			kept = append(kept, tu)
		}
	}
	if want := naiveSelect(tuples, []Pred{{Attr: 0, Lo: 5, Hi: 7}}); !sameRows(s, kept, want) {
		t.Fatalf("chained seek kept %d rows, want %d (or they differ)", len(kept), len(want))
	}
	// The high-water seek must have pruned within the second shard too.
	if itB.Stats.BlocksPruned == 0 {
		t.Error("seek into the second shard's range pruned none of its blocks")
	}
}

// TestMergeJoinPhis pins the merge join to a nested-loop model on the
// attribute-0 key, for every codec, on flat stores (φ slabs), split stores
// (tuple slabs) and one of each.
func TestMergeJoinPhis(t *testing.T) {
	left := randomTuples(t, 900, 31)
	right := randomTuples(t, 700, 32)
	wantPairs := map[uint64]int{}
	for _, l := range left {
		for _, r := range right {
			if l[0] == r[0] {
				wantPairs[l[0]]++
			}
		}
	}
	for _, codec := range core.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			for _, split := range [][2]bool{{false, false}, {true, true}, {false, true}} {
				open := func(rows []relation.Tuple, split bool) (*BatchIterator, *relation.Schema) {
					s := testSchema(t)
					if split {
						s, rows = splitSchema(t), splitRows(rows)
					}
					store := newStoreFor(t, s, codec, 512)
					if _, err := store.BulkLoadContext(context.Background(), rows); err != nil {
						t.Fatal(err)
					}
					return NewBatchIterator(context.Background(), store.Snapshot()), s
				}
				li, ls := open(left, split[0])
				ri, rs := open(right, split[1])
				gotPairs := map[uint64]int{}
				err := MergeJoin(li, ri, ls, rs, func(key uint64, lg, rg []relation.Tuple) bool {
					for _, tu := range append(append([]relation.Tuple(nil), lg...), rg...) {
						if tu[0] != key {
							t.Fatalf("group for key %d holds %v", key, tu)
						}
					}
					if _, dup := gotPairs[key]; dup {
						t.Fatalf("key %d emitted twice", key)
					}
					gotPairs[key] = len(lg) * len(rg)
					return true
				})
				li.Release()
				ri.Release()
				if err != nil {
					t.Fatal(err)
				}
				if len(gotPairs) != len(wantPairs) {
					t.Fatalf("split %v: join emitted %d keys, want %d", split, len(gotPairs), len(wantPairs))
				}
				for k, n := range wantPairs {
					if gotPairs[k] != n {
						t.Errorf("split %v: key %d: %d pairs, want %d", split, k, gotPairs[k], n)
					}
				}
			}
		})
	}
}

// TestMergeJoinPhisEdgeCases: an empty side joins to nothing, and a
// false-returning emit stops after one group.
func TestMergeJoinPhisEdgeCases(t *testing.T) {
	s := testSchema(t)
	full := newStore(t, core.CodecAVQ, 512)
	if _, err := full.BulkLoadContext(context.Background(), randomTuples(t, 500, 3)); err != nil {
		t.Fatal(err)
	}
	empty := newStore(t, core.CodecAVQ, 512)

	fi := NewBatchIterator(context.Background(), full.Snapshot())
	defer fi.Release()
	ei := NewBatchIterator(context.Background(), empty.Snapshot())
	defer ei.Release()
	calls := 0
	if err := MergeJoin(fi, ei, s, s, func(uint64, []relation.Tuple, []relation.Tuple) bool {
		calls++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("join against empty stream emitted %d groups", calls)
	}

	ai := NewBatchIterator(context.Background(), full.Snapshot())
	defer ai.Release()
	bi := NewBatchIterator(context.Background(), full.Snapshot())
	defer bi.Release()
	calls = 0
	if err := MergeJoin(ai, bi, s, s, func(uint64, []relation.Tuple, []relation.Tuple) bool {
		calls++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("early-stopped join emitted %d groups, want 1", calls)
	}
}

// TestBatchIteratorZeroAllocSteadyState holds the slab read to the same
// guarantee as the decode kernels: with the pooled arena sized, Next
// decodes each block off its pinned page with zero heap allocations.
func TestBatchIteratorZeroAllocSteadyState(t *testing.T) {
	store := newStore(t, core.CodecAVQ, 512)
	if _, err := store.BulkLoadContext(context.Background(), randomTuples(t, 6000, 91)); err != nil {
		t.Fatal(err)
	}
	// Size the pooled arena with one full drain.
	warm := NewBatchIterator(context.Background(), store.Snapshot())
	drain(t, store.Schema(), warm)
	warm.Release()

	it := NewBatchIterator(context.Background(), store.Snapshot())
	defer it.Release()
	blocks := it.Stats.BlocksTotal
	const runs = 20
	if blocks < runs+3 {
		t.Fatalf("layout has only %d blocks; need > %d for a steady-state window", blocks, runs+3)
	}
	if _, err := it.Next(); err != nil { // first fill outside the window
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		sl, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if sl.Len() == 0 {
			t.Fatal("stream ended inside the measurement window")
		}
	})
	if allocs != 0 {
		t.Errorf("Next allocates %.1f objects/block steady-state, want 0", allocs)
	}
}

// TestRunBatchAllocsBounded: a slab pass allocates O(1) bookkeeping per
// pass, nothing per block or per row.
func TestRunBatchAllocsBounded(t *testing.T) {
	store := newStore(t, core.CodecAVQ, 512)
	if _, err := store.BulkLoadContext(context.Background(), randomTuples(t, 3000, 35)); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	plan := Plan{Preds: []Pred{{Attr: 0, Lo: 1, Hi: 6}}}
	kernel := func(core.Slab) bool { return true }
	run := func() {
		if _, err := RunBatch(context.Background(), sn, plan, kernel); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(50, run)
	if allocs > 16 {
		t.Errorf("batch pass allocates %.1f objects/op over %d blocks; want O(1)", allocs, sn.NumBlocks())
	}
}
