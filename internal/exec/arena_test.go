package exec

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// TestTransientMatchesNonTransient is the slab-lifetime differential: a
// kernel folding values out of RunBatch's transient slabs (one pooled
// arena, Reset per block) must see exactly the values of the tuples the
// select adapter emits for the caller to retain, for every codec and plan
// shape.
func TestTransientMatchesNonTransient(t *testing.T) {
	s := testSchema(t)
	dig := core.NewDigits(s)
	tuples := randomTuples(t, 1200, 33)
	plans := []Plan{
		{},
		{Preds: []Pred{{Attr: 0, Lo: 2, Hi: 5}}},
		{Preds: []Pred{{Attr: 0, Lo: 3, Hi: 3}}},
		{Preds: []Pred{{Attr: 2, Lo: 10, Hi: 40}}},
		{Preds: []Pred{{Attr: 0, Lo: 1, Hi: 6}, {Attr: 3, Lo: 100, Hi: 3000}}},
		{Preds: []Pred{{Attr: 0, Lo: 2, Hi: 5}}, NoPartial: true},
	}
	hash := func(tu relation.Tuple) uint64 {
		var sum uint64
		for _, v := range tu {
			sum = sum*31 + v
		}
		return sum
	}
	for _, codec := range core.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			store := newStore(t, codec, 512)
			if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
				t.Fatal(err)
			}
			sn := store.Snapshot()
			defer sn.Release()
			tu := make(relation.Tuple, s.NumAttrs())
			for pi, plan := range plans {
				want, wantStats := collect(t, sn, plan)
				var gotSums []uint64
				st, err := RunBatch(context.Background(), sn, plan, func(sl core.Slab) bool {
					for _, phi := range sl.Phis {
						dig.Tuple(tu, phi)
						gotSums = append(gotSums, hash(tu))
					}
					return true
				})
				if err != nil {
					t.Fatalf("plan %d: slab pass: %v", pi, err)
				}
				if len(gotSums) != len(want) || st.Matches != wantStats.Matches {
					t.Fatalf("plan %d: slab pass folded %d rows (Matches %d), select %d (Matches %d)", pi, len(gotSums), st.Matches, len(want), wantStats.Matches)
				}
				for i, tu := range want {
					if gotSums[i] != hash(tu) {
						t.Fatalf("plan %d: row %d differs between the slab pass and the select", pi, i)
					}
				}
			}
		})
	}
}

// TestTransientStats checks the pass accounting: a multi-block pass
// reuses its pooled arena, and a straddling clustered bound on a flat
// schema takes the flat-ordinal span path.
func TestTransientStats(t *testing.T) {
	tuples := randomTuples(t, 1500, 34)
	store := newStore(t, core.CodecAVQ, 512)
	if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()

	st, err := RunContext(context.Background(), sn, Plan{}, func(relation.Tuple) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.FullDecodes < 2 {
		t.Skipf("need >= 2 blocks for reuse accounting, got %d", st.FullDecodes)
	}
	if st.ArenaReuses < st.FullDecodes-1 {
		t.Errorf("ArenaReuses = %d over %d blocks; pooled arena not reused", st.ArenaReuses, st.FullDecodes)
	}
	if st.SlabBytes == 0 {
		t.Error("SlabBytes = 0 after a decoding pass")
	}

	// A clustered bound that straddles block boundaries must use the flat
	// path (the test schema's space fits a uint64).
	if _, ok := sn.Schema().FlatWeights(); !ok {
		t.Fatal("test schema unexpectedly non-flat")
	}
	st, err = RunContext(context.Background(), sn, Plan{Preds: []Pred{{Attr: 0, Lo: 2, Hi: 5}}}, func(relation.Tuple) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.PartialDecodes > 0 && st.FlatPathHits != st.PartialDecodes {
		t.Errorf("FlatPathHits = %d, PartialDecodes = %d; flat schema should route every partial through PhiSpan",
			st.FlatPathHits, st.PartialDecodes)
	}
	if st.PartialDecodes == 0 {
		t.Log("no straddling blocks in this layout; flat path not exercised")
	}

	// A bounded slab pass whose range ends mid-store stops before the end
	// of the block list; its pooled arena must be accounted on that path
	// too.
	st, err = RunBatch(context.Background(), sn, Plan{Preds: []Pred{{Attr: 0, Lo: 2, Hi: 5}}}, func(core.Slab) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchBlocks == 0 || st.BlocksPruned == 0 {
		t.Fatalf("bounded batch pass: %d slabs, %d pruned; want a range ending mid-store", st.BatchBlocks, st.BlocksPruned)
	}
	if st.SlabBytes == 0 {
		t.Error("SlabBytes = 0 after a bounded batch pass")
	}
}

// TestEmptySpanAccountsSlab: a select whose attribute-0 range falls in a
// gap inside one block decodes that block partially and emits nothing; the
// arena the empty span was located in still counts in SlabBytes, on the
// flat and the non-flat path and on every codec with a partial decode.
func TestEmptySpanAccountsSlab(t *testing.T) {
	nonflat := relation.MustSchema(
		relation.Domain{Name: "a", Size: 8},
		relation.Domain{Name: "b", Size: 1 << 40},
		relation.Domain{Name: "c", Size: 1 << 40},
	)
	for _, s := range []*relation.Schema{testSchema(t), nonflat} {
		var tuples []relation.Tuple
		for i := 0; i < 20; i++ {
			tu := make(relation.Tuple, s.NumAttrs())
			tu[0] = 2 + 2*uint64(i%2) // attribute 0 takes 2 and 4; 3 is a gap
			tu[1] = uint64(i / 2)
			tuples = append(tuples, tu)
		}
		s.SortTuples(tuples)
		for _, codec := range []core.Codec{core.CodecRaw, core.CodecAVQ} {
			store := newStoreFor(t, s, codec, 4096)
			if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
				t.Fatal(err)
			}
			sn := store.Snapshot()
			got, st := collect(t, sn, Plan{Preds: []Pred{{Attr: 0, Lo: 3, Hi: 3}}})
			sn.Release()
			if len(got) != 0 || st.PartialDecodes != 1 {
				t.Fatalf("%v %v: %d rows, %d partial decodes; want an empty span in one straddling block", s, codec, len(got), st.PartialDecodes)
			}
			if st.SlabBytes == 0 {
				t.Errorf("%v %v: SlabBytes = 0 after an empty-span partial decode", s, codec)
			}
		}
	}
}
