package exec

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

// walkFromZero is the reference the seek-started passes are pinned to: the
// from-block-0 linear fence walk the executor used before it sought. It
// visits every block in clustered order, prunes on fences one block at a
// time, decodes every surviving block in full and filters linearly, and
// accounts for each block the way the pass must: a straddling block is a
// partial decode when the plan and codec allow one, a full decode
// otherwise; on the batch path every read block is one slab.
func walkFromZero(t *testing.T, sn *blockstore.Snapshot, plan Plan, batch bool) ([]relation.Tuple, Stats) {
	t.Helper()
	var rows []relation.Tuple
	st := Stats{BlocksTotal: sn.NumBlocks()}
	bound, _ := boundOf(plan.Preds)
	partialOK := !batch && !plan.NoPartial && sn.Codec() != core.CodecPacked
	candidate := func(i int) bool {
		if plan.Candidates == nil {
			return true
		}
		_, ok := plan.Candidates[sn.Block(i)]
		return ok
	}
	for i := 0; i < sn.NumBlocks(); i++ {
		if !candidate(i) {
			continue
		}
		f := sn.Fence(i)
		if bound != nil && f.First[0] > bound.Hi {
			for j := i; j < sn.NumBlocks(); j++ {
				if candidate(j) {
					st.BlocksPruned++
				}
			}
			break
		}
		if bound != nil && f.Last[0] < bound.Lo {
			st.BlocksPruned++
			continue
		}
		tuples, err := sn.ReadBlock(i)
		if err != nil {
			t.Fatal(err)
		}
		st.BlocksRead++
		if bound != nil && partialOK && (f.First[0] < bound.Lo || f.Last[0] > bound.Hi) {
			st.PartialDecodes++
		} else {
			st.FullDecodes++
		}
		if batch {
			st.BatchBlocks++
		}
		for _, tu := range tuples {
			if matchesAll(plan.Preds, tu) {
				rows = append(rows, tu)
				st.Matches++
			}
		}
	}
	return rows, st
}

// walkStats projects the counters the differential compares.
func walkStats(st Stats) [6]int {
	return [6]int{st.BlocksPruned, st.BlocksRead, st.PartialDecodes, st.FullDecodes, st.BatchBlocks, st.Matches}
}

// TestSeekStartedPassMatchesWalk: for every attribute-0 bound over a
// multi-block store — including bounds that fall in the gaps between
// blocks, on one block, and past the domain — with and without a
// candidate set, a residual conjunct and NoPartial, on a flat and a
// non-flat schema, RunContext and RunBatch return the rows and the block
// accounting of the from-block-0 reference walk.
func TestSeekStartedPassMatchesWalk(t *testing.T) {
	shapes := []struct {
		name   string
		schema *relation.Schema
		codecs []core.Codec
	}{
		{"flat", relation.MustSchema(
			relation.Domain{Name: "a", Size: 12},
			relation.Domain{Name: "b", Size: 64},
			relation.Domain{Name: "c", Size: 4096},
		), []core.Codec{core.CodecAVQ, core.CodecPacked}},
		{"nonflat", relation.MustSchema(
			relation.Domain{Name: "a", Size: 12},
			relation.Domain{Name: "b", Size: 1 << 40},
			relation.Domain{Name: "c", Size: 1 << 40},
		), []core.Codec{core.CodecAVQ}},
	}
	// Attribute 0 skips values (gaps between blocks) and is skewed (one
	// value spans many blocks, most blocks straddle nothing).
	attr0 := []uint64{1, 2, 2, 2, 2, 2, 4, 5, 5, 8, 9}
	for _, sh := range shapes {
		for _, codec := range sh.codecs {
			t.Run(fmt.Sprintf("%s/%v", sh.name, codec), func(t *testing.T) {
				s := sh.schema
				_, flat := s.FlatSpace()
				rng := rand.New(rand.NewSource(31))
				tuples := make([]relation.Tuple, 2000)
				for i := range tuples {
					tuples[i] = relation.Tuple{
						attr0[rng.Intn(len(attr0))],
						uint64(rng.Int63n(int64(min(s.Domain(1).Size, 1<<40)))),
						uint64(rng.Int63n(int64(min(s.Domain(2).Size, 1<<40)))),
					}
				}
				s.SortTuples(tuples)
				store := newStoreFor(t, s, codec, 256)
				if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
					t.Fatal(err)
				}
				sn := store.Snapshot()
				defer sn.Release()
				if sn.NumBlocks() < 12 {
					t.Fatalf("only %d blocks; the differential needs a multi-block store", sn.NumBlocks())
				}
				everyThird := map[storage.PageID]struct{}{}
				for i := 0; i < sn.NumBlocks(); i += 3 {
					everyThird[sn.Block(i)] = struct{}{}
				}
				size := s.Domain(0).Size
				residual := Pred{Attr: 1, Lo: s.Domain(1).Size / 4, Hi: s.Domain(1).Size / 2}
				for lo := uint64(0); lo < size; lo++ {
					for hi := lo; hi <= size+1; hi++ { // size, size+1: past the domain
						for variant := 0; variant < 8; variant++ {
							plan := Plan{Preds: []Pred{{Attr: 0, Lo: lo, Hi: hi}}}
							if variant&1 != 0 {
								plan.Candidates = everyThird
							}
							plan.NoPartial = variant&2 != 0
							if variant&4 != 0 {
								plan.Preds = append(plan.Preds, residual)
							}
							label := fmt.Sprintf("a0 in [%d,%d] variant %03b", lo, hi, variant)

							wantRows, wantSt := walkFromZero(t, sn, plan, false)
							gotRows, gotSt := collect(t, sn, plan)
							if !slices.EqualFunc(gotRows, wantRows, func(a, b relation.Tuple) bool { return s.Compare(a, b) == 0 }) {
								t.Fatalf("%s: RunContext returned %d rows, reference walk %d (or they differ)", label, len(gotRows), len(wantRows))
							}
							if walkStats(gotSt) != walkStats(wantSt) {
								t.Fatalf("%s: RunContext stats {pruned read partial full batch matches} = %v, reference walk %v", label, walkStats(gotSt), walkStats(wantSt))
							}
							// A fold reads a flat schema's straddling blocks whole.
							wantRows, wantSt = walkFromZero(t, sn, plan, flat)
							gotRows = nil
							gotSt, err := RunBatch(context.Background(), sn, plan, func(sl core.Slab) bool {
								gotRows = append(gotRows, slabRows(s, sl)...)
								return true
							})
							if err != nil {
								t.Fatalf("%s: RunBatch: %v", label, err)
							}
							if !sameRows(s, gotRows, wantRows) {
								t.Fatalf("%s: RunBatch returned %d rows, reference walk %d (or they differ)", label, len(gotRows), len(wantRows))
							}
							if walkStats(gotSt) != walkStats(wantSt) {
								t.Fatalf("%s: RunBatch stats {pruned read partial full batch matches} = %v, reference walk %v", label, walkStats(gotSt), walkStats(wantSt))
							}
						}
					}
				}
			})
		}
	}
}
