package exec

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

func testSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Domain{Name: "dept", Size: 8},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "empno", Size: 4096},
	)
}

func newStore(t testing.TB, codec core.Codec, pageSize int) *blockstore.Store {
	t.Helper()
	return newStoreFor(t, testSchema(t), codec, pageSize)
}

func newStoreFor(t testing.TB, schema *relation.Schema, codec core.Codec, pageSize int) *blockstore.Store {
	t.Helper()
	pager, err := storage.NewMemPager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(pager, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	return poolStore(t, schema, codec, pool)
}

// poolStore is blockstore.New for a test: it fails t on error and, once
// the test is over, fails it again if the pool still holds a pinned frame
// or the store a live snapshot — every pass and iterator must give
// back what it took, on its error and cancellation paths too.
func poolStore(t testing.TB, schema *relation.Schema, codec core.Codec, pool *buffer.Pool) *blockstore.Store {
	t.Helper()
	s, err := blockstore.New(schema, codec, pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if n := pool.PinnedFrames(); n != 0 {
			t.Errorf("%d buffer-pool frames still pinned at the end of the test", n)
		}
		if n := s.LiveSnapshots(); n != 0 {
			t.Errorf("%d snapshots still live at the end of the test", n)
		}
	})
	return s
}

func randomTuples(t testing.TB, n int, seed int64) []relation.Tuple {
	t.Helper()
	s := testSchema(t)
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
		}
	}
	s.SortTuples(tuples)
	return tuples
}

// naiveSelect is the reference: full decode of every block, linear filter.
func naiveSelect(tuples []relation.Tuple, preds []Pred) []relation.Tuple {
	var out []relation.Tuple
	for _, tu := range tuples {
		if matchesAll(preds, tu) {
			out = append(out, tu)
		}
	}
	return out
}

func collect(t *testing.T, sn *blockstore.Snapshot, plan Plan) ([]relation.Tuple, Stats) {
	t.Helper()
	var out []relation.Tuple
	st, err := RunContext(context.Background(), sn, plan, func(tu relation.Tuple) bool {
		out = append(out, tu)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

// TestRunMatchesNaive is the executor's differential test: on every
// codec, for clustered bounds, non-clustering predicates, conjunctions,
// and both decode paths, Run must return exactly the tuples a full
// decode-and-filter reference produces, in φ order.
func TestRunMatchesNaive(t *testing.T) {
	s := testSchema(t)
	tuples := randomTuples(t, 1500, 21)
	plans := []Plan{
		{},
		{Preds: []Pred{{Attr: 0, Lo: 2, Hi: 5}}},
		{Preds: []Pred{{Attr: 0, Lo: 3, Hi: 3}}},
		{Preds: []Pred{{Attr: 0, Lo: 7, Hi: 7}}},
		{Preds: []Pred{{Attr: 0, Lo: 0, Hi: 0}}},
		{Preds: []Pred{{Attr: 2, Lo: 10, Hi: 40}}},
		{Preds: []Pred{{Attr: 0, Lo: 1, Hi: 6}, {Attr: 3, Lo: 100, Hi: 3000}}},
		{Preds: []Pred{{Attr: 1, Lo: 4, Hi: 9}, {Attr: 2, Lo: 0, Hi: 31}}},
	}
	for _, codec := range core.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			store := newStore(t, codec, 512)
			if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
				t.Fatal(err)
			}
			sn := store.Snapshot()
			defer sn.Release()
			for pi, plan := range plans {
				want := naiveSelect(tuples, plan.Preds)
				for _, noPartial := range []bool{false, true} {
					plan.NoPartial = noPartial
					got, st := collect(t, sn, plan)
					if len(got) != len(want) {
						t.Fatalf("plan %d noPartial=%v: %d matches, want %d", pi, noPartial, len(got), len(want))
					}
					for i := range got {
						if s.Compare(got[i], want[i]) != 0 {
							t.Fatalf("plan %d noPartial=%v: tuple %d = %v, want %v", pi, noPartial, i, got[i], want[i])
						}
					}
					if st.Matches != len(want) {
						t.Fatalf("plan %d: Matches=%d, want %d", pi, st.Matches, len(want))
					}
					if st.BlocksRead+st.BlocksPruned > st.BlocksTotal {
						t.Fatalf("plan %d: accounting exceeds total: %+v", pi, st)
					}
				}
			}
		})
	}
}

// TestRunPrunesAndPartialDecodes: a selective clustered range must skip
// non-intersecting blocks on their fences alone and decode boundary
// blocks partially.
func TestRunPrunesAndPartialDecodes(t *testing.T) {
	store := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 4000, 22)
	if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	got, st := collect(t, sn, Plan{Preds: []Pred{{Attr: 0, Lo: 3, Hi: 3}}})
	want := naiveSelect(tuples, []Pred{{Attr: 0, Lo: 3, Hi: 3}})
	if len(got) != len(want) {
		t.Fatalf("%d matches, want %d", len(got), len(want))
	}
	if st.BlocksPruned == 0 {
		t.Fatalf("no blocks pruned on a 1-of-8 clustered range: %+v", st)
	}
	if st.PartialDecodes == 0 {
		t.Fatalf("no partial decodes on a straddling range: %+v", st)
	}
	if st.BlocksRead >= st.BlocksTotal {
		t.Fatalf("pruning read every block: %+v", st)
	}
	if st.BlocksPruned+st.BlocksRead != st.BlocksTotal {
		t.Fatalf("every block must be pruned or visited: %+v", st)
	}

	// At 1 % selectivity — one value of a 100-value clustering domain —
	// the fences alone must skip at least 90 % of the blocks.
	wide := relation.MustSchema(
		relation.Domain{Name: "a", Size: 100},
		relation.Domain{Name: "b", Size: 64},
		relation.Domain{Name: "c", Size: 4096},
	)
	rng := rand.New(rand.NewSource(24))
	tuples = make([]relation.Tuple, 4000)
	for i := range tuples {
		tuples[i] = relation.Tuple{uint64(rng.Intn(100)), uint64(rng.Intn(64)), uint64(rng.Intn(4096))}
	}
	wide.SortTuples(tuples)
	store = newStoreFor(t, wide, core.CodecAVQ, 512)
	if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	wsn := store.Snapshot()
	defer wsn.Release()
	one := []Pred{{Attr: 0, Lo: 30, Hi: 30}}
	got, st = collect(t, wsn, Plan{Preds: one})
	if len(got) != len(naiveSelect(tuples, one)) || st.PartialDecodes == 0 {
		t.Fatalf("1%% range: %d matches, want %d; stats %+v", len(got), len(naiveSelect(tuples, one)), st)
	}
	if share := float64(st.BlocksPruned) / float64(st.BlocksTotal); share < 0.9 || st.BlocksPruned+st.BlocksRead != st.BlocksTotal {
		t.Fatalf("1%% range pruned %.0f%% of blocks, want >= 90%%: %+v", 100*share, st)
	}
}

// TestCoveredBlocksFilterResidual: a block whose fence lies inside the
// clustering bound is filtered on the residual conjuncts alone, and still
// on them; a straddling block read in full (packed, or NoPartial) keeps
// the bound. Matches and BlocksRead agree with NoPartial on and off.
func TestCoveredBlocksFilterResidual(t *testing.T) {
	tuples := randomTuples(t, 3000, 25)
	preds := []Pred{{Attr: 0, Lo: 2, Hi: 5}, {Attr: 3, Lo: 100, Hi: 1500}}
	want := naiveSelect(tuples, preds)
	for _, codec := range core.Codecs() {
		store := newStore(t, codec, 512)
		if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
			t.Fatal(err)
		}
		sn := store.Snapshot()
		covered := 0
		for i := 0; i < sn.NumBlocks(); i++ {
			if f := sn.Fence(i); f.First[0] >= 2 && f.Last[0] <= 5 {
				covered++
			}
		}
		if covered == 0 {
			t.Fatalf("%v: no block lies inside the bound", codec)
		}
		var stats [2]Stats
		for k, noPartial := range []bool{false, true} {
			got, st := collect(t, sn, Plan{Preds: preds, NoPartial: noPartial})
			if !sameRows(testSchema(t), got, want) || st.Matches != len(want) {
				t.Fatalf("%v noPartial=%v: %d rows (Matches %d), want %d", codec, noPartial, len(got), st.Matches, len(want))
			}
			stats[k] = st
		}
		if stats[0].BlocksRead != stats[1].BlocksRead {
			t.Fatalf("%v: BlocksRead %d with partial decodes, %d without", codec, stats[0].BlocksRead, stats[1].BlocksRead)
		}
		sn.Release()
	}
}

// sameRows reports whether got and want hold the same tuples in order.
func sameRows(s *relation.Schema, got, want []relation.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if s.Compare(got[i], want[i]) != 0 {
			return false
		}
	}
	return true
}

// TestRunCandidates: a candidate set must restrict reads to its blocks.
func TestRunCandidates(t *testing.T) {
	store := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 2000, 23)
	if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	cand := map[storage.PageID]struct{}{
		sn.Block(0):                  {},
		sn.Block(sn.NumBlocks() / 2): {},
	}
	_, st := collect(t, sn, Plan{Preds: []Pred{{Attr: 2, Lo: 0, Hi: 63}}, Candidates: cand})
	if st.BlocksRead != len(cand) {
		t.Fatalf("read %d blocks for %d candidates", st.BlocksRead, len(cand))
	}
}

// TestRunEarlyStop: emit returning false must end the pass immediately.
func TestRunEarlyStop(t *testing.T) {
	store := newStore(t, core.CodecAVQ, 512)
	if _, err := store.BulkLoadContext(context.Background(), randomTuples(t, 2000, 24)); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	seen := 0
	st, err := RunContext(context.Background(), sn, Plan{}, func(relation.Tuple) bool {
		seen++
		return seen < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 5 || st.Matches != 5 {
		t.Fatalf("early stop after %d tuples (Matches=%d)", seen, st.Matches)
	}
	if st.FullDecodes != 1 {
		t.Fatalf("early stop decoded %d blocks", st.FullDecodes)
	}
}

// TestIteratorNext: the pull iterator must stream every row in φ order
// and read each block once, on every codec.
func TestIteratorNext(t *testing.T) {
	s := testSchema(t)
	tuples := randomTuples(t, 1500, 25)
	for _, codec := range core.Codecs() {
		store := newStore(t, codec, 512)
		if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
			t.Fatal(err)
		}
		it := NewBatchIterator(context.Background(), store.Snapshot())
		if got := drain(t, s, it); !sameRows(s, got, tuples) {
			t.Fatalf("%v: iterator returned %d of %d rows (or they differ)", codec, len(got), len(tuples))
		}
		if it.Stats.BlocksRead != store.NumBlocks() {
			t.Fatalf("%v: iterator read %d of %d blocks", codec, it.Stats.BlocksRead, store.NumBlocks())
		}
		it.Release()
	}
}

// TestRunSeesSnapshot: a pass over a snapshot taken before a mutation
// must return the pre-mutation contents.
func TestRunSeesSnapshot(t *testing.T) {
	s := testSchema(t)
	store := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 800, 26)
	if _, err := store.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	sn := store.Snapshot()
	defer sn.Release()
	extra := relation.Tuple{3, 3, 3, 3}
	if _, err := store.Insert(extra); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, sn, Plan{})
	if len(got) != len(tuples) {
		t.Fatalf("snapshot pass saw %d tuples, pre-mutation had %d", len(got), len(tuples))
	}
	for i := range got {
		if s.Compare(got[i], tuples[i]) != 0 {
			t.Fatalf("snapshot tuple %d mutated", i)
		}
	}
	// The live store sees the insert.
	live := store.Snapshot()
	defer live.Release()
	gotLive, _ := collect(t, live, Plan{})
	if len(gotLive) != len(tuples)+1 {
		t.Fatalf("live pass saw %d tuples, want %d", len(gotLive), len(tuples)+1)
	}
}

// TestStatsAddSumsEveryField: Add must sum every count Stats carries, so
// a field added later cannot be dropped by a multi-pass sum; Strategy is
// the only non-count field, and the receiver keeps its own.
func TestStatsAddSumsEveryField(t *testing.T) {
	var s, o Stats
	sv, ov := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&o).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		switch {
		case f.Name == "Strategy":
			sv.Field(i).Set(reflect.ValueOf(StrategySecondary))
			ov.Field(i).Set(reflect.ValueOf(StrategyFullScan))
		case f.Type.Kind() == reflect.Int:
			sv.Field(i).SetInt(int64(100 * (i + 1)))
			ov.Field(i).SetInt(int64(i + 1))
		default:
			t.Fatalf("Stats.%s is a %v: Add sums ints only; say how it combines", f.Name, f.Type)
		}
	}
	s.Add(o)
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		if f.Name == "Strategy" {
			if s.Strategy != StrategySecondary {
				t.Errorf("Add changed the receiver's Strategy to %v", s.Strategy)
			}
			continue
		}
		if got, want := sv.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", f.Name, got, want)
		}
	}
}
