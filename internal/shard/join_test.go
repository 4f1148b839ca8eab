// Differential oracle for the cross-shard merge join: a 4-shard
// database pair joined through chained per-shard batch streams must
// produce byte-identical rows, in the same global φ order, as the
// single-table merge join over the same data.
package shard_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/backend"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/table"
)

// newJoinPair loads tuples into a 4-shard memory DB and a single default
// oracle table of the same schema, oracleSchema unless one is given.
func newJoinPair(t *testing.T, tuples []relation.Tuple, schema ...*relation.Schema) (*shard.DB, *table.Table) {
	t.Helper()
	ctx := context.Background()
	s := oracleSchema()
	if len(schema) > 0 {
		s = schema[0]
	}
	db, err := shard.Create(s, shard.Config{
		Kind:    backend.KindMemory,
		Shards:  4,
		Options: shardOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	if err := db.BulkLoad(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	oracle, err := table.Create(s, table.WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.BulkLoadContext(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	checkLeaks(t, db)
	checkLeaks(t, oracle)
	return db, oracle
}

// checkLeaks fails t, once the test is over and before the engine's own
// Close cleanup runs, if e still holds a pinned buffer-pool frame or a
// live snapshot: every pass, scatter-gather stream and join must give back
// what it took, on its error and cancellation paths too.
func checkLeaks(t *testing.T, e interface {
	PinnedFrames() int
	LiveSnapshots() int
}) {
	t.Cleanup(func() {
		if n := e.PinnedFrames(); n != 0 {
			t.Errorf("%d buffer-pool frames still pinned at the end of the test", n)
		}
		if n := e.LiveSnapshots(); n != 0 {
			t.Errorf("%d snapshots still live at the end of the test", n)
		}
	})
}

// TestShardMergeJoinMatchesSingleTable joins through chained per-shard
// slab streams on the flat oracle schema (φ slabs) and on a split one —
// the same rows plus one wide constant attribute (tuple slabs).
func TestShardMergeJoinMatchesSingleTable(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(91))
	left := make([]relation.Tuple, 3000)
	for i := range left {
		left[i] = randTuple(rng)
	}
	// Sparse right side: only every 8th dept key, so the join must seek
	// over long key gaps — across shard boundaries, not just blocks.
	right := make([]relation.Tuple, 500)
	for i := range right {
		tu := randTuple(rng)
		tu[0] &^= 7
		right[i] = tu
	}
	split := relation.MustSchema(append(oracleSchema().Domains(), relation.Domain{Name: "wide", Size: 1 << 62})...)
	widen := func(rows []relation.Tuple) []relation.Tuple {
		out := make([]relation.Tuple, len(rows))
		for i, tu := range rows {
			out[i] = append(tu.Clone(), 1<<61)
		}
		return out
	}
	for _, c := range []struct {
		name        string
		s           *relation.Schema
		left, right []relation.Tuple
	}{{"flat", oracleSchema(), left, right}, {"split", split, widen(left), widen(right)}} {
		t.Run(c.name, func(t *testing.T) {
			ldb, lt := newJoinPair(t, c.left, c.s)
			rdb, rt := newJoinPair(t, c.right, c.s)

			got, gst, err := ldb.MergeJoin(ctx, rdb)
			if err != nil {
				t.Fatal(err)
			}
			want, wst, err := table.MergeJoinContext(ctx, lt, rt)
			if err != nil {
				t.Fatal(err)
			}
			if gst.Matches != wst.Matches || len(got) != len(want) {
				t.Fatalf("matches: sharded %d (%d rows), oracle %d (%d rows)",
					gst.Matches, len(got), wst.Matches, len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("row %d: sharded %v⋈%v, oracle %v⋈%v",
						i, got[i].Left, got[i].Right, want[i].Left, want[i].Right)
				}
			}
			if _, flat := c.s.FlatSpace(); flat && (gst.Left.BatchBlocks == 0 || gst.Right.BatchBlocks == 0) {
				t.Fatal("sharded join did not read whole φ slabs")
			}
			if gst.Left.BlocksPruned+gst.Right.BlocksPruned == 0 {
				t.Fatal("sparse-key join pruned no blocks")
			}
			for i := 0; i < ldb.NumShards(); i++ {
				if n := ldb.Shard(i).LiveSnapshots(); n != 0 {
					t.Fatalf("left shard %d leaks %d snapshots", i, n)
				}
			}
			for i := 0; i < rdb.NumShards(); i++ {
				if n := rdb.Shard(i).LiveSnapshots(); n != 0 {
					t.Fatalf("right shard %d leaks %d snapshots", i, n)
				}
			}
		})
	}
}

func TestShardMergeJoinEarlyStop(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(93))
	tuples := make([]relation.Tuple, 1200)
	for i := range tuples {
		tuples[i] = randTuple(rng)
	}
	ldb, _ := newJoinPair(t, tuples)
	rdb, _ := newJoinPair(t, tuples)
	seen := 0
	st, err := ldb.MergeJoinEach(ctx, rdb, func(table.JoinRow) bool {
		seen++
		return seen < 7
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 7 || st.Matches != 7 {
		t.Fatalf("early stop: emitted %d, Matches %d", seen, st.Matches)
	}
	for i := 0; i < ldb.NumShards(); i++ {
		if n := ldb.Shard(i).LiveSnapshots(); n != 0 {
			t.Fatalf("shard %d leaks %d snapshots after early stop", i, n)
		}
	}
}
