// Differential oracle: a sharded database and a single table fed the
// same mixed workload must answer every query identically — same rows in
// the same (global φ) order, same counts, same aggregates, same groups —
// across all three backend kinds, before and after a close/reopen cycle.
package shard_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/backend"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/table"
)

func oracleSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Domain{Name: "dept", Size: 64},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "empno", Size: 4096},
	)
}

func randTuple(rng *rand.Rand) relation.Tuple {
	return relation.Tuple{
		uint64(rng.Intn(64)), uint64(rng.Intn(16)),
		uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
	}
}

func tuplesEqual(a, b relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func shardOpts() []table.Option {
	return []table.Option{table.WithPageSize(512)}
}

// compareAll runs the query battery against both engines and fails on
// the first divergence.
func compareAll(t *testing.T, tag string, db *shard.DB, oracle *table.Table) {
	t.Helper()
	ctx := context.Background()

	if db.Len() != oracle.Len() {
		t.Fatalf("%s: Len %d vs %d", tag, db.Len(), oracle.Len())
	}

	ranges := [][3]uint64{ // attr, lo, hi
		{0, 0, 63}, {0, 10, 20}, {0, 16, 16}, {0, 48, 63}, {0, 63, 63},
		{1, 3, 9}, {2, 0, 5}, {3, 1000, 1100},
	}
	for _, r := range ranges {
		attr, lo, hi := int(r[0]), r[1], r[2]
		got, _, err := db.SelectRangeContext(ctx, attr, lo, hi)
		if err != nil {
			t.Fatalf("%s: sharded SelectRange(%d,%d,%d): %v", tag, attr, lo, hi, err)
		}
		want, _, err := oracle.SelectRangeContext(ctx, attr, lo, hi)
		if err != nil {
			t.Fatalf("%s: oracle SelectRange: %v", tag, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: SelectRange(%d,%d,%d) %d rows vs %d", tag, attr, lo, hi, len(got), len(want))
		}
		for i := range got {
			if !tuplesEqual(got[i], want[i]) {
				t.Fatalf("%s: SelectRange(%d,%d,%d) row %d: %v vs %v", tag, attr, lo, hi, i, got[i], want[i])
			}
		}

		n, _, err := db.CountRangeContext(ctx, attr, lo, hi)
		if err != nil {
			t.Fatalf("%s: sharded CountRange: %v", tag, err)
		}
		if n != len(want) {
			t.Fatalf("%s: CountRange(%d,%d,%d) = %d, want %d", tag, attr, lo, hi, n, len(want))
		}

		agg, _, err := db.AggregateRangeContext(ctx, attr, lo, hi, 3)
		if err != nil {
			t.Fatalf("%s: sharded AggregateRange: %v", tag, err)
		}
		wantAgg, _, err := oracle.AggregateRangeContext(ctx, attr, lo, hi, 3)
		if err != nil {
			t.Fatalf("%s: oracle AggregateRange: %v", tag, err)
		}
		if agg != wantAgg {
			t.Fatalf("%s: AggregateRange(%d,%d,%d) %+v vs %+v", tag, attr, lo, hi, agg, wantAgg)
		}

		groups, _, err := db.GroupByContext(ctx, attr, lo, hi, 1, 2)
		if err != nil {
			t.Fatalf("%s: sharded GroupBy: %v", tag, err)
		}
		wantGroups, _, err := oracle.GroupByContext(ctx, attr, lo, hi, 1, 2)
		if err != nil {
			t.Fatalf("%s: oracle GroupBy: %v", tag, err)
		}
		if !reflect.DeepEqual(groups, wantGroups) {
			t.Fatalf("%s: GroupBy(%d,%d,%d) %v vs %v", tag, attr, lo, hi, groups, wantGroups)
		}
	}

	// Full scans stream identical sequences.
	var scanned []relation.Tuple
	if err := db.ScanContext(ctx, func(tu relation.Tuple) bool {
		scanned = append(scanned, tu)
		return true
	}); err != nil {
		t.Fatalf("%s: sharded Scan: %v", tag, err)
	}
	var wantScan []relation.Tuple
	if err := oracle.ScanContext(ctx, func(tu relation.Tuple) bool {
		wantScan = append(wantScan, tu.Clone())
		return true
	}); err != nil {
		t.Fatalf("%s: oracle Scan: %v", tag, err)
	}
	if len(scanned) != len(wantScan) {
		t.Fatalf("%s: Scan %d rows vs %d", tag, len(scanned), len(wantScan))
	}
	for i := range scanned {
		if !tuplesEqual(scanned[i], wantScan[i]) {
			t.Fatalf("%s: Scan row %d: %v vs %v", tag, i, scanned[i], wantScan[i])
		}
	}
}

func TestDifferentialOracle(t *testing.T) {
	kinds := []backend.Kind{backend.KindMemory, backend.KindFilesystem, backend.KindObject}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			ctx := context.Background()
			rng := rand.New(rand.NewSource(41))
			reg := obs.NewRegistry()

			dir := t.TempDir()
			db, err := shard.Create(oracleSchema(), shard.Config{
				Kind: kind, Dir: dir, Shards: 4,
				Options: shardOpts(), Obs: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := table.Create(oracleSchema(), shardOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()

			// Mixed workload, applied identically to both engines.
			apply := func(name string, sharded, single func() error) {
				t.Helper()
				if err := sharded(); err != nil {
					t.Fatalf("%s (sharded): %v", name, err)
				}
				if err := single(); err != nil {
					t.Fatalf("%s (oracle): %v", name, err)
				}
			}

			seed := make([]relation.Tuple, 3000)
			for i := range seed {
				seed[i] = randTuple(rng)
			}
			apply("bulkload",
				func() error { return db.BulkLoad(ctx, seed) },
				func() error { return oracle.BulkLoadContext(ctx, seed) })
			compareAll(t, kind.String()+"/loaded", db, oracle)

			var extra []relation.Tuple
			for i := 0; i < 300; i++ {
				extra = append(extra, randTuple(rng))
			}
			apply("insert-batch",
				func() error { return db.InsertBatchContext(ctx, extra) },
				func() error { return oracle.InsertBatchContext(ctx, extra) })
			for i := 0; i < 50; i++ {
				tu := randTuple(rng)
				apply("insert",
					func() error { return db.InsertContext(ctx, tu) },
					func() error { return oracle.InsertContext(ctx, tu) })
			}
			for i := 0; i < 200; i++ {
				victim := seed[rng.Intn(len(seed))]
				var da, db2 bool
				apply("delete",
					func() (err error) { da, err = db.DeleteContext(ctx, victim); return },
					func() (err error) { db2, err = oracle.DeleteContext(ctx, victim); return })
				if da != db2 {
					t.Fatalf("delete found-ness diverged: %v vs %v", da, db2)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			for i := 0; i < 50; i++ {
				tu := randTuple(rng)
				apply("post-ckpt insert",
					func() error { return db.InsertContext(ctx, tu) },
					func() error { return oracle.InsertContext(ctx, tu) })
			}
			compareAll(t, kind.String()+"/mutated", db, oracle)
			if err := db.Check(); err != nil {
				t.Fatalf("Check: %v", err)
			}
			if reg.Counter("shard.queries").Value() == 0 {
				t.Fatal("shard.queries counter never moved")
			}

			// Durable kinds must survive a full close/reopen cycle.
			if kind == backend.KindMemory {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				return
			}
			cat := db.Catalog()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			// Reopen with no table options: the catalog alone must carry
			// everything needed to rebuild the shards (page size included).
			re, err := shard.Open(shard.Config{Kind: kind, Dir: dir})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if got := re.Catalog(); got.Epoch <= cat.Epoch-1 || !reflect.DeepEqual(got.Splits, cat.Splits) {
				t.Fatalf("reopened catalog %+v vs closed %+v", got, cat)
			}
			compareAll(t, kind.String()+"/reopened", re, oracle)
			if err := re.Check(); err != nil {
				t.Fatalf("Check after reopen: %v", err)
			}
		})
	}
}

// scatterCounts reads the registry's scatter counters: queries, shards
// scanned, shards pruned.
func scatterCounts(reg *obs.Registry) [3]int64 {
	return [3]int64{
		reg.Counter("shard.queries").Value(),
		reg.Counter("shard.shards_scanned").Value(),
		reg.Counter("shard.shards_pruned").Value(),
	}
}

// scatterDelta is the scatter counters' change across fn.
func scatterDelta(reg *obs.Registry, fn func()) [3]int64 {
	before := scatterCounts(reg)
	fn()
	after := scatterCounts(reg)
	return [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}
}

func TestShardPruning(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	db, err := shard.Create(oracleSchema(), shard.Config{Shards: 8, Options: shardOpts(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(7))
	seed := make([]relation.Tuple, 4000)
	for i := range seed {
		seed[i] = randTuple(rng)
	}
	if err := db.BulkLoad(ctx, seed); err != nil {
		t.Fatal(err)
	}

	// One shard's worth of range: 7 of 8 shards must prune whole.
	var st table.QueryStats
	d := scatterDelta(reg, func() { _, st, err = db.SelectRangeContext(ctx, 0, 0, 7) })
	if err != nil {
		t.Fatal(err)
	}
	if d != [3]int64{1, 1, 7} {
		t.Fatalf("scatter counters moved by %v (queries, scanned, pruned), want [1 1 7]", d)
	}
	if own := db.Shard(0).NumBlocks(); st.BlocksPruned < db.NumBlocks()-own {
		t.Fatalf("whole-shard pruning credited %d blocks, the 7 pruned shards hold %d", st.BlocksPruned, db.NumBlocks()-own)
	}
	// Catalog pruning subsumes fence pruning: the same range on the same
	// rows in one shard prunes no larger a share of its blocks.
	single, err := shard.Create(oracleSchema(), shard.Config{Options: shardOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.BulkLoad(ctx, seed); err != nil {
		t.Fatal(err)
	}
	_, fst, err := single.SelectRangeContext(ctx, 0, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	sharded := float64(st.BlocksPruned) / float64(db.NumBlocks())
	fenced := float64(fst.BlocksPruned) / float64(single.NumBlocks())
	if fenced == 0 || sharded < fenced {
		t.Fatalf("sharded pruned %.3f of its blocks, single-table fences %.3f", sharded, fenced)
	}

	// A predicate on a non-clustering attribute cannot prune shards.
	d = scatterDelta(reg, func() { _, _, err = db.SelectRangeContext(ctx, 1, 0, 3) })
	if err != nil {
		t.Fatal(err)
	}
	if d != [3]int64{1, 8, 0} {
		t.Fatalf("non-clustered scatter counters moved by %v, want [1 8 0]", d)
	}
}

// reader is the read surface a shard.DB shares with its shard tables.
type reader interface {
	SelectRangeContext(ctx context.Context, attr int, lo, hi uint64) ([]relation.Tuple, table.QueryStats, error)
	CountRangeContext(ctx context.Context, attr int, lo, hi uint64) (int, table.QueryStats, error)
	AggregateRangeContext(ctx context.Context, attr int, lo, hi uint64, aggAttr int) (table.AggregateResult, table.QueryStats, error)
	GroupByContext(ctx context.Context, filterAttr int, lo, hi uint64, groupAttr, aggAttr int) ([]table.GroupResult, table.QueryStats, error)
}

// TestShardStatsFoldBatchCounts pins the scatter fold: every sharded
// read reports the sum, by Stats.Add, of what its live shards' tables
// report for the same predicate, field by field — the batch slabs a flat
// schema's shards decode included — plus the blocks of catalog-pruned
// shards in BlocksTotal and BlocksPruned, under the first live shard's
// strategy. ArenaReuses and SlabBytes are left out: they measure the
// pooled arenas a pass happened to draw, not the blocks it read.
func TestShardStatsFoldBatchCounts(t *testing.T) {
	ctx := context.Background()
	db, err := shard.Create(oracleSchema(), shard.Config{Shards: 4, Options: shardOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(13))
	seed := make([]relation.Tuple, 4000)
	for i := range seed {
		seed[i] = randTuple(rng)
	}
	if err := db.BulkLoad(ctx, seed); err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		name string
		run  func(e reader, attr int, lo, hi uint64) (table.QueryStats, error)
	}{
		{"select", func(e reader, attr int, lo, hi uint64) (table.QueryStats, error) {
			_, st, err := e.SelectRangeContext(ctx, attr, lo, hi)
			return st, err
		}},
		{"count", func(e reader, attr int, lo, hi uint64) (table.QueryStats, error) {
			_, st, err := e.CountRangeContext(ctx, attr, lo, hi)
			return st, err
		}},
		{"aggregate", func(e reader, attr int, lo, hi uint64) (table.QueryStats, error) {
			_, st, err := e.AggregateRangeContext(ctx, attr, lo, hi, 3)
			return st, err
		}},
		{"groupby", func(e reader, attr int, lo, hi uint64) (table.QueryStats, error) {
			_, st, err := e.GroupByContext(ctx, attr, lo, hi, 1, 2)
			return st, err
		}},
	}
	ranges := [][3]uint64{ // attr, lo, hi
		{0, 0, 63}, {0, 10, 20}, {0, 16, 16}, {1, 3, 9}, {3, 1000, 1100},
	}
	cat := db.Catalog()
	var all table.QueryStats
	for _, rd := range reads {
		for _, r := range ranges {
			attr, lo, hi := int(r[0]), r[1], r[2]
			got, err := rd.run(db, attr, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			var want table.QueryStats
			live := 0
			for i := 0; i < db.NumShards(); i++ {
				if sLo, sHi := cat.RangeOf(i); attr == 0 && (sHi < lo || sLo > hi) {
					want.BlocksTotal += db.Shard(i).NumBlocks()
					want.BlocksPruned += db.Shard(i).NumBlocks()
					continue
				}
				st, err := rd.run(db.Shard(i), attr, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if live == 0 {
					want.Strategy = st.Strategy
				}
				live++
				want.Add(st)
			}
			all.Add(want)
			got.ArenaReuses, got.SlabBytes = 0, 0
			want.ArenaReuses, want.SlabBytes = 0, 0
			if got != want {
				t.Errorf("%s(%d,%d,%d): sharded %+v, %d live shards sum to %+v", rd.name, attr, lo, hi, got, live, want)
			}
		}
	}
	// The counts the shard layer once dropped must have been exercised.
	if all.FullDecodes == 0 || all.FlatPathHits == 0 || all.PartialDecodes == 0 || all.BatchBlocks == 0 {
		t.Fatalf("the reads left a count unexercised: %+v", all)
	}
}

func TestSingleShardDegenerate(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	db, err := shard.Create(oracleSchema(), shard.Config{Options: shardOpts(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.NumShards() != 1 {
		t.Fatalf("default shard count = %d", db.NumShards())
	}
	if err := db.InsertContext(ctx, relation.Tuple{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	var rows []relation.Tuple
	d := scatterDelta(reg, func() { rows, _, err = db.SelectRangeContext(ctx, 0, 0, 63) })
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
	if d != [3]int64{1, 1, 0} {
		t.Fatalf("scatter counters moved by %v, want [1 1 0]", d)
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRouteRejectsOutOfDomain(t *testing.T) {
	ctx := context.Background()
	db, err := shard.Create(oracleSchema(), shard.Config{Shards: 4, Options: shardOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.InsertContext(ctx, relation.Tuple{64, 0, 0, 0}); err == nil {
		t.Fatal("out-of-domain attribute 0 accepted")
	}
	if err := db.InsertContext(ctx, relation.Tuple{}); err == nil {
		t.Fatal("empty tuple accepted")
	}
}
