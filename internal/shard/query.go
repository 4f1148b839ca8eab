package shard

import (
	"context"
	"sort"

	"repro/internal/exec"
	"repro/internal/relation"
	"repro/internal/table"
)

// bounds maps a range predicate to the attribute-0 span it implies for
// catalog pruning: predicates on any other attribute cannot prune shards
// and span the whole domain.
func (db *DB) bounds(attr int, lo, hi uint64) (uint64, uint64) {
	if attr == 0 {
		return lo, hi
	}
	return 0, db.cat.Domain - 1
}

// scans builds the per-shard ShardScan list for a range predicate, each
// Run streaming through the shard's own planner (fence pruning, partial
// decodes, secondary indexes) and depositing its stats in stats[i].
func (db *DB) scans(attr int, lo, hi uint64, stats []table.QueryStats) []exec.ShardScan {
	out := make([]exec.ShardScan, len(db.shards))
	for i := range db.shards {
		i := i
		sLo, sHi := db.cat.RangeOf(i)
		out[i] = exec.ShardScan{
			Lo:     sLo,
			Hi:     sHi,
			Blocks: db.shards[i].NumBlocks(),
			Run: func(ctx context.Context, emit func(relation.Tuple) bool) error {
				st, err := db.shards[i].SelectRangeFuncContext(ctx, attr, lo, hi, emit)
				stats[i] = st
				return err
			},
		}
	}
	return out
}

// fold sums the per-shard stats of one pass with Stats.Add. The blocks
// inside catalog-pruned shards count in BlocksTotal and BlocksPruned, so
// the fence-pruning invariant (pruned + read = candidates) keeps holding
// at the DB level. The strategy reported is the first live shard's
// (shards plan the same predicate the same way, modulo secondary-index
// candidate availability).
func fold(per []table.QueryStats, sc exec.ScatterStats, live []int) table.QueryStats {
	st := table.QueryStats{BlocksTotal: sc.BlocksPruned, BlocksPruned: sc.BlocksPruned}
	if len(live) > 0 {
		st.Strategy = per[live[0]].Strategy
	}
	for _, qs := range per {
		st.Add(qs)
	}
	return st
}

// count bumps the query counters for one scatter pass: the only record
// of its shard-level fan-out and pruning.
func (db *DB) count(sc exec.ScatterStats) {
	db.queries.Inc()
	db.scanned.Add(int64(sc.ShardsScanned))
	db.pruned.Add(int64(sc.ShardsPruned))
}

// SelectRangeContext runs sigma_{lo<=A_attr<=hi}(R) across the shards:
// whole shards prune on the catalog, the rest scatter on the worker pool,
// and the ordered merge returns rows in global φ order — byte-identical
// to the single-table result.
func (db *DB) SelectRangeContext(ctx context.Context, attr int, lo, hi uint64) ([]relation.Tuple, table.QueryStats, error) {
	var out []relation.Tuple
	st, err := db.selectRange(ctx, attr, lo, hi, func(tu relation.Tuple) bool {
		out = append(out, tu)
		return true
	})
	return out, st, err
}

// ScanContext streams every tuple in global φ order until fn returns
// false.
func (db *DB) ScanContext(ctx context.Context, fn func(relation.Tuple) bool) error {
	_, err := db.selectRange(ctx, 0, 0, db.cat.Domain-1, fn)
	return err
}

// selectRange streams the merged rows of sigma_{lo<=A_attr<=hi}(R) to fn
// in global φ order.
func (db *DB) selectRange(ctx context.Context, attr int, lo, hi uint64, fn func(relation.Tuple) bool) (table.QueryStats, error) {
	per := make([]table.QueryStats, len(db.shards))
	pLo, pHi := db.bounds(attr, lo, hi)
	live, _ := db.liveFor(pLo, pHi)
	sc, err := exec.Scatter(ctx, db.scans(attr, lo, hi, per), pLo, pHi, fn)
	db.count(sc)
	return fold(per, sc, live), err
}

// CountRangeContext counts matches. Counting is commutative, so live
// shards count concurrently on their 0-alloc transient paths and the
// totals just add — no streaming merge.
func (db *DB) CountRangeContext(ctx context.Context, attr int, lo, hi uint64) (int, table.QueryStats, error) {
	per := make([]table.QueryStats, len(db.shards))
	live, sc := db.liveFor(db.bounds(attr, lo, hi))
	err := exec.ScatterCollect(ctx, len(live), func(ctx context.Context, j int) error {
		i := live[j]
		_, st, err := db.shards[i].CountRangeContext(ctx, attr, lo, hi)
		per[i] = st
		return err
	})
	db.count(sc)
	st := fold(per, sc, live)
	return st.Matches, st, err
}

// AggregateRangeContext folds COUNT/SUM/MIN/MAX across the live shards.
func (db *DB) AggregateRangeContext(ctx context.Context, attr int, lo, hi uint64, aggAttr int) (table.AggregateResult, table.QueryStats, error) {
	per := make([]table.QueryStats, len(db.shards))
	parts := make([]table.AggregateResult, len(db.shards))
	live, sc := db.liveFor(db.bounds(attr, lo, hi))
	err := exec.ScatterCollect(ctx, len(live), func(ctx context.Context, j int) error {
		i := live[j]
		res, st, err := db.shards[i].AggregateRangeContext(ctx, attr, lo, hi, aggAttr)
		parts[i], per[i] = res, st
		return err
	})
	db.count(sc)
	st := fold(per, sc, live)
	if err != nil {
		return table.AggregateResult{}, st, err
	}
	return mergeAggregates(parts), st, nil
}

// GroupByContext computes per-group aggregates across the live shards
// and re-merges the group tables (group values are shard-independent).
func (db *DB) GroupByContext(ctx context.Context, filterAttr int, lo, hi uint64, groupAttr, aggAttr int) ([]table.GroupResult, table.QueryStats, error) {
	per := make([]table.QueryStats, len(db.shards))
	parts := make([][]table.GroupResult, len(db.shards))
	live, sc := db.liveFor(db.bounds(filterAttr, lo, hi))
	err := exec.ScatterCollect(ctx, len(live), func(ctx context.Context, j int) error {
		i := live[j]
		res, st, err := db.shards[i].GroupByContext(ctx, filterAttr, lo, hi, groupAttr, aggAttr)
		parts[i], per[i] = res, st
		return err
	})
	db.count(sc)
	st := fold(per, sc, live)
	if err != nil {
		return nil, st, err
	}
	return mergeGroups(parts), st, nil
}

// liveFor prunes shards on the catalog for a commutative (non-streaming)
// pass, returning the surviving shard indexes and the scatter stats.
func (db *DB) liveFor(lo, hi uint64) ([]int, exec.ScatterStats) {
	sc := exec.ScatterStats{ShardsTotal: len(db.shards)}
	live := make([]int, 0, len(db.shards))
	for i := range db.shards {
		sLo, sHi := db.cat.RangeOf(i)
		if sHi < lo || sLo > hi {
			sc.ShardsPruned++
			sc.BlocksPruned += db.shards[i].NumBlocks()
			continue
		}
		live = append(live, i)
	}
	sc.ShardsScanned = len(live)
	return live, sc
}

// mergeAggregates folds per-shard aggregates; empty shards contribute
// nothing (their Min is the 0 sentinel, not a real minimum).
func mergeAggregates(parts []table.AggregateResult) table.AggregateResult {
	var out table.AggregateResult
	out.Min = ^uint64(0)
	for _, p := range parts {
		if p.Count == 0 {
			continue
		}
		out.Count += p.Count
		out.Sum += p.Sum
		if p.Min < out.Min {
			out.Min = p.Min
		}
		if p.Max > out.Max {
			out.Max = p.Max
		}
	}
	if out.Count == 0 {
		out.Min = 0
	}
	return out
}

// mergeGroups folds per-shard group tables and restores the ascending
// group-value order the single-table GroupBy promises.
func mergeGroups(parts [][]table.GroupResult) []table.GroupResult {
	merged := make(map[uint64]table.AggregateResult)
	for _, part := range parts {
		for _, g := range part {
			cur, ok := merged[g.Value]
			if !ok {
				merged[g.Value] = g.Agg
				continue
			}
			cur.Count += g.Agg.Count
			cur.Sum += g.Agg.Sum
			if g.Agg.Min < cur.Min {
				cur.Min = g.Agg.Min
			}
			if g.Agg.Max > cur.Max {
				cur.Max = g.Agg.Max
			}
			merged[g.Value] = cur
		}
	}
	out := make([]table.GroupResult, 0, len(merged))
	for v, agg := range merged {
		out = append(out, table.GroupResult{Value: v, Agg: agg})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}
