package shard

import (
	"context"

	"repro/internal/relation"
	"repro/internal/table"
)

// This file is the DB's half of the server's Engine seam: the same
// Context-suffixed method set table.Table exposes, so one server binary
// fronts a single-file table or a sharded directory transparently. The
// variants return the summed table.QueryStats (the scatter-level
// accounting stays available on the Stats-returning methods), which keeps
// the signatures identical across both implementations.

// InsertContext routes and inserts one tuple, honouring ctx.
func (db *DB) InsertContext(ctx context.Context, tu relation.Tuple) error {
	return db.Insert(ctx, tu)
}

// InsertBatchContext partitions and inserts a batch, honouring ctx.
func (db *DB) InsertBatchContext(ctx context.Context, tuples []relation.Tuple) error {
	return db.InsertBatch(ctx, tuples)
}

// DeleteContext routes and deletes one tuple, honouring ctx.
func (db *DB) DeleteContext(ctx context.Context, tu relation.Tuple) (bool, error) {
	return db.Delete(ctx, tu)
}

// BulkLoadContext partitions and bulk-loads a sorted batch, honouring ctx.
func (db *DB) BulkLoadContext(ctx context.Context, tuples []relation.Tuple) error {
	return db.BulkLoad(ctx, tuples)
}

// SelectRangeContext is SelectRange returning the folded per-shard stats.
func (db *DB) SelectRangeContext(ctx context.Context, attr int, lo, hi uint64) ([]relation.Tuple, table.QueryStats, error) {
	rows, st, err := db.SelectRange(ctx, attr, lo, hi)
	return rows, st.QueryStats, err
}

// CountRangeContext is CountRange returning the folded per-shard stats.
func (db *DB) CountRangeContext(ctx context.Context, attr int, lo, hi uint64) (int, table.QueryStats, error) {
	n, st, err := db.CountRange(ctx, attr, lo, hi)
	return n, st.QueryStats, err
}

// AggregateRangeContext is AggregateRange returning the folded stats.
func (db *DB) AggregateRangeContext(ctx context.Context, attr int, lo, hi uint64, aggAttr int) (table.AggregateResult, table.QueryStats, error) {
	res, st, err := db.AggregateRange(ctx, attr, lo, hi, aggAttr)
	return res, st.QueryStats, err
}

// GroupByContext is GroupBy returning the folded per-shard stats.
func (db *DB) GroupByContext(ctx context.Context, filterAttr int, lo, hi uint64, groupAttr, aggAttr int) ([]table.GroupResult, table.QueryStats, error) {
	groups, st, err := db.GroupBy(ctx, filterAttr, lo, hi, groupAttr, aggAttr)
	return groups, st.QueryStats, err
}

// ScanContext streams every tuple in global φ order, honouring ctx.
func (db *DB) ScanContext(ctx context.Context, fn func(relation.Tuple) bool) error {
	return db.Scan(ctx, fn)
}

// PinnedFrames sums the pinned buffer-pool frames across the shards; the
// server's graceful-drain path asserts this reaches zero after shutdown.
func (db *DB) PinnedFrames() int {
	n := 0
	for _, sh := range db.shards {
		n += sh.PinnedFrames()
	}
	return n
}

// LiveSnapshots sums the held manifest snapshots across the shards.
func (db *DB) LiveSnapshots() int {
	n := 0
	for _, sh := range db.shards {
		n += sh.LiveSnapshots()
	}
	return n
}
