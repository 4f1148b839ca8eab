package shard

import (
	"context"

	"repro/internal/exec"
	"repro/internal/table"
)

// MergeJoinEach streams the equi-join db ⋈_{A1=A1} other on both
// databases' clustering attribute. φ-range shards are disjoint and
// catalog-ordered, so chaining each database's per-shard batch streams
// in shard order yields one globally φ-ordered stream per side; the two
// chains merge in φ-space exactly like the single-table batch join
// (raw φ/w0 key compares, fence-level seeks on the lagging side, φ⁻¹
// only for rows that join). A seek raised while one shard drains still
// prunes the next shard's prefix, so sparse keys skip whole blocks in
// every later shard. Emitted tuples are safe to retain; emit returning
// false stops the join. Both schemas must be flat (the batch-mode
// requirement): a non-flat schema fails with exec.ErrNotFlat.
func (db *DB) MergeJoinEach(ctx context.Context, other *DB, emit func(table.JoinRow) bool) (table.JoinStats, error) {
	var stats table.JoinStats
	db.queries.Inc()
	lits, err := db.batchIterators(ctx)
	if err != nil {
		return stats, err
	}
	defer releaseAll(lits)
	rits, err := other.batchIterators(ctx)
	if err != nil {
		return stats, err
	}
	defer releaseAll(rits)
	stats.Matches, err = table.JoinPhiStreams(chain(lits), chain(rits), db.schema, other.schema, emit)
	for _, it := range lits {
		stats.Left.Add(it.Stats)
	}
	for _, it := range rits {
		stats.Right.Add(it.Stats)
	}
	return stats, err
}

// MergeJoin materializes MergeJoinEach's result in global φ order —
// byte-identical to the single-table merge join over the same rows.
func (db *DB) MergeJoin(ctx context.Context, other *DB) ([]table.JoinRow, table.JoinStats, error) {
	var out []table.JoinRow
	stats, err := db.MergeJoinEach(ctx, other, func(row table.JoinRow) bool {
		out = append(out, row)
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// batchIterators opens one pinned batch iterator per shard, in catalog
// order. On any failure the already-opened iterators are released.
func (db *DB) batchIterators(ctx context.Context) ([]*exec.BatchIterator, error) {
	its := make([]*exec.BatchIterator, 0, len(db.shards))
	for _, sh := range db.shards {
		it, err := sh.BatchIterator(ctx)
		if err != nil {
			releaseAll(its)
			return nil, err
		}
		its = append(its, it)
	}
	return its, nil
}

// chain concatenates per-shard iterators into one φ-ordered stream.
func chain(its []*exec.BatchIterator) exec.PhiStream {
	streams := make([]exec.PhiStream, len(its))
	for i, it := range its {
		streams[i] = it
	}
	return exec.ChainPhiStreams(streams...)
}

// releaseAll releases every iterator (folding its stats into the shard
// table's exec instruments and unpinning its snapshot).
func releaseAll(its []*exec.BatchIterator) {
	for _, it := range its {
		it.Release()
	}
}
