package table

import (
	"context"

	"repro/internal/exec"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// JoinRow is one result of an equi-join: the matching tuple from each side.
type JoinRow struct {
	Left  relation.Tuple
	Right relation.Tuple
}

// JoinStats reports the cost of a join: each side's executor Stats (its
// blocks read, pruned by fence-level seeks, and decoded as batch slabs)
// and the join rows emitted.
type JoinStats struct {
	Left, Right exec.Stats
	Matches     int
}

// MergeJoinContext computes the equi-join on both relations' clustering
// attribute (attribute 0). Because both relations are phi-ordered and phi
// order is lexicographic, each side streams its blocks exactly once in
// join-key order: the join costs one pass over each compressed relation
// with no build table. Both streams observe cancellation at block
// boundaries. It materializes the whole result; large joins should stream
// through MergeJoinEachContext.
func MergeJoinContext(ctx context.Context, left, right *Table) ([]JoinRow, JoinStats, error) {
	var out []JoinRow
	stats, err := MergeJoinEachContext(ctx, left, right, func(row JoinRow) bool {
		out = append(out, row)
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// MergeJoinEachContext is the streaming form of MergeJoinContext: join
// rows reach emit one key group at a time and only the current groups are
// held in memory. When both schemas are flat the join runs in φ-space:
// each side streams per-block ordinal slabs, keys are compared as raw
// φ/w0 digits, the lagging side skips ahead over fence-pruned blocks, and
// tuples are materialized (φ⁻¹) only for rows that actually join. Emitted
// tuples are safe to retain. emit returning false stops the join early.
func MergeJoinEachContext(ctx context.Context, left, right *Table, emit func(JoinRow) bool) (JoinStats, error) {
	sp := left.opts.Obs.StartOp("merge_join")
	defer sp.End()
	if left.batchable() && right.batchable() {
		return mergeJoinBatch(ctx, left, right, emit)
	}
	return mergeJoinTuples(ctx, left, right, emit)
}

// BatchIterator returns a columnar pull iterator over the table: a
// φ-ordered stream of per-block ordinal slabs reading a pinned snapshot
// (see exec.BatchIterator for slab lifetime and seek semantics). It fails
// with exec.ErrNotFlat on a non-flat schema. The caller must Release it.
// The shard layer chains per-shard streams through it for cross-shard
// merge joins.
func (t *Table) BatchIterator(ctx context.Context) (*exec.BatchIterator, error) {
	return exec.NewBatchIterator(ctx, t.snapshot())
}

// mergeJoinBatch is the φ-space merge join between two tables.
func mergeJoinBatch(ctx context.Context, left, right *Table, emit func(JoinRow) bool) (JoinStats, error) {
	var stats JoinStats
	li, err := exec.NewBatchIterator(ctx, left.snapshot())
	if err != nil {
		return stats, err
	}
	defer li.Release()
	ri, err := exec.NewBatchIterator(ctx, right.snapshot())
	if err != nil {
		return stats, err
	}
	defer ri.Release()
	stats.Matches, err = JoinPhiStreams(li, ri, left.schema, right.schema, emit)
	stats.Left, stats.Right = li.Stats, ri.Stats
	return stats, err
}

// JoinPhiStreams merges two φ-ordered slab streams on their clustering
// attribute and materializes join rows only for matching groups: one
// fresh tuple per distinct group row via φ⁻¹ (shared across its cross-
// product pairs, so emitted rows are safe to retain), never one per pair.
// Both schemas must be flat. It returns the number of rows emitted. The
// shard layer joins chained per-shard streams through it.
func JoinPhiStreams(ls, rs exec.PhiStream, lsch, rsch *relation.Schema, emit func(JoinRow) bool) (int, error) {
	lw, ok := lsch.FlatWeights()
	if !ok {
		return 0, exec.ErrNotFlat
	}
	rw, ok := rsch.FlatWeights()
	if !ok {
		return 0, exec.ErrNotFlat
	}
	matches := 0
	var matErr error
	var ltup, rtup []relation.Tuple
	err := exec.MergeJoinPhis(ls, rs, lw[0], rw[0], func(_ uint64, lg, rg []uint64) bool {
		if ltup, matErr = materializeGroup(lsch, lg, ltup[:0]); matErr != nil {
			return false
		}
		if rtup, matErr = materializeGroup(rsch, rg, rtup[:0]); matErr != nil {
			return false
		}
		for _, l := range ltup {
			for _, r := range rtup {
				matches++
				if !emit(JoinRow{Left: l, Right: r}) {
					return false
				}
			}
		}
		return true
	})
	if err == nil {
		err = matErr
	}
	return matches, err
}

// materializeGroup inverts a group's ordinals into fresh tuples, appending
// to dst (whose header is reused across groups; the tuples are not).
func materializeGroup(s *relation.Schema, phis []uint64, dst []relation.Tuple) ([]relation.Tuple, error) {
	for _, phi := range phis {
		tu, err := ordinal.PhiInverseU64(s, make(relation.Tuple, s.NumAttrs()), phi)
		if err != nil {
			return dst, err
		}
		dst = append(dst, tu)
	}
	return dst, nil
}

// mergeJoinTuples is the tuple-at-a-time merge join — the differential
// oracle the batch path is pinned against, and the fallback for non-flat
// schemas. Each side's Stats are reported on every return, an error's
// included.
func mergeJoinTuples(ctx context.Context, left, right *Table, emit func(JoinRow) bool) (stats JoinStats, err error) {
	lc := newClusterCursor(ctx, left)
	defer lc.close()
	rc := newClusterCursor(ctx, right)
	defer rc.close()
	defer func() { stats.Left, stats.Right = lc.it.Stats, rc.it.Stats }()
	lg, err := lc.nextGroup()
	if err != nil {
		return stats, err
	}
	rg, err := rc.nextGroup()
	if err != nil {
		return stats, err
	}
	for lg != nil && rg != nil {
		switch {
		case lg.key < rg.key:
			if lg, err = lc.nextGroup(); err != nil {
				return stats, err
			}
		case lg.key > rg.key:
			if rg, err = rc.nextGroup(); err != nil {
				return stats, err
			}
		default:
			for _, l := range lg.rows {
				for _, r := range rg.rows {
					stats.Matches++
					if !emit(JoinRow{Left: l, Right: r}) {
						return stats, nil
					}
				}
			}
			if lg, err = lc.nextGroup(); err != nil {
				return stats, err
			}
			if rg, err = rc.nextGroup(); err != nil {
				return stats, err
			}
		}
	}
	return stats, nil
}

// clusterCursor streams a table's tuples grouped by their clustering
// attribute value, one executor iterator underneath.
type clusterCursor struct {
	it      *exec.Iterator
	pending relation.Tuple // pushed back by nextGroup
}

type keyGroup struct {
	key  uint64
	rows []relation.Tuple
}

func newClusterCursor(ctx context.Context, t *Table) *clusterCursor {
	return &clusterCursor{it: exec.NewIteratorContext(ctx, t.snapshot())}
}

func (c *clusterCursor) close() { c.it.Release() }

// next returns the next tuple in phi order, or nil at the end.
func (c *clusterCursor) next() (relation.Tuple, error) {
	if c.pending != nil {
		tu := c.pending
		c.pending = nil
		return tu, nil
	}
	tu, ok, err := c.it.Next()
	if err != nil || !ok {
		return nil, err
	}
	return tu, nil
}

// nextGroup returns the run of tuples sharing the next clustering value,
// or nil at the end.
func (c *clusterCursor) nextGroup() (*keyGroup, error) {
	tu, err := c.next()
	if err != nil || tu == nil {
		return nil, err
	}
	g := &keyGroup{key: tu[0], rows: []relation.Tuple{tu}}
	for {
		nxt, err := c.next()
		if err != nil {
			return nil, err
		}
		if nxt == nil {
			return g, nil
		}
		if nxt[0] != g.key {
			c.pending = nxt
			return g, nil
		}
		g.rows = append(g.rows, nxt)
	}
}
