package table

import (
	"context"

	"repro/internal/exec"
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
// held in memory. Each side streams per-block slabs (φ values on a flat
// schema, tuples on a split one), keys are compared as attribute-0
// values read off the slab, the lagging side skips ahead over fence-pruned
// blocks, and only rows that actually join become tuples. Emitted tuples
// are safe to retain. emit returning false stops the join early. Each
// side's Stats are reported on every return, an error's included.
func MergeJoinEachContext(ctx context.Context, left, right *Table, emit func(JoinRow) bool) (JoinStats, error) {
	sp := left.opts.Obs.StartOp("merge_join")
	defer sp.End()
	var stats JoinStats
	li := left.BatchIterator(ctx)
	defer li.Release()
	ri := right.BatchIterator(ctx)
	defer ri.Release()
	var err error
	stats.Matches, err = JoinStreams(li, ri, left.schema, right.schema, emit)
	stats.Left, stats.Right = li.Stats, ri.Stats
	return stats, err
}

// BatchIterator returns a pull iterator over the table: a φ-ordered stream
// of per-block slabs reading a pinned snapshot (see exec.BatchIterator for
// slab lifetime and seek semantics). The caller must Release it. The
// shard layer chains per-shard streams through it for cross-shard merge
// joins.
func (t *Table) BatchIterator(ctx context.Context) *exec.BatchIterator {
	return exec.NewBatchIterator(ctx, t.snapshot())
}

// JoinStreams merges two φ-ordered slab streams, of schemas lsch and rsch,
// on their clustering attribute and emits the cross product of each
// matching key's groups. Each group row is one fresh tuple, shared across
// its pairs, so emitted rows are safe to retain. It returns the number of
// rows emitted. The shard layer joins chained per-shard streams through
// it.
func JoinStreams(ls, rs exec.Stream, lsch, rsch *relation.Schema, emit func(JoinRow) bool) (int, error) {
	matches := 0
	err := exec.MergeJoin(ls, rs, lsch, rsch, func(_ uint64, lg, rg []relation.Tuple) bool {
		for _, l := range lg {
			for _, r := range rg {
				matches++
				if !emit(JoinRow{Left: l, Right: r}) {
					return false
				}
			}
		}
		return true
	})
	return matches, err
}
