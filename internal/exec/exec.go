// Package exec is the streaming executor: the single read path behind
// every table-level query (scans, range and point selections, aggregates,
// group-by, and joins). It walks a blockstore snapshot in
// clustered order, prunes blocks whose φ-fence cannot intersect the
// predicate, and partially decodes blocks that only straddle the range
// boundary — the paper's localized-access claim (Sections 3.4 and 5)
// realized as an engine instead of per-query block loops.
//
// The executor never touches the live store: it operates on a pinned
// blockstore.Snapshot, so a pass keeps streaming its pre-mutation view
// while writers rewrite blocks underneath it.
package exec

import (
	"context"
	"fmt"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Pred is one conjunct of a selection, lo <= A_attr <= hi. The planner
// validates the attribute and clamps hi to the domain before building a
// Plan; the executor applies predicates verbatim.
type Pred struct {
	Attr   int
	Lo, Hi uint64
}

// String renders the predicate in the paper's sigma notation.
func (p Pred) String() string {
	return fmt.Sprintf("%d<=A%d<=%d", p.Lo, p.Attr+1, p.Hi)
}

// matches reports whether tu satisfies the predicate.
func (p Pred) matches(tu relation.Tuple) bool {
	return tu[p.Attr] >= p.Lo && tu[p.Attr] <= p.Hi
}

// Plan describes one streaming pass over a snapshot.
type Plan struct {
	// Preds is the conjunction every emitted tuple must satisfy. A
	// predicate on attribute 0 (the clustering prefix) additionally bounds
	// the pass: φ-fences prune non-intersecting blocks, and blocks that
	// straddle the range boundary are decoded partially.
	Preds []Pred
	// Candidates, when non-nil, restricts the pass to the listed blocks —
	// the secondary-index prefilter. Nil means every block is a candidate.
	Candidates map[storage.PageID]struct{}
	// NoPartial forces full block decodes even on straddling blocks; the
	// differential tests use it to pit the two decode paths against each
	// other.
	NoPartial bool
}

// Strategy names the access path the planner chose for a read.
type Strategy uint8

const (
	// StrategyClustered scans the contiguous run of blocks whose φ-fences
	// intersect the predicate range: the plan for predicates on the
	// clustering prefix attribute.
	StrategyClustered Strategy = iota
	// StrategySecondary collects candidate blocks from a secondary index's
	// buckets, enumerating the key range on the B+ tree, and reads each
	// once (Figure 4.5).
	StrategySecondary
	// StrategyFullScan reads every block.
	StrategyFullScan
)

// String returns the strategy's name.
func (s Strategy) String() string {
	switch s {
	case StrategyClustered:
		return "clustered"
	case StrategySecondary:
		return "secondary"
	case StrategyFullScan:
		return "full-scan"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Stats reports what a read cost: one pass, an iterator's lifetime, or
// the sum of several (Add). It is the only per-read cost type; the table,
// shard and join layers report it as is.
type Stats struct {
	// Strategy is the access path the planner chose; the executor leaves
	// it zero and the table's planner sets it.
	Strategy Strategy
	// BlocksTotal is the number of blocks in the snapshot.
	BlocksTotal int
	// BlocksPruned counts candidate blocks skipped on their φ-fence alone,
	// without touching the pager.
	BlocksPruned int
	// BlocksRead counts blocks brought in from the pool and decoded (full
	// or partial): the paper's N (Section 5.3.3).
	BlocksRead int
	// PartialDecodes counts blocks where only the qualifying span was
	// decoded; FullDecodes counts whole-block decodes.
	PartialDecodes int
	FullDecodes    int
	// Matches counts tuples passed to emit.
	Matches int
	// ArenaReuses counts blocks decoded into the pass's pooled arena with
	// slab capacity carried over from an earlier block.
	ArenaReuses int
	// SlabBytes is the slab capacity of the pooled arena backing the pass
	// at its end.
	SlabBytes int
	// FlatPathHits counts straddling blocks whose span was located by the
	// flat-ordinal (single-uint64 φ) walk instead of chain-probe search.
	FlatPathHits int
	// BatchBlocks counts blocks a fold (RunBatch, BatchIterator) read as
	// whole φ slabs, straddling ones included; SlabRows is the total rows
	// those slabs carried before clipping and filtering.
	BatchBlocks int
	SlabRows    int
}

// Add sums o's counts into s, so several passes (a sharded read's
// shards, a join's blocks on one side) report as one. Strategy is a
// label, not a count: s keeps its own.
func (s *Stats) Add(o Stats) {
	s.BlocksTotal += o.BlocksTotal
	s.BlocksPruned += o.BlocksPruned
	s.BlocksRead += o.BlocksRead
	s.PartialDecodes += o.PartialDecodes
	s.FullDecodes += o.FullDecodes
	s.Matches += o.Matches
	s.ArenaReuses += o.ArenaReuses
	s.SlabBytes += o.SlabBytes
	s.FlatPathHits += o.FlatPathHits
	s.BatchBlocks += o.BatchBlocks
	s.SlabRows += o.SlabRows
}

// boundOf splits the plan's conjunction into the clustering bound (the
// first predicate on attribute 0, if any; the table's planner intersects
// them into one) and the rest. Only attribute 0
// is monotone in clustered order, so only it can prune blocks by fence.
func boundOf(preds []Pred) (bound *Pred, rest []Pred) {
	for i := range preds {
		if preds[i].Attr == 0 && bound == nil {
			bound = &preds[i]
			continue
		}
		rest = append(rest, preds[i])
	}
	return bound, rest
}

// RunContext streams the snapshot's tuples matching the plan to emit, in
// φ order: the select adapter over the one block loop (BatchIterator). A
// straddling block is decoded only over its attribute-0 span, and each
// slab's rows become tuples emit may retain — a φ slab's by the schema's
// Digits. emit returning false stops the pass early; Matches counts the
// tuples emit saw. Cancellation is checked at every block boundary, before
// the next decode, so an aborted pass returns promptly with no frames
// pinned. The returned Stats are valid on error too, reflecting the work
// done up to it, and are folded into the snapshot's ExecMetrics when the
// store carries a registry.
func RunContext(ctx context.Context, sn *blockstore.Snapshot, plan Plan, emit func(relation.Tuple) bool) (Stats, error) {
	it := newBatchIterator(ctx, sn, plan, true)
	emitted := 0
	var rows []relation.Tuple
	err := it.each(func(sl core.Slab) bool {
		rows = sl.AppendRows(rows[:0], it.digits, 0, sl.Len())
		for _, tu := range rows {
			emitted++
			if !emit(tu) {
				return false
			}
		}
		return true
	})
	it.Stats.Matches = emitted
	it.close()
	return it.Stats, err
}

// foldStats adds a pass's counters into the store's pre-resolved exec
// instruments: one atomic add per counter, no locks, nothing when the
// store has no registry.
func foldStats(sn *blockstore.Snapshot, st Stats) {
	m := sn.Metrics()
	if m == nil {
		return
	}
	m.BlocksRead.Add(int64(st.BlocksRead))
	m.BlocksPruned.Add(int64(st.BlocksPruned))
	m.PartialDecodes.Add(int64(st.PartialDecodes))
	m.FullDecodes.Add(int64(st.FullDecodes))
	m.Rows.Add(int64(st.Matches))
	if m.ArenaReuses != nil {
		m.ArenaReuses.Add(int64(st.ArenaReuses))
		m.SlabBytes.Add(int64(st.SlabBytes))
		m.FlatHits.Add(int64(st.FlatPathHits))
	}
	if m.BatchBlocks != nil {
		m.BatchBlocks.Add(int64(st.BatchBlocks))
		m.SlabRows.Add(int64(st.SlabRows))
	}
}

// countCandidates counts candidate blocks in positions [from, n): the
// blocks a fence seek or break skips without visiting.
func countCandidates(sn *blockstore.Snapshot, cand map[storage.PageID]struct{}, from, n int) int {
	if cand == nil {
		return n - from
	}
	c := 0
	for i := from; i < n; i++ {
		if _, ok := cand[sn.Block(i)]; ok {
			c++
		}
	}
	return c
}

// matchesPhi reports whether a flat ordinal satisfies every conjunct.
func matchesPhi(preds []Pred, dig core.Digits, phi uint64) bool {
	for _, p := range preds {
		if v := dig[p.Attr].Digit(phi); v < p.Lo || v > p.Hi {
			return false
		}
	}
	return true
}

// matchesAll reports whether tu satisfies every conjunct.
func matchesAll(preds []Pred, tu relation.Tuple) bool {
	for _, p := range preds {
		if !p.matches(tu) {
			return false
		}
	}
	return true
}
