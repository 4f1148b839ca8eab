package table

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/blockstore"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/storage"
)

// QueryStats reports what a read cost: the executor's Stats, with the
// planner's Strategy. BlocksRead is the paper's N (Section 5.3.3).
type QueryStats = exec.Stats

// queryRun is a planned read pass. Planning — predicate validation,
// access-path choice, index consultation — happens against the live table
// under its shared lock; runCtx executes against the pinned snapshot and
// needs no lock, so readers stream while writers mutate.
type queryRun struct {
	strategy exec.Strategy
	plan     exec.Plan
	snap     *blockstore.Snapshot
	empty    bool
	// driver is the position in plan.Preds of the conjunct that chose the
	// access path, -1 when none did (a full scan).
	driver int

	// op names the span recorded around the pass ("" records none); reg is
	// the table's registry, captured at plan time so runCtx needs no table.
	op  string
	reg *obs.Registry
}

// run executes the planned pass through the executor, releases the
// snapshot, and reports the executor's Stats under the planned strategy.
// The executor observes cancellation at block boundaries, before the next
// decode. The span's slow-op detail is formatted only for a slow op.
func (r queryRun) run(ctx context.Context, pass func(context.Context, *blockstore.Snapshot, exec.Plan) (exec.Stats, error)) (QueryStats, error) {
	if r.empty {
		return QueryStats{}, nil
	}
	var sp *obs.Span
	if r.op != "" {
		sp = r.reg.StartOp(r.op)
	}
	defer r.snap.Release()
	st, err := pass(ctx, r.snap, r.plan)
	st.Strategy = r.strategy
	sp.EndWith(func() string {
		return fmt.Sprintf("%s: %d blocks read (%d as batch slabs), %d pruned, %d matches",
			st.Strategy, st.BlocksRead, st.BatchBlocks, st.BlocksPruned, st.Matches)
	})
	return st, err
}

// runCtx runs the planned pass as a select, streaming matches to emit as
// tuples it may retain.
func (r queryRun) runCtx(ctx context.Context, emit func(relation.Tuple) bool) (QueryStats, error) {
	return r.run(ctx, func(ctx context.Context, sn *blockstore.Snapshot, plan exec.Plan) (exec.Stats, error) {
		return exec.RunContext(ctx, sn, plan, emit)
	})
}

// snapshot pins the current block layout under the shared lock, so the
// view never falls between a writer's publications (Compact tears the
// layout down before it reloads). It takes and releases mu itself: joins
// pin each side in turn, and a self-join never holds two read locks.
func (t *Table) snapshot() *blockstore.Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.Snapshot()
}

// collect runs the planned pass and materializes its matches.
func (r queryRun) collect(ctx context.Context) ([]relation.Tuple, QueryStats, error) {
	var out []relation.Tuple
	stats, err := r.runCtx(ctx, func(tu relation.Tuple) bool {
		out = append(out, tu)
		return true
	})
	return out, stats, err
}

// fold runs the planned pass through the slab executor: kernel receives
// each block's already-filtered slab, valid only for the duration of the
// call. Every read operator that does not return tuples is one kernel
// here, for flat and split schemas alike.
func (r queryRun) fold(ctx context.Context, kernel func(core.Slab) bool) (QueryStats, error) {
	return r.run(ctx, func(ctx context.Context, sn *blockstore.Snapshot, plan exec.Plan) (exec.Stats, error) {
		return exec.RunBatch(ctx, sn, plan, kernel)
	})
}

// SelectRangeContext executes the paper's evaluation query sigma_{lo <=
// A_attr <= hi}(R) (Section 5.3) and returns the matching tuples in phi
// order together with access statistics.
func (t *Table) SelectRangeContext(ctx context.Context, attr int, lo, hi uint64) ([]relation.Tuple, QueryStats, error) {
	r, err := t.readPlan([]Predicate{{Attr: attr, Lo: lo, Hi: hi}})
	if err != nil {
		return nil, QueryStats{}, err
	}
	return r.collect(ctx)
}

// SelectRangeFuncContext streams the matching tuples of
// sigma_{lo<=A_attr<=hi}(R) to emit in phi order without materializing
// them; emit returning false stops the query early. Planned under the
// shared lock, executed lock-free against the pinned snapshot, with
// cancellation observed at block boundaries. The scatter-gather executor
// feeds per-shard merge channels through it.
func (t *Table) SelectRangeFuncContext(ctx context.Context, attr int, lo, hi uint64, emit func(relation.Tuple) bool) (QueryStats, error) {
	r, err := t.readPlan([]Predicate{{Attr: attr, Lo: lo, Hi: hi}})
	if err != nil {
		return QueryStats{}, err
	}
	return r.runCtx(ctx, emit)
}

// candidateBlocks collects the distinct data blocks a secondary index maps
// the value range onto, by enumerating the key range.
func (t *Table) candidateBlocks(idx *btree.Tree[*bucket], attr int, lo, hi uint64) map[storage.PageID]struct{} {
	pageSet := make(map[storage.PageID]struct{})
	from := t.schema.EncodeAttr(nil, attr, lo)
	var to []byte
	if hi+1 < t.schema.Domain(attr).Size {
		to = t.schema.EncodeAttr(nil, attr, hi+1)
	}
	idx.Scan(from, to, func(_ []byte, b *bucket) bool {
		for page := range b.pages {
			pageSet[page] = struct{}{}
		}
		return true
	})
	return pageSet
}

// SelectPointContext executes sigma_{A_attr = v}(R).
func (t *Table) SelectPointContext(ctx context.Context, attr int, v uint64) ([]relation.Tuple, QueryStats, error) {
	return t.SelectRangeContext(ctx, attr, v, v)
}

// CountRangeContext returns only the number of qualifying tuples, with the
// same access path and cost as SelectRangeContext but no materialization.
func (t *Table) CountRangeContext(ctx context.Context, attr int, lo, hi uint64) (int, QueryStats, error) {
	r, err := t.readPlan([]Predicate{{Attr: attr, Lo: lo, Hi: hi}})
	if err != nil {
		return 0, QueryStats{}, err
	}
	// The pass counts qualifying rows as it filters each slab, so the
	// kernel has nothing left to do.
	stats, err := r.fold(ctx, func(core.Slab) bool { return true })
	return stats.Matches, stats, err
}

// BlocksForValue returns the sorted data blocks a secondary index maps the
// value to, without reading them; nil when no index exists on attr. Tools
// use it to show bucket contents (Figure 4.5).
func (t *Table) BlocksForValue(attr int, v uint64) []storage.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.secondary[attr]
	if !ok {
		return nil
	}
	b, ok := idx.Get(t.schema.EncodeAttr(nil, attr, v))
	if !ok {
		return nil
	}
	out := make([]storage.PageID, 0, len(b.pages))
	for page := range b.pages {
		out = append(out, page)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HistogramContext computes an exact equi-width value histogram of one
// attribute by streaming the table through the executor. It returns one
// count per bucket; the last bucket absorbs the domain remainder when the
// domain does not divide evenly.
func (t *Table) HistogramContext(ctx context.Context, attr, buckets int) ([]int, QueryStats, error) {
	if attr < 0 || attr >= t.schema.NumAttrs() {
		return nil, QueryStats{}, fmt.Errorf("table: attribute %d out of range", attr)
	}
	if buckets <= 0 {
		return nil, QueryStats{}, fmt.Errorf("table: histogram needs a positive bucket count")
	}
	domain := t.schema.Domain(attr).Size
	if uint64(buckets) > domain {
		buckets = int(domain)
	}
	width := (domain + uint64(buckets) - 1) / uint64(buckets)
	counts := make([]int, buckets)
	r, err := t.readPlan(nil)
	if err != nil {
		return nil, QueryStats{}, err
	}
	r.op = "histogram"
	dig := attrDigit(t.schema, attr)
	bucket := func(v uint64) int { return int(min(v/width, uint64(buckets-1))) }
	stats, err := r.fold(ctx, func(sl core.Slab) bool {
		for _, tu := range sl.Tuples {
			counts[bucket(tu[attr])]++
		}
		for _, phi := range sl.Phis {
			counts[bucket(dig.Digit(phi))]++
		}
		return true
	})
	return counts, stats, err
}

// attrDigit returns the extractor of attribute attr's digit from a flat
// schema's ordinals, the zero extractor on a split schema (whose slabs
// hold tuples, never ordinals).
func attrDigit(s *relation.Schema, attr int) core.DigitExtractor {
	w, ok := s.FlatWeights()
	if !ok {
		return core.DigitExtractor{}
	}
	return core.NewDigitExtractor(w[attr], s.Domain(attr).Size)
}
