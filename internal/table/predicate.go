package table

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/relation"
)

// Predicate is one conjunct of a selection: lo <= A_attr <= hi.
type Predicate struct {
	Attr   int
	Lo, Hi uint64
}

// String renders the predicate in the paper's sigma notation.
func (p Predicate) String() string {
	return fmt.Sprintf("%d<=A%d<=%d", p.Lo, p.Attr+1, p.Hi)
}

// matches reports whether tu satisfies the predicate.
func (p Predicate) matches(tu relation.Tuple) bool {
	return tu[p.Attr] >= p.Lo && tu[p.Attr] <= p.Hi
}

// selectivity estimates the fraction of a uniform domain the predicate
// admits; the planner drives the conjunction through the most selective
// indexed predicate.
func (p Predicate) selectivity(s *relation.Schema) float64 {
	size := s.Domain(p.Attr).Size
	if size == 0 {
		return 1
	}
	hi := p.Hi
	if hi >= size {
		hi = size - 1
	}
	if p.Lo > hi {
		return 0
	}
	return float64(hi-p.Lo+1) / float64(size)
}

// SelectContext executes a conjunction of range predicates. The most
// selective predicate with an access path (the clustering attribute or a
// secondary index) drives block retrieval; the whole conjunction is pushed
// into the executor, which filters while it streams. With no usable
// predicate the table is scanned. Cancellation is observed at block
// boundaries, before the next decode.
func (t *Table) SelectContext(ctx context.Context, preds []Predicate) ([]relation.Tuple, QueryStats, error) {
	t.mu.RLock()
	r, err := t.planSelect(preds)
	t.mu.RUnlock()
	if err != nil {
		return nil, QueryStats{}, err
	}
	return r.collect(ctx)
}

// planSelect plans a conjunctive selection: the most selective predicate
// with an access path chooses the strategy (and, for a secondary index,
// the candidate blocks); every conjunct goes into the executor plan, so a
// predicate on the clustering attribute prunes blocks by φ-fence even
// when a secondary predicate drives. The caller holds mu.
func (t *Table) planSelect(preds []Predicate) (queryRun, error) {
	if len(preds) == 0 {
		return t.planScan(), nil
	}
	for _, p := range preds {
		if p.Attr < 0 || p.Attr >= t.schema.NumAttrs() {
			return queryRun{}, fmt.Errorf("table: attribute %d out of range", p.Attr)
		}
	}
	driver := preds[t.pickDriver(preds)]
	if driver.Lo > driver.Hi || driver.Lo >= t.schema.Domain(driver.Attr).Size || t.size == 0 {
		return queryRun{empty: true}, nil
	}
	if driver.Hi >= t.schema.Domain(driver.Attr).Size {
		driver.Hi = t.schema.Domain(driver.Attr).Size - 1
	}
	r := queryRun{op: "select", reg: t.opts.Obs}
	for _, p := range preds {
		hi := p.Hi
		if hi >= t.schema.Domain(p.Attr).Size {
			hi = t.schema.Domain(p.Attr).Size - 1
		}
		r.plan.Preds = append(r.plan.Preds, exec.Pred{Attr: p.Attr, Lo: p.Lo, Hi: hi})
	}
	switch {
	case driver.Attr == 0:
		r.stats.Strategy = StrategyClustered
	default:
		r.stats.Strategy = StrategyFullScan
		if idx, ok := t.secondary[driver.Attr]; ok {
			r.stats.Strategy = StrategySecondary
			r.plan.Candidates = t.candidateBlocks(idx, driver.Attr, driver.Lo, driver.Hi)
		}
	}
	r.snap = t.store.Snapshot()
	return r, nil
}

// pickDriver chooses the predicate to drive retrieval: the most selective
// one that has an access path, else the most selective overall.
// Selectivity comes from the per-attribute histograms when the table holds
// data, falling back to the uniform-domain estimate otherwise.
func (t *Table) pickDriver(preds []Predicate) int {
	sel := func(p Predicate) float64 {
		if t.size > 0 {
			return t.hist[p.Attr].estimate(p.Lo, p.Hi)
		}
		return p.selectivity(t.schema)
	}
	best := -1
	bestSel := math.Inf(1)
	for i, p := range preds {
		_, indexed := t.secondary[p.Attr]
		if p.Attr != 0 && !indexed {
			continue
		}
		if s := sel(p); s < bestSel {
			best, bestSel = i, s
		}
	}
	if best >= 0 {
		return best
	}
	for i, p := range preds {
		if s := sel(p); s < bestSel {
			best, bestSel = i, s
		}
	}
	return best
}

// Project returns the chosen attributes of each row, in row order. It is a
// plain relational projection (without duplicate elimination).
func Project(rows []relation.Tuple, attrs []int) ([][]uint64, error) {
	out := make([][]uint64, len(rows))
	for i, tu := range rows {
		proj := make([]uint64, len(attrs))
		for j, a := range attrs {
			if a < 0 || a >= len(tu) {
				return nil, fmt.Errorf("table: projection attribute %d out of range", a)
			}
			proj[j] = tu[a]
		}
		out[i] = proj
	}
	return out, nil
}

// Aggregates over a range predicate. Each runs the same access path as
// SelectRange but streams without materializing rows.

// AggregateResult carries the aggregate values of AggregateRange.
type AggregateResult struct {
	Count int
	Sum   uint64
	Min   uint64
	Max   uint64
}

// add folds one value into the aggregate: the one Count/Sum/Min/Max step
// every aggregate and group-by kernel shares. A zero result starts with
// Min at math.MaxUint64 (see newAggregate).
func (r *AggregateResult) add(v uint64) {
	r.Count++
	r.Sum += v
	r.Min = min(r.Min, v)
	r.Max = max(r.Max, v)
}

// newAggregate is the empty aggregate add folds into.
func newAggregate() AggregateResult { return AggregateResult{Min: math.MaxUint64} }

// AggregateRangeContext computes COUNT, SUM, MIN, and MAX of attribute
// aggAttr over the rows matching lo <= A_attr <= hi. Min and Max are
// meaningful only when Count > 0.
func (t *Table) AggregateRangeContext(ctx context.Context, attr int, lo, hi uint64, aggAttr int) (AggregateResult, QueryStats, error) {
	if aggAttr < 0 || aggAttr >= t.schema.NumAttrs() {
		return AggregateResult{}, QueryStats{}, fmt.Errorf("table: aggregate attribute %d out of range", aggAttr)
	}
	t.mu.RLock()
	r, err := t.planRange(attr, lo, hi)
	t.mu.RUnlock()
	if err != nil {
		return AggregateResult{}, QueryStats{}, err
	}
	r.op = "aggregate"
	// The aggregate fold reads attribute values and retains nothing, so the
	// executor may recycle one arena across blocks.
	r.plan.Transient = true
	if r.batch && !r.empty {
		return aggregateBatchCtx(ctx, r, t.schema, aggAttr)
	}
	return aggregateRunCtx(ctx, r, aggAttr)
}

// aggregateBatchCtx is the aggregate fold on raw ordinals: the aggregated
// attribute is extracted from each φ by a DigitExtractor over the cached
// FlatWeights — no tuple is ever materialized.
func aggregateBatchCtx(ctx context.Context, r queryRun, s *relation.Schema, aggAttr int) (AggregateResult, QueryStats, error) {
	w, _ := s.FlatWeights()
	agg := core.NewDigitExtractor(w[aggAttr], s.Domain(aggAttr).Size)
	res := newAggregate()
	stats, err := r.runBatchCtx(ctx, func(phis []uint64) bool {
		for _, phi := range phis {
			res.add(agg.Digit(phi))
		}
		return true
	})
	if res.Count == 0 {
		res.Min = 0
	}
	return res, stats, err
}

// aggregateRunCtx executes a planned aggregate pass tuple by tuple without
// materializing rows.
func aggregateRunCtx(ctx context.Context, r queryRun, aggAttr int) (AggregateResult, QueryStats, error) {
	res := newAggregate()
	stats, err := r.runCtx(ctx, func(tu relation.Tuple) bool {
		res.add(tu[aggAttr])
		return true
	})
	if res.Count == 0 {
		res.Min = 0
	}
	return res, stats, err
}
