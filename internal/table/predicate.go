package table

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/relation"
)

// Predicate is one conjunct of a selection: lo <= A_attr <= hi. It is the
// executor's predicate, so the planner clamps conjuncts into a plan as
// they are.
type Predicate = exec.Pred

// SelectContext executes a conjunction of range predicates. The access
// path naming the fewest blocks drives retrieval (see planSelect); the
// whole conjunction is pushed into the executor, which filters while it
// streams. With no usable predicate the table is scanned. Cancellation is
// observed at block boundaries, before the next decode.
func (t *Table) SelectContext(ctx context.Context, preds []Predicate) ([]relation.Tuple, QueryStats, error) {
	r, err := t.readPlan(preds)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return r.collect(ctx)
}

// readPlan plans a read pass under the shared lock (see planSelect).
func (t *Table) readPlan(preds []Predicate) (queryRun, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.planSelect(preds)
}

// planSelect is the table's one planner: a conjunctive selection, a
// single range (a one-element conjunction) and a scan (an empty one) all
// plan here. It validates the conjuncts, clamps them to their domains and
// intersects those on one attribute into one range, so the plan holds one
// conjunct per attribute whatever the order they came in; it then pins a
// snapshot and lets pickDriver choose the access path. Every conjunct
// stays in the plan, so a predicate on the clustering attribute prunes
// blocks by φ-fence even when a secondary index drives. A conjunction
// with any range that admits no value (lo > hi, lo past the domain, or
// disjoint ranges on one attribute) is empty, reads no block and keeps
// the zero Strategy. The caller holds mu.
func (t *Table) planSelect(preds []Predicate) (queryRun, error) {
	r := queryRun{op: "select", reg: t.opts.Obs, driver: -1}
	if len(preds) == 0 {
		r.strategy = exec.StrategyFullScan
		r.snap = t.store.Snapshot()
		return r, nil
	}
	for _, p := range preds {
		if p.Attr < 0 || p.Attr >= t.schema.NumAttrs() {
			return queryRun{}, fmt.Errorf("table: attribute %d out of range", p.Attr)
		}
		p.Hi = min(p.Hi, t.schema.Domain(p.Attr).Size-1)
		i := slices.IndexFunc(r.plan.Preds, func(q Predicate) bool { return q.Attr == p.Attr })
		if i < 0 {
			r.plan.Preds = append(r.plan.Preds, p)
			continue
		}
		q := &r.plan.Preds[i]
		q.Lo, q.Hi = max(q.Lo, p.Lo), min(q.Hi, p.Hi)
	}
	if t.size == 0 || slices.ContainsFunc(r.plan.Preds, func(p Predicate) bool { return p.Lo > p.Hi }) {
		return queryRun{empty: true}, nil
	}
	r.snap = t.store.Snapshot()
	t.pickDriver(&r)
	return r, nil
}

// pickDriver chooses the conjunct that drives r's pass and sets the
// strategy. The access paths are the conjunct on attribute 0 (the
// executor's clustering bound), whose blocks are its fence range on r's
// snapshot, and each conjunct on another indexed attribute, whose blocks
// are its candidate set; the driver is the one naming the fewest blocks,
// the paper's N (Section 5.3.3) counted rather than estimated. Ties go to
// attribute 0, then to conjunct order, and blocks are counted only when
// two or more conjuncts have an access path. The winning candidate set
// becomes the plan's, so no second index scan runs. With no access path
// the pass is a full scan.
func (t *Table) pickDriver(r *queryRun) {
	preds := r.plan.Preds
	best, bestN := attr0(preds), -1 // bestN < 0: not counted
	for i, p := range preds {
		if p.Attr == 0 {
			continue
		}
		idx := t.secondary[p.Attr]
		if idx == nil {
			continue
		}
		if best >= 0 && bestN < 0 {
			start, end := fenceRange(r.snap, preds[best])
			bestN = end - start
		}
		cand := t.candidateBlocks(idx, p.Attr, p.Lo, p.Hi)
		if best < 0 || len(cand) < bestN {
			best, bestN, r.plan.Candidates = i, len(cand), cand
		}
	}
	r.driver = best
	switch {
	case best < 0:
		r.strategy = exec.StrategyFullScan
	case preds[best].Attr == 0:
		r.strategy = exec.StrategyClustered
	default:
		r.strategy = exec.StrategySecondary
	}
}

// attr0 returns the position of the conjunct on attribute 0, the one the
// executor bounds the pass by, or -1.
func attr0(preds []Predicate) int {
	return slices.IndexFunc(preds, func(p Predicate) bool { return p.Attr == 0 })
}

// fenceRange returns the positions [start, end) of the blocks a pass
// bounded by p, a clamped conjunct on attribute 0, reads: from the first
// block whose fence reaches p.Lo to the last that starts at or below p.Hi,
// found on the snapshot's fence array without reading a page.
func fenceRange(sn *blockstore.Snapshot, p Predicate) (start, end int) {
	start, end = sn.SeekAttr0(p.Lo), sn.SeekAttr0(p.Hi+1)
	if end < sn.NumBlocks() && sn.Fence(end).First[0] <= p.Hi {
		end++
	}
	return start, end
}

// blocks counts the blocks r's pass reads, N: its candidates (every block
// when it has none) inside the clustering conjunct's fence range.
func (r queryRun) blocks() int {
	if r.empty {
		return 0
	}
	start, end := 0, r.snap.NumBlocks()
	if a := attr0(r.plan.Preds); a >= 0 {
		start, end = fenceRange(r.snap, r.plan.Preds[a])
	}
	if r.plan.Candidates == nil {
		return end - start
	}
	n := 0
	for i := start; i < end; i++ {
		if _, ok := r.plan.Candidates[r.snap.Block(i)]; ok {
			n++
		}
	}
	return n
}

// Explain plans the conjunction as SelectContext does and describes that
// plan without executing it: the driving conjunct, the residual filter,
// the strategy, and N, the blocks the pass would read, of the table's M.
func (t *Table) Explain(preds []Predicate) (string, error) {
	t.mu.RLock()
	r, err := t.planSelect(preds)
	total := t.store.NumBlocks()
	t.mu.RUnlock()
	if err != nil {
		return "", err
	}
	if r.snap != nil {
		defer r.snap.Release()
	}
	var b strings.Builder
	b.WriteString("select:")
	if len(preds) == 0 {
		b.WriteString(" every row")
	}
	for i, p := range preds {
		if i > 0 {
			b.WriteString(" AND")
		}
		fmt.Fprintf(&b, " %s", p)
	}
	b.WriteString("\n")
	switch {
	case r.empty:
		b.WriteString("empty: no row qualifies\n")
	case r.driver >= 0:
		fmt.Fprintf(&b, "driver: %s\n", r.plan.Preds[r.driver])
	}
	sep := "residual filter:"
	for i, q := range r.plan.Preds {
		if i != r.driver {
			fmt.Fprintf(&b, "%s %s", sep, q)
			sep = ""
		}
	}
	if sep == "" {
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%s path: blocks %d of %d\n", r.strategy, r.blocks(), total)
	return b.String(), nil
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
	r, err := t.readPlan([]Predicate{{Attr: attr, Lo: lo, Hi: hi}})
	if err != nil {
		return AggregateResult{}, QueryStats{}, err
	}
	r.op = "aggregate"
	dig := attrDigit(t.schema, aggAttr)
	res := newAggregate()
	stats, err := r.fold(ctx, func(sl core.Slab) bool {
		for _, tu := range sl.Tuples {
			res.add(tu[aggAttr])
		}
		for _, phi := range sl.Phis {
			res.add(dig.Digit(phi))
		}
		return true
	})
	if res.Count == 0 {
		res.Min = 0
	}
	return res, stats, err
}
