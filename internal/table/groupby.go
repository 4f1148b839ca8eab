package table

import (
	"context"
	"errors"
	"sort"

	"repro/internal/core"
	"repro/internal/relation"
)

// GroupResult is one group of GroupBy: the grouping value and the
// aggregates of aggAttr within it.
type GroupResult struct {
	Value uint64
	Agg   AggregateResult
}

// GroupByContext computes per-group COUNT/SUM/MIN/MAX of aggAttr, grouped
// by the values of groupAttr, over the rows matching lo <= A_filterAttr <=
// hi. Groups are returned in ascending group-value order.
func (t *Table) GroupByContext(ctx context.Context, filterAttr int, lo, hi uint64, groupAttr, aggAttr int) ([]GroupResult, QueryStats, error) {
	if groupAttr < 0 || groupAttr >= t.schema.NumAttrs() {
		return nil, QueryStats{}, errors.New("table: group attribute out of range")
	}
	if aggAttr < 0 || aggAttr >= t.schema.NumAttrs() {
		return nil, QueryStats{}, errors.New("table: aggregate attribute out of range")
	}
	r, err := t.readPlan([]Predicate{{Attr: filterAttr, Lo: lo, Hi: hi}})
	if err != nil {
		return nil, QueryStats{}, err
	}
	r.op = "groupby"
	s := t.schema
	agg := attrDigit(s, aggAttr)
	if groupAttr == 0 {
		return groupByAttr0(ctx, r, s, agg, aggAttr)
	}
	grp := attrDigit(s, groupAttr)
	g := newGroupFold(s.Domain(groupAttr).Size)
	stats, err := r.fold(ctx, func(sl core.Slab) bool {
		for _, tu := range sl.Tuples {
			g.add(tu[groupAttr], tu[aggAttr])
		}
		for _, phi := range sl.Phis {
			g.add(grp.Digit(phi), agg.Digit(phi))
		}
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return g.results(), stats, nil
}

// groupByAttr0 is GroupBy on the clustering prefix, which exploits φ
// order: keys arrive as contiguous nondecreasing runs, so the result list
// is appended directly with no per-row lookup and no final sort. On a φ
// slab one divide finds each run's key and a φ-threshold compare walks
// the run, with no per-row key extraction.
func groupByAttr0(ctx context.Context, r queryRun, s *relation.Schema, agg core.DigitExtractor, aggAttr int) ([]GroupResult, QueryStats, error) {
	var w0 uint64
	if w, ok := s.FlatWeights(); ok {
		w0 = w[0]
	}
	var out []GroupResult
	group := func(k uint64) *AggregateResult {
		if len(out) == 0 || out[len(out)-1].Value != k {
			out = append(out, GroupResult{Value: k, Agg: newAggregate()})
		}
		return &out[len(out)-1].Agg
	}
	stats, err := r.fold(ctx, func(sl core.Slab) bool {
		for _, tu := range sl.Tuples {
			group(tu[0]).add(tu[aggAttr])
		}
		phis := sl.Phis
		for i := 0; i < len(phis); {
			k := phis[i] / w0 // attribute 0 needs no mod: φ/w0 < u0
			limit := (k + 1) * w0
			g := group(k)
			for ; i < len(phis) && phis[i] < limit; i++ {
				g.add(agg.Digit(phis[i]))
			}
		}
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// denseGroups is the largest group-attribute radix GroupBy folds into a
// dense array indexed by digit (128 KiB of accumulators); above it groups
// go to a map. The radix is the schema's declared domain size, so the
// choice is made at plan time.
const denseGroups = 4096

// groupFold accumulates GroupBy's per-group aggregates, keyed by group
// value: dense when the group attribute's radix is at most denseGroups,
// else a map.
type groupFold struct {
	dense  []AggregateResult // indexed by group value; nil above denseGroups
	sparse map[uint64]*AggregateResult
}

func newGroupFold(radix uint64) *groupFold {
	if radix > denseGroups {
		return &groupFold{sparse: make(map[uint64]*AggregateResult)}
	}
	g := &groupFold{dense: make([]AggregateResult, radix)}
	for i := range g.dense {
		g.dense[i] = newAggregate()
	}
	return g
}

// add folds value v into group k.
func (g *groupFold) add(k, v uint64) {
	if g.dense != nil {
		g.dense[k].add(v)
		return
	}
	a := g.sparse[k]
	if a == nil {
		a = new(AggregateResult)
		*a = newAggregate()
		g.sparse[k] = a
	}
	a.add(v)
}

// results returns the non-empty groups in ascending group-value order.
func (g *groupFold) results() []GroupResult {
	out := make([]GroupResult, 0, len(g.sparse))
	for k, a := range g.dense {
		if a.Count > 0 {
			out = append(out, GroupResult{Value: uint64(k), Agg: a})
		}
	}
	for k, a := range g.sparse {
		out = append(out, GroupResult{Value: k, Agg: *a})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}
