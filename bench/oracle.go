package main

import (
	"fmt"
	"math"

	"repro/internal/relation"
	"repro/internal/server"
)

// The oracle answers every request class from the sorted base relation
// and per-attribute-0-value summaries, so the driver can check each
// response without re-running the query: counts and sums are prefix-sum
// differences, min/max are segment-tree lookups, and a select is compared
// row by row against a slice of the sorted relation.

// aggIndex summarises aggAttr per attribute-0 value for one subset of the
// tuples (all of them, or one group).
type aggIndex struct {
	n      int
	cnt    []uint32 // cnt[v] = tuples with attr 0 < v
	sum    []uint64 // sum[v] = sum of aggAttr over those tuples
	mn, mx []uint32 // segment trees over values, leaves at [n, 2n)
}

func newAggIndex(n int) *aggIndex {
	ix := &aggIndex{n: n, cnt: make([]uint32, n+1), sum: make([]uint64, n+1),
		mn: make([]uint32, 2*n), mx: make([]uint32, 2*n)}
	for i := range ix.mn {
		ix.mn[i] = math.MaxUint32
	}
	return ix
}

// add folds one tuple (attribute-0 value v, aggregate value a) in; seal
// must follow the last add.
func (ix *aggIndex) add(v, a uint64) {
	ix.cnt[v+1]++
	ix.sum[v+1] += a
	leaf := ix.n + int(v)
	if uint32(a) < ix.mn[leaf] {
		ix.mn[leaf] = uint32(a)
	}
	if uint32(a) > ix.mx[leaf] {
		ix.mx[leaf] = uint32(a)
	}
}

func (ix *aggIndex) seal() {
	for v := 1; v <= ix.n; v++ {
		ix.cnt[v] += ix.cnt[v-1]
		ix.sum[v] += ix.sum[v-1]
	}
	for i := ix.n - 1; i >= 1; i-- {
		ix.mn[i] = min(ix.mn[2*i], ix.mn[2*i+1])
		ix.mx[i] = max(ix.mx[2*i], ix.mx[2*i+1])
	}
}

// query returns the aggregate over attribute-0 values lo..hi inclusive,
// with the engine's convention that Min is 0 when nothing matches.
func (ix *aggIndex) query(lo, hi uint64) server.AggregateJSON {
	res := server.AggregateJSON{
		Count: int(ix.cnt[hi+1] - ix.cnt[lo]),
		Sum:   ix.sum[hi+1] - ix.sum[lo],
	}
	if res.Count == 0 {
		return res
	}
	mn, mx := uint32(math.MaxUint32), uint32(0)
	for l, r := ix.n+int(lo), ix.n+int(hi)+1; l < r; l, r = l/2, r/2 {
		if l&1 == 1 {
			mn, mx = min(mn, ix.mn[l]), max(mx, ix.mx[l])
			l++
		}
		if r&1 == 1 {
			r--
			mn, mx = min(mn, ix.mn[r]), max(mx, ix.mx[r])
		}
	}
	res.Min, res.Max = uint64(mn), uint64(mx)
	return res
}

type oracle struct {
	spec   *relSpec
	schema *relation.Schema
	// slab holds the relation in phi order, stride values per tuple, as
	// one pointer-free array: a million tuple slices held for the whole
	// run would be re-marked by every GC cycle of the timed phase.
	slab   []uint64
	stride int
	first  []int32 // first[v] = index of the first tuple with attr 0 >= v
	all    *aggIndex
	groups []*aggIndex // by groupAttr value
	last   []uint32    // last[v] = tuples with last attribute < v
}

// buildOracle sorts a copy of the tuple headers (the generated slice
// keeps its order for the engines to load) and indexes them. It also
// returns the sorted headers, which the traced run bulk-loads its twin
// store from.
func buildOracle(rd *relData) (*oracle, []relation.Tuple) {
	rs := rd.spec
	sorted := append([]relation.Tuple(nil), rd.tuples...)
	rd.schema.SortTuples(sorted)
	dom0 := int(rs.usedRange(0))
	lastAttr := len(rs.sizes) - 1
	o := &oracle{
		spec: rs, schema: rd.schema,
		slab: make([]uint64, 0, len(sorted)*len(rs.sizes)), stride: len(rs.sizes),
		first:  make([]int32, dom0+1),
		all:    newAggIndex(dom0),
		groups: make([]*aggIndex, rs.usedRange(rs.groupAttr)),
		last:   make([]uint32, rs.sizes[lastAttr]+1),
	}
	for g := range o.groups {
		o.groups[g] = newAggIndex(dom0)
	}
	for _, tu := range sorted {
		o.slab = append(o.slab, tu...)
		o.first[tu[0]+1]++
		o.all.add(tu[0], tu[rs.aggAttr])
		o.groups[tu[rs.groupAttr]].add(tu[0], tu[rs.aggAttr])
		o.last[tu[lastAttr]+1]++
	}
	for v := 1; v <= dom0; v++ {
		o.first[v] += o.first[v-1]
	}
	for v := 1; v < len(o.last); v++ {
		o.last[v] += o.last[v-1]
	}
	o.all.seal()
	for _, g := range o.groups {
		g.seal()
	}
	return o, sorted
}

// row is the i-th tuple in phi order.
func (o *oracle) row(i int) relation.Tuple {
	return relation.Tuple(o.slab[i*o.stride : (i+1)*o.stride])
}

// isInserted reports whether a response row was written by the harness
// rather than generated (see relSpec.groupAttr).
func (o *oracle) isInserted(row []uint64) bool {
	return len(row) > o.spec.groupAttr && row[o.spec.groupAttr] >= markerBase
}

// checkQuery verifies one query response. mutating says writers run
// beside the reads: base rows must then still appear exactly and in order,
// interleaved with any number of well-formed harness-inserted rows.
func (o *oracle) checkQuery(q *server.QueryRequest, resp *server.QueryResponse, mutating bool) error {
	if resp.Op != q.Op {
		return fmt.Errorf("op %q answered as %q", q.Op, resp.Op)
	}
	if q.Attr != 0 {
		// The full class: a count over the last attribute.
		if want := int(o.last[q.Hi+1] - o.last[q.Lo]); q.Op != server.OpCount || resp.Count != want {
			return fmt.Errorf("full %s [%d,%d]: count %d, want %d", q.Op, q.Lo, q.Hi, resp.Count, want)
		}
		return nil
	}
	want := o.all.query(q.Lo, q.Hi)
	switch q.Op {
	case server.OpSelect:
		return o.checkSelect(q, resp, mutating)
	case server.OpCount:
		if resp.Count != want.Count {
			return fmt.Errorf("count [%d,%d]: %d, want %d", q.Lo, q.Hi, resp.Count, want.Count)
		}
	case server.OpAggregate:
		if resp.Agg == nil || *resp.Agg != want || resp.Count != want.Count {
			return fmt.Errorf("aggregate [%d,%d]: %+v, want %+v", q.Lo, q.Hi, resp.Agg, want)
		}
	case server.OpGroupBy:
		var groups []server.GroupJSON
		for g, ix := range o.groups {
			if a := ix.query(q.Lo, q.Hi); a.Count > 0 {
				groups = append(groups, server.GroupJSON{Value: uint64(g), Agg: a})
			}
		}
		if len(resp.Groups) != len(groups) || resp.Count != want.Count {
			return fmt.Errorf("groupby [%d,%d]: %d groups over %d rows, want %d over %d",
				q.Lo, q.Hi, len(resp.Groups), resp.Count, len(groups), want.Count)
		}
		for i, g := range groups {
			if resp.Groups[i] != g {
				return fmt.Errorf("groupby [%d,%d]: group %d is %+v, want %+v", q.Lo, q.Hi, i, resp.Groups[i], g)
			}
		}
	default:
		return fmt.Errorf("no oracle for op %q", q.Op)
	}
	return nil
}

func (o *oracle) checkSelect(q *server.QueryRequest, resp *server.QueryResponse, mutating bool) error {
	from, to := int(o.first[q.Lo]), int(o.first[q.Hi+1])
	if resp.Truncated || resp.Count != len(resp.Rows) {
		return fmt.Errorf("select [%d,%d]: count %d with %d rows (truncated %v)", q.Lo, q.Hi, resp.Count, len(resp.Rows), resp.Truncated)
	}
	i := 0
	for _, row := range resp.Rows {
		if len(row) != o.schema.NumAttrs() || row[0] < q.Lo || row[0] > q.Hi {
			return fmt.Errorf("select [%d,%d]: malformed row %v", q.Lo, q.Hi, row)
		}
		if mutating && o.isInserted(row) {
			continue
		}
		if from+i >= to || o.schema.Compare(relation.Tuple(row), o.row(from+i)) != 0 {
			return fmt.Errorf("select [%d,%d]: row %d is %v, not the oracle's", q.Lo, q.Hi, i, row)
		}
		i++
	}
	if i != to-from {
		return fmt.Errorf("select [%d,%d]: %d base rows, want %d", q.Lo, q.Hi, i, to-from)
	}
	return nil
}
