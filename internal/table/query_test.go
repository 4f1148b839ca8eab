package table

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/relation"
)

func TestSelectConjunction(t *testing.T) {
	s := testSchema(t)
	tuples := randomTuples(t, 2000, 25)
	tb := newTable(t, core.CodecAVQ, []int{1, 4})
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	preds := []Predicate{
		{Attr: 1, Lo: 2, Hi: 9},
		{Attr: 2, Lo: 10, Hi: 50},
		{Attr: 4, Lo: 100, Hi: 700},
	}
	got, stats, err := tb.SelectContext(context.Background(), preds)
	if err != nil {
		t.Fatal(err)
	}
	// Reference evaluation.
	var want []relation.Tuple
	for _, tu := range tuples {
		ok := true
		for _, p := range preds {
			if tu[p.Attr] < p.Lo || tu[p.Attr] > p.Hi {
				ok = false
				break
			}
		}
		if ok {
			want = append(want, tu)
		}
	}
	s.SortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("conjunction matched %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if s.Compare(got[i], want[i]) != 0 {
			t.Fatalf("row %d differs", i)
		}
	}
	if stats.Matches != len(want) {
		t.Fatalf("stats.Matches = %d, want %d", stats.Matches, len(want))
	}
	// No conjunct is on attribute 0 and attr 2 is unindexed, so one of the
	// secondary indexes drives.
	if stats.Strategy != exec.StrategySecondary {
		t.Fatalf("driver strategy = %v", stats.Strategy)
	}
}

func TestSelectEmptyPredicates(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 100, 26)); err != nil {
		t.Fatal(err)
	}
	rows, _, err := tb.SelectContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("empty conjunction returned %d rows", len(rows))
	}
	if _, _, err := tb.SelectContext(context.Background(), []Predicate{{Attr: 99}}); err == nil {
		t.Fatal("bad predicate accepted")
	}
}

func TestAggregateRange(t *testing.T) {
	tuples := randomTuples(t, 1000, 27)
	tb := newTable(t, core.CodecAVQ, []int{1})
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	res, _, err := tb.AggregateRangeContext(context.Background(), 1, 3, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantSum := 0, uint64(0)
	wantMin, wantMax := uint64(1<<62), uint64(0)
	for _, tu := range tuples {
		if tu[1] >= 3 && tu[1] <= 8 {
			wantCount++
			wantSum += tu[2]
			if tu[2] < wantMin {
				wantMin = tu[2]
			}
			if tu[2] > wantMax {
				wantMax = tu[2]
			}
		}
	}
	if res.Count != wantCount || res.Sum != wantSum || res.Min != wantMin || res.Max != wantMax {
		t.Fatalf("aggregate = %+v, want count=%d sum=%d min=%d max=%d",
			res, wantCount, wantSum, wantMin, wantMax)
	}
	// Empty result range.
	res, _, err = tb.AggregateRangeContext(context.Background(), 1, 15, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || res.Min != 0 {
		emptyOK := true
		for _, tu := range tuples {
			if tu[1] == 15 {
				emptyOK = false
			}
		}
		if emptyOK {
			t.Fatalf("empty aggregate = %+v", res)
		}
	}
	if _, _, err := tb.AggregateRangeContext(context.Background(), 1, 0, 1, 99); err == nil {
		t.Fatal("bad aggregate attribute accepted")
	}
}

func TestCountRangeStreams(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, []int{1})
	tuples := randomTuples(t, 500, 28)
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	n, stats, err := tb.CountRangeContext(context.Background(), 1, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, tu := range tuples {
		if tu[1] <= 7 {
			want++
		}
	}
	if n != want || stats.Matches != want {
		t.Fatalf("CountRange = %d (stats %d), want %d", n, stats.Matches, want)
	}
}

func TestProject(t *testing.T) {
	rows := []relation.Tuple{{1, 2, 3}, {4, 5, 6}}
	got, err := Project(rows, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 3 || got[0][1] != 1 || got[1][0] != 6 || got[1][1] != 4 {
		t.Fatalf("Project = %v", got)
	}
	if _, err := Project(rows, []int{5}); err == nil {
		t.Fatal("out-of-range projection accepted")
	}
}

func TestSelectRangeFuncEarlyStop(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 1000, 29)); err != nil {
		t.Fatal(err)
	}
	seen := 0
	_, err := tb.SelectRangeFuncContext(context.Background(), 0, 0, 7, func(tu relation.Tuple) bool {
		seen++
		return seen < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Fatalf("early stop visited %d rows", seen)
	}
}

// referenceJoin computes the equi-join naively.
func referenceJoin(l, r []relation.Tuple, lattr, rattr int) int {
	count := 0
	for _, a := range l {
		for _, b := range r {
			if a[lattr] == b[rattr] {
				count++
			}
		}
	}
	return count
}

func TestMergeJoin(t *testing.T) {
	lt := randomTuples(t, 500, 32)
	rt := randomTuples(t, 400, 33)
	left := newTable(t, core.CodecAVQ, nil)
	right := newTable(t, core.CodecAVQ, nil)
	if err := left.BulkLoadContext(context.Background(), lt); err != nil {
		t.Fatal(err)
	}
	if err := right.BulkLoadContext(context.Background(), rt); err != nil {
		t.Fatal(err)
	}
	rows, stats, err := MergeJoinContext(context.Background(), left, right)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceJoin(lt, rt, 0, 0)
	if len(rows) != want {
		t.Fatalf("MergeJoin = %d rows, want %d", len(rows), want)
	}
	for _, jr := range rows {
		if jr.Left[0] != jr.Right[0] {
			t.Fatal("join row violates predicate")
		}
	}
	// One pass over each side.
	if stats.Left.BlocksRead != left.NumBlocks() || stats.Right.BlocksRead != right.NumBlocks() {
		t.Fatalf("merge join read %d/%d blocks, want %d/%d",
			stats.Left.BlocksRead, stats.Right.BlocksRead, left.NumBlocks(), right.NumBlocks())
	}
}

func TestMergeJoinAgreesWithHashJoin(t *testing.T) {
	lt := randomTuples(t, 400, 34)
	rt := randomTuples(t, 350, 35)
	left := newTable(t, core.CodecAVQ, nil)
	right := newTable(t, core.CodecAVQ, nil)
	if err := left.BulkLoadContext(context.Background(), lt); err != nil {
		t.Fatal(err)
	}
	if err := right.BulkLoadContext(context.Background(), rt); err != nil {
		t.Fatal(err)
	}
	mj, _, err := MergeJoinContext(context.Background(), left, right)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle: build a hash table on the left side's join key, probe it
	// with the right side's rows, and count each matching pair.
	build := map[uint64][]relation.Tuple{}
	for _, tu := range lt {
		build[tu[0]] = append(build[tu[0]], tu)
	}
	want := map[string]int{}
	for _, r := range rt {
		for _, l := range build[r[0]] {
			want[fmt.Sprint(l, r)]++
		}
	}
	for _, jr := range mj {
		want[fmt.Sprint(jr.Left, jr.Right)]--
	}
	for pair, n := range want {
		if n != 0 {
			t.Fatalf("pair %s: hash join count minus merge join count = %d", pair, n)
		}
	}
}

func TestJoinEmptySides(t *testing.T) {
	left := newTable(t, core.CodecAVQ, nil)
	right := newTable(t, core.CodecAVQ, nil)
	if err := right.BulkLoadContext(context.Background(), randomTuples(t, 50, 36)); err != nil {
		t.Fatal(err)
	}
	rows, _, err := MergeJoinContext(context.Background(), left, right)
	if err != nil || len(rows) != 0 {
		t.Fatalf("merge join with empty left = %d rows, %v", len(rows), err)
	}
}

func TestGroupBy(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	tuples := randomTuples(t, 2000, 95)
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	groups, _, err := tb.GroupByContext(context.Background(), 0, 0, 7, 1, 2) // group by job over all depts
	if err != nil {
		t.Fatal(err)
	}
	// Reference aggregation.
	type agg struct {
		count       int
		sum, mn, mx uint64
	}
	ref := map[uint64]*agg{}
	for _, tu := range tuples {
		a := ref[tu[1]]
		if a == nil {
			a = &agg{mn: ^uint64(0)}
			ref[tu[1]] = a
		}
		a.count++
		a.sum += tu[2]
		if tu[2] < a.mn {
			a.mn = tu[2]
		}
		if tu[2] > a.mx {
			a.mx = tu[2]
		}
	}
	if len(groups) != len(ref) {
		t.Fatalf("%d groups, want %d", len(groups), len(ref))
	}
	var prev uint64
	for i, g := range groups {
		if i > 0 && g.Value <= prev {
			t.Fatal("groups not in ascending value order")
		}
		prev = g.Value
		want := ref[g.Value]
		if want == nil || g.Agg.Count != want.count || g.Agg.Sum != want.sum ||
			g.Agg.Min != want.mn || g.Agg.Max != want.mx {
			t.Fatalf("group %d mismatch: %+v vs %+v", g.Value, g.Agg, want)
		}
	}
	if _, _, err := tb.GroupByContext(context.Background(), 0, 0, 7, 99, 2); err == nil {
		t.Fatal("bad group attribute accepted")
	}
	if _, _, err := tb.GroupByContext(context.Background(), 0, 0, 7, 1, 99); err == nil {
		t.Fatal("bad aggregate attribute accepted")
	}
}
