package table

import (
	"context"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/relation"
)

// explainPlan extracts the strategy and the block count from Explain's
// plan line, "<strategy> path: blocks N of M".
var explainPlan = regexp.MustCompile(`(\S+) path: blocks (\d+) of (\d+)`)

func explainBlocks(t *testing.T, tb *Table, preds []Predicate) (string, int) {
	t.Helper()
	out, err := tb.Explain(preds)
	if err != nil {
		t.Fatal(err)
	}
	m := explainPlan.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("Explain(%v) has no plan line:\n%s", preds, out)
	}
	n, _ := strconv.Atoi(m[2])
	if total, _ := strconv.Atoi(m[3]); total != tb.NumBlocks() {
		t.Fatalf("Explain(%v) counts %d blocks in the table, want %d:\n%s", preds, total, tb.NumBlocks(), out)
	}
	return m[1], n
}

// selectOracle filters tuples through every conjunct: the full-scan answer
// a plan's rows must equal, in φ order.
func selectOracle(s *relation.Schema, tuples []relation.Tuple, preds []Predicate) []relation.Tuple {
	var out []relation.Tuple
	for _, tu := range tuples {
		if !slices.ContainsFunc(preds, func(p Predicate) bool { return tu[p.Attr] < p.Lo || tu[p.Attr] > p.Hi }) {
			out = append(out, tu)
		}
	}
	s.SortTuples(out)
	return out
}

func equalRows(a, b []relation.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y relation.Tuple) bool { return slices.Equal(x, y) })
}

func TestExplain(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, []int{1, 4})
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 1000, 67)); err != nil {
		t.Fatal(err)
	}
	out, err := tb.Explain([]Predicate{
		{Attr: 1, Lo: 2, Hi: 9},
		{Attr: 2, Lo: 10, Hi: 50},
		{Attr: 4, Lo: 100, Hi: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"driver:", "secondary", "residual filter:", "blocks "} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain output missing %q:\n%s", want, out)
		}
	}
	// Empty plan and errors.
	out, err = tb.Explain(nil)
	if err != nil || !strings.Contains(out, "full-scan") {
		t.Fatalf("Explain(nil) = %q, %v", out, err)
	}
	if _, err := tb.Explain([]Predicate{{Attr: 99}}); err == nil {
		t.Fatal("bad predicate accepted")
	}
	// Clustered driver renders as clustered.
	out, err = tb.Explain([]Predicate{{Attr: 0, Lo: 1, Hi: 2}})
	if err != nil || !strings.Contains(out, "clustered") {
		t.Fatalf("clustered Explain = %q, %v", out, err)
	}
}

// TestExplainMatchesExecution pins Explain to the plan SelectContext runs:
// on every access path, and on a conjunction with an empty conjunct, the
// strategy and block count Explain prints are the Strategy and BlocksRead
// execution reports.
func TestExplainMatchesExecution(t *testing.T) {
	for _, codec := range []core.Codec{core.CodecAVQ, core.CodecRaw} {
		tb := newTable(t, codec, []int{1, 4})
		tuples := randomTuples(t, 3000, 68)
		if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name  string
			preds []Predicate
			want  exec.Strategy
		}{
			{"clustered", []Predicate{{Attr: 0, Lo: 2, Hi: 3}}, exec.StrategyClustered},
			{"secondary", []Predicate{{Attr: 4, Lo: 700, Hi: 720}}, exec.StrategySecondary},
			{"secondary+attr0", []Predicate{{Attr: 0, Lo: 1, Hi: 6}, {Attr: 4, Lo: 700, Hi: 720}}, exec.StrategySecondary},
			{"attr0+secondary", []Predicate{{Attr: 1, Lo: 0, Hi: 15}, {Attr: 0, Lo: 5, Hi: 5}, {Attr: 2, Lo: 3, Hi: 40}}, exec.StrategyClustered},
			{"full-scan", []Predicate{{Attr: 2, Lo: 10, Hi: 12}, {Attr: 3, Lo: 0, Hi: 30}}, exec.StrategyFullScan},
			{"scan", nil, exec.StrategyFullScan},
			{"empty-conjunct", []Predicate{{Attr: 0, Lo: 1, Hi: 6}, {Attr: 2, Lo: 9, Hi: 3}}, exec.StrategyClustered},
			{"empty-beyond-domain", []Predicate{{Attr: 4, Lo: 700, Hi: 720}, {Attr: 3, Lo: 64, Hi: 99}}, exec.StrategyClustered},
		} {
			strategy, blocks := explainBlocks(t, tb, c.preds)
			rows, stats, err := tb.SelectContext(context.Background(), c.preds)
			if err != nil {
				t.Fatal(err)
			}
			if strategy != stats.Strategy.String() || blocks != stats.BlocksRead {
				t.Errorf("%v %s: Explain says %s, %d blocks; execution %v, %d blocks",
					codec, c.name, strategy, blocks, stats.Strategy, stats.BlocksRead)
			}
			if stats.Strategy != c.want {
				t.Errorf("%v %s: strategy %v, want %v", codec, c.name, stats.Strategy, c.want)
			}
			if want := selectOracle(tb.Schema(), tuples, c.preds); !equalRows(rows, want) {
				t.Errorf("%v %s: %d rows, oracle %d", codec, c.name, len(rows), len(want))
			}
		}
	}
}

// TestPlannerDrivesFewestBlocks: the planner drives a conjunction through
// the access path naming the fewest blocks, counted exactly, even when a
// per-row estimate would prefer another. Attribute b follows the
// clustering attribute, so its wide predicate names a short run of blocks;
// c is uniform, so its narrow predicate is scattered over nearly every
// block. Every order of the conjuncts returns the oracle's rows.
func TestPlannerDrivesFewestBlocks(t *testing.T) {
	s := relation.MustSchema(
		relation.Domain{Name: "a", Size: 64},
		relation.Domain{Name: "b", Size: 1000}, // a*15 + noise: clustered
		relation.Domain{Name: "c", Size: 1000}, // uniform: scattered
	)
	tb := createTable(t, s, WithCodec(core.CodecAVQ), WithPageSize(512), WithSecondaryAttrs(1, 2))
	rng := rand.New(rand.NewSource(63))
	tuples := make([]relation.Tuple, 6000)
	for i := range tuples {
		a := uint64(rng.Intn(64))
		tuples[i] = relation.Tuple{a, a*15 + uint64(rng.Intn(15)), uint64(rng.Intn(1000))}
	}
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	wide := Predicate{Attr: 1, Lo: 0, Hi: 191}  // ~20% of rows, ~20% of blocks
	narrow := Predicate{Attr: 2, Lo: 0, Hi: 49} // ~5% of rows, most blocks
	clus := Predicate{Attr: 0, Lo: 0, Hi: 40}   // ~64% of blocks
	blocksOf := func(p Predicate) int {
		_, st, err := tb.SelectContext(ctx, []Predicate{p})
		if err != nil {
			t.Fatal(err)
		}
		return st.BlocksRead
	}
	nw, nn, nc := blocksOf(wide), blocksOf(narrow), blocksOf(clus)
	if nw >= nn || nw >= nc {
		t.Fatalf("fixture: wide names %d blocks, narrow %d, clustered %d; wide should name fewest", nw, nn, nc)
	}
	preds := []Predicate{wide, narrow, clus}
	want := selectOracle(s, tuples, preds)
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		ps := []Predicate{preds[order[0]], preds[order[1]], preds[order[2]]}
		rows, st, err := tb.SelectContext(ctx, ps)
		if err != nil {
			t.Fatal(err)
		}
		if !equalRows(rows, want) {
			t.Fatalf("order %v: %d rows, oracle %d", order, len(rows), len(want))
		}
		// wide's rows all have a <= 12, inside clus's fence range, so the
		// pass reads exactly wide's candidates.
		if st.Strategy != exec.StrategySecondary || st.BlocksRead != nw {
			t.Fatalf("order %v: %v path read %d blocks; driving by b reads %d", order, st.Strategy, st.BlocksRead, nw)
		}
		out, err := tb.Explain(ps)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "driver: "+wide.String()+"\n") {
			t.Fatalf("order %v: Explain names another driver:\n%s", order, out)
		}
	}
	// A tie goes to attribute 0: both predicates name every block.
	all := []Predicate{{Attr: 1, Lo: 0, Hi: 999}, {Attr: 0, Lo: 0, Hi: 63}}
	if _, st, err := tb.SelectContext(ctx, all); err != nil || st.Strategy != exec.StrategyClustered {
		t.Fatalf("tie: %v path, err %v; want clustered", st.Strategy, err)
	}
}

// TestEmptyConjunctReadsNothing: a conjunction is empty when any conjunct
// admits no value, not only the one that would drive it, and an empty
// plan reads no block.
func TestEmptyConjunctReadsNothing(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, []int{4})
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 2000, 69)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, preds := range [][]Predicate{
		{{Attr: 0, Lo: 0, Hi: 3}, {Attr: 2, Lo: 10, Hi: 5}},
		{{Attr: 0, Lo: 0, Hi: 3}, {Attr: 3, Lo: 64, Hi: 70}},
		{{Attr: 4, Lo: 0, Hi: 4095}, {Attr: 1, Lo: 16, Hi: 16}},
	} {
		rows, st, err := tb.SelectContext(ctx, preds)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 || st.BlocksRead != 0 {
			t.Errorf("%v: %d rows from %d blocks, want none", preds, len(rows), st.BlocksRead)
		}
	}
}

// TestConjunctOrderReadsSameBlocks: conjuncts on one attribute intersect
// into one range before the planner picks a driver, so every order of a
// conjunction reads the blocks its intersection names and returns the
// oracle's rows, and an empty intersection reads nothing.
func TestConjunctOrderReadsSameBlocks(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, []int{4})
	tuples := randomTuples(t, 3000, 70)
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		preds  []Predicate
		merged []Predicate // the intersection as one conjunct per attribute
	}{
		{[]Predicate{{Attr: 0, Lo: 0, Hi: 7}, {Attr: 0, Lo: 2, Hi: 2}}, []Predicate{{Attr: 0, Lo: 2, Hi: 2}}},
		{[]Predicate{{Attr: 0, Lo: 1, Hi: 5}, {Attr: 0, Lo: 3, Hi: 9}, {Attr: 2, Lo: 0, Hi: 30}},
			[]Predicate{{Attr: 0, Lo: 3, Hi: 5}, {Attr: 2, Lo: 0, Hi: 30}}},
		{[]Predicate{{Attr: 4, Lo: 0, Hi: 4095}, {Attr: 4, Lo: 700, Hi: 720}}, []Predicate{{Attr: 4, Lo: 700, Hi: 720}}},
		{[]Predicate{{Attr: 0, Lo: 0, Hi: 2}, {Attr: 0, Lo: 5, Hi: 7}}, nil},
	} {
		want := selectOracle(tb.Schema(), tuples, c.preds)
		wantBlocks := 0
		if c.merged != nil {
			_, st, err := tb.SelectContext(ctx, c.merged)
			if err != nil {
				t.Fatal(err)
			}
			wantBlocks = st.BlocksRead
		}
		for _, ps := range permutations(c.preds) {
			rows, st, err := tb.SelectContext(ctx, ps)
			if err != nil {
				t.Fatal(err)
			}
			if st.BlocksRead != wantBlocks || !equalRows(rows, want) {
				t.Errorf("%v: %d rows from %d blocks; want %d rows from %d blocks", ps, len(rows), st.BlocksRead, len(want), wantBlocks)
			}
			if _, n := explainBlocks(t, tb, ps); n != wantBlocks {
				t.Errorf("%v: Explain counts %d blocks, want %d", ps, n, wantBlocks)
			}
		}
	}
}

// permutations returns every ordering of preds.
func permutations(preds []Predicate) [][]Predicate {
	if len(preds) <= 1 {
		return [][]Predicate{slices.Clone(preds)}
	}
	var out [][]Predicate
	for i := range preds {
		rest := slices.Delete(slices.Clone(preds), i, i+1)
		for _, p := range permutations(rest) {
			out = append(out, append([]Predicate{preds[i]}, p...))
		}
	}
	return out
}
