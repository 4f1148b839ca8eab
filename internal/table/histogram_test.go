package table

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// checkHistogram compares HistogramContext of every attribute tuples
// carry (every attribute of tb when there are none), at the given bucket
// count, with the counts of tuples: equi-width buckets, no more of them
// than the domain has values, the last one absorbing the remainder. The
// pass reads every block.
func checkHistogram(t *testing.T, tb *Table, tuples []relation.Tuple, buckets int) {
	t.Helper()
	s := tb.Schema()
	attrs := s.NumAttrs()
	if len(tuples) > 0 {
		attrs = len(tuples[0])
	}
	for attr := range attrs {
		domain := s.Domain(attr).Size
		n := min(uint64(buckets), domain)
		width := (domain + n - 1) / n
		want := make([]int, n)
		for _, tu := range tuples {
			want[min(tu[attr]/width, n-1)]++
		}
		got, st, err := tb.HistogramContext(context.Background(), attr, buckets)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("attr %d, %d buckets: histogram %v, want %v", attr, buckets, got, want)
		}
		if st.BlocksRead != tb.NumBlocks() {
			t.Fatalf("attr %d: histogram read %d of %d blocks", attr, st.BlocksRead, tb.NumBlocks())
		}
	}
}

func TestHistogramUniform(t *testing.T) {
	tuples := randomTuples(t, 3000, 61)
	flat, split := newBatchPair(t, core.CodecAVQ, tuples)
	for _, buckets := range []int{1, 10, 64} {
		checkHistogram(t, flat, tuples, buckets)
		checkHistogram(t, split, tuples, buckets)
	}
}

// TestHistogramSkewed: with every value of b in the bottom decile of its
// domain, the bottom decile's buckets hold every row and the rest none.
func TestHistogramSkewed(t *testing.T) {
	s := relation.MustSchema(
		relation.Domain{Name: "a", Size: 8},
		relation.Domain{Name: "b", Size: 1000},
	)
	rng := rand.New(rand.NewSource(62))
	tuples := make([]relation.Tuple, 4000)
	for i := range tuples {
		tuples[i] = relation.Tuple{uint64(rng.Intn(8)), uint64(rng.Intn(100))}
	}
	// The same rows over a split schema: one more, constant attribute wide
	// enough that the space exceeds 64 bits.
	split := relation.MustSchema(append(s.Domains(), relation.Domain{Name: "wide", Size: 1 << 62})...)
	for _, sch := range []*relation.Schema{s, split} {
		rows := tuples
		if sch == split {
			rows = make([]relation.Tuple, len(tuples))
			for i, tu := range tuples {
				rows[i] = append(tu.Clone(), 1<<61)
			}
		}
		tb := createTable(t, sch, WithPageSize(512))
		if err := tb.BulkLoadContext(context.Background(), rows); err != nil {
			t.Fatal(err)
		}
		checkHistogram(t, tb, tuples, 10)
		got, _, err := tb.HistogramContext(context.Background(), 1, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != len(tuples) {
			t.Fatalf("%v: hot decile holds %d of %d rows", sch, got[0], len(tuples))
		}
	}
}

func TestHistogramEdges(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	// An empty table: every bucket, clamped to the domain, counts zero.
	got, _, err := tb.HistogramContext(context.Background(), 0, 64)
	if err != nil || !slices.Equal(got, make([]int, 8)) {
		t.Fatalf("empty table: histogram %v, err %v", got, err)
	}
	tuples := randomTuples(t, 1000, 63)
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	// 7 buckets divide no domain evenly: the last bucket takes the rest.
	checkHistogram(t, tb, tuples, 7)
	if _, _, err := tb.HistogramContext(context.Background(), 99, 4); err == nil {
		t.Fatal("bad attribute accepted")
	}
	if _, _, err := tb.HistogramContext(context.Background(), 0, 0); err == nil {
		t.Fatal("zero buckets accepted")
	}
}

// TestHistogramRemove: rows a predicate delete removes leave their buckets.
func TestHistogramRemove(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, []int{4})
	tuples := randomTuples(t, 2000, 64)
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	removed, err := tb.DeleteWhereContext(context.Background(), []Predicate{{Attr: 4, Lo: 0, Hi: 2047}})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tb.HistogramContext(context.Background(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != len(tuples)-removed {
		t.Fatalf("after deleting %d rows below 2048: histogram %v", removed, got)
	}
}

func TestHistogramMaintainedByMutations(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	tuples := randomTuples(t, 200, 65)
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	extra := randomTuples(t, 50, 66)
	for _, tu := range extra {
		if err := tb.InsertContext(context.Background(), tu); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range extra[:25] {
		if _, err := tb.DeleteContext(context.Background(), tu); err != nil {
			t.Fatal(err)
		}
	}
	checkHistogram(t, tb, append(tuples, extra[25:]...), 16)
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
