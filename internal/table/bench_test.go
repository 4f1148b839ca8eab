package table

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/relation"
)

// joinBenchSchema is the batch benchmarks' schema: a wide clustering
// domain, so sparse keys leave multi-block gaps, over a flat space.
func joinBenchSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Domain{Name: "key", Size: 4096},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "units", Size: 256},
	)
}

// joinBenchRows is the sparse-key workload: 120k random left rows and 12k
// right rows whose keys are multiples of 64, so the merge join's lagging
// side has long stretches it can skip by fence.
func joinBenchRows() (left, right []relation.Tuple) {
	s := joinBenchSchema()
	rng := rand.New(rand.NewSource(17))
	row := func(stride uint64) relation.Tuple {
		tu := make(relation.Tuple, s.NumAttrs())
		for j := range tu {
			tu[j] = uint64(rng.Int63n(int64(s.Domain(j).Size)))
		}
		tu[0] -= tu[0] % stride
		return tu
	}
	left = make([]relation.Tuple, 120_000)
	for i := range left {
		left[i] = row(1)
	}
	right = make([]relation.Tuple, 12_000)
	for i := range right {
		right[i] = row(64)
	}
	return left, right
}

// joinBenchTable loads rows into a 1 KiB-page table (small blocks keep
// each block's key span narrow, which fence skipping needs), over the
// flat schema or, split, the same rows over the schema plus one wide
// constant attribute, whose reads take tuple slabs.
func joinBenchTable(b *testing.B, rows []relation.Tuple, split bool, opts ...Option) *Table {
	b.Helper()
	s := joinBenchSchema()
	if split {
		s = relation.MustSchema(append(s.Domains(), relation.Domain{Name: "wide", Size: 1 << 62})...)
		wide := make([]relation.Tuple, len(rows))
		for i, tu := range rows {
			wide[i] = append(tu.Clone(), 1<<61)
		}
		rows = wide
	}
	tb := createTable(b, s, append([]Option{WithPageSize(1024)}, opts...)...)
	if err := tb.BulkLoadContext(context.Background(), rows); err != nil {
		b.Fatal(err)
	}
	return tb
}

// readPaths names the two slab kinds a read can take: φ slabs on the flat
// schema, tuple slabs on the split one.
var readPaths = []struct {
	name  string
	split bool
}{{"flat", false}, {"split", true}}

// BenchmarkMergeJoin joins the sparse-key workload over φ slabs and over
// tuple slabs (fence skipping either way, tuples only for matches).
func BenchmarkMergeJoin(b *testing.B) {
	left, right := joinBenchRows()
	ctx := context.Background()
	for _, p := range readPaths {
		lt, rt := joinBenchTable(b, left, p.split), joinBenchTable(b, right, p.split)
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := MergeJoinEachContext(ctx, lt, rt, func(JoinRow) bool { return true }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupBy groups the workload's left side by its clustering
// attribute (contiguous key runs) over φ slabs and over tuple slabs. Each
// table's pool holds every page (a 1 KiB page holds more than 16 rows) and
// is warmed by one scan, so the slab kinds are compared from memory.
func BenchmarkGroupBy(b *testing.B) {
	left, _ := joinBenchRows()
	ctx := context.Background()
	dom := joinBenchSchema().Domain(0).Size
	frames := len(left) / 16
	for _, p := range readPaths {
		tb := joinBenchTable(b, left, p.split, WithPoolFrames(frames))
		if tb.NumBlocks() >= frames {
			b.Fatalf("%d blocks do not fit a %d-frame pool", tb.NumBlocks(), frames)
		}
		if _, _, err := tb.CountRangeContext(ctx, 1, 0, 15); err != nil {
			b.Fatal(err)
		}
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, _, err := tb.GroupByContext(ctx, 0, 0, dom-1, 0, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead bulk-loads a 100k-row relation and runs 50 count
// ranges over it, without a registry and with one, and reports the two
// phases apart: every instrument is resolved at construction, so the hot
// path pays a nil check or an atomic add per block, not per tuple.
func BenchmarkObsOverhead(b *testing.B) {
	s, rows, err := gen.Fig57Spec(100_000, true, gen.VarianceLarge, 1).Build()
	if err != nil {
		b.Fatal(err)
	}
	s.SortTuples(rows)
	ctx := context.Background()
	dom := s.Domain(0).Size
	for _, mode := range []struct {
		name string
		reg  func() *obs.Registry
	}{{"off", func() *obs.Registry { return nil }}, {"on", obs.NewRegistry}} {
		b.Run(mode.name, func(b *testing.B) {
			var load, count time.Duration
			for range b.N {
				tb, err := Create(s, WithPoolFrames(256), WithObs(mode.reg()))
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if err := tb.BulkLoadContext(ctx, rows); err != nil {
					b.Fatal(err)
				}
				load += time.Since(start)
				start = time.Now()
				for range 50 {
					if _, _, err := tb.CountRangeContext(ctx, 0, dom/4, dom/2); err != nil {
						b.Fatal(err)
					}
				}
				count += time.Since(start)
				if err := tb.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(load.Nanoseconds())/float64(b.N), "load-ns/op")
			b.ReportMetric(float64(count.Nanoseconds())/float64(b.N), "count-ns/op")
		})
	}
}
