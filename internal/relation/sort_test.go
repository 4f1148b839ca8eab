package relation_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/relation"
)

// sortShapes are the schemas the sort oracle covers: flat and not, rows
// shorter than, equal to and longer than the 16-byte radix key, an
// attribute straddling the key's end, and domains of size 1, 2^k and
// 2^k+1.
func sortShapes() map[string]*relation.Schema {
	sizes := map[string][]uint64{
		"one":       {1},
		"pow2":      {2, 256, 65536},
		"pow2plus1": {3, 257, 65537},
		"employee":  {8, 16, 64, 64, 64},
		"flat8":     {100000, 257, 257, 257, 257, 64, 16, 8},
		"row16":     {1 << 32, 1 << 32, 1 << 32, 1 << 32},
		"straddle":  {1 << 56, 1 << 56, 1 << 24, 1, 1 << 40, 5},
		"wide38": {
			100000, 40000, 70000, 30000, 80000, 20000, 90000, 10000,
			5000, 2000, 1000, 500, 400, 300, 70000, 75000,
		},
	}
	out := make(map[string]*relation.Schema, len(sizes))
	for name, ss := range sizes {
		doms := make([]relation.Domain, len(ss))
		for i, size := range ss {
			doms[i] = relation.Domain{Name: fmt.Sprintf("a%d", i), Size: size}
		}
		out[name] = relation.MustSchema(doms...)
	}
	return out
}

// sortInput draws n tuples of s in the given arrangement. Every tuple is
// its own slice, so a pointer comparison tells equal tuples apart.
func sortInput(s *relation.Schema, n int, order string, rng *rand.Rand) []relation.Tuple {
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tu := make(relation.Tuple, s.NumAttrs())
		for a := range tu {
			size := s.Domain(a).Size
			switch order {
			case "equal":
				size = 1
			case "dups":
				size = min(size, 2)
			}
			tu[a] = rng.Uint64() % size
			if order == "dups" && a > 0 && rng.Intn(2) == 0 {
				tu[a] = s.Domain(a).Size - 1 // the top byte of the domain, too
			}
		}
		tuples[i] = tu
	}
	switch order {
	case "sorted":
		slices.SortStableFunc(tuples, s.Compare)
	case "reversed":
		slices.SortStableFunc(tuples, s.Compare)
		slices.Reverse(tuples)
	}
	return tuples
}

func TestSortTuplesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for name, s := range sortShapes() {
		for _, n := range []int{0, 1, 2, 15, 16, 17, 63, 64, 65, 4097, 200000} {
			for _, order := range []string{"random", "sorted", "reversed", "equal", "dups"} {
				if n == 200000 && (order != "random" && order != "dups" || name == "pow2" || name == "one" || name == "row16") {
					continue // the size that splits across workers runs on random and duplicated inputs
				}
				in := sortInput(s, n, order, rng)
				want := slices.Clone(in)
				slices.SortStableFunc(want, s.Compare)
				got := slices.Clone(in)
				s.SortTuples(got)
				for i := range want {
					if &got[i][0] != &want[i][0] {
						t.Fatalf("%s n=%d %s: position %d holds %v, reference %v (same value: %t)",
							name, n, order, i, got[i], want[i], s.Compare(got[i], want[i]) == 0)
					}
				}
			}
		}
	}
}

func TestSortTuplesSmallNoAlloc(t *testing.T) {
	s := sortShapes()["wide38"]
	base := sortInput(s, 16, "random", rand.New(rand.NewSource(1)))
	work := make([]relation.Tuple, len(base))
	if got := testing.AllocsPerRun(100, func() {
		copy(work, base)
		s.SortTuples(work)
	}); got != 0 {
		t.Fatalf("16-tuple SortTuples allocates %v times per call, want 0", got)
	}
}

// BenchmarkSortTuples sorts 1M generated tuples of the ledger's two
// relation shapes (gen.BenchShapeSpec), reporting ns per tuple.
func BenchmarkSortTuples(b *testing.B) {
	for _, shape := range []string{"flat8", "wide38"} {
		b.Run(shape, func(b *testing.B) {
			spec, err := gen.BenchShapeSpec(shape, 1_000_000, 1)
			if err != nil {
				b.Fatal(err)
			}
			s, base, err := spec.Build()
			if err != nil {
				b.Fatal(err)
			}
			work := make([]relation.Tuple, len(base))
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				copy(work, base)
				b.StartTimer()
				s.SortTuples(work)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(base)), "ns/tuple")
		})
	}
}
