// Package gen generates the synthetic relations of the paper's evaluation
// (Section 5). The published generator is parameterized by exactly three
// knobs, all implemented here:
//
//   - relation size (number of tuples);
//   - variance in attribute domain size: "small" when domain sizes differ
//     by no more than 10% of the average, "large" when by more than 100%;
//   - attribute value skew: skewed when 60% of the values are drawn from
//     40% of the domain, uniform otherwise.
//
// The compression experiments (Figure 5.7) fix the number of attribute
// domains at 15. The timing and query experiments (Sections 5.2-5.3) use a
// relation of 16 attributes of varying domain sizes whose fixed-width
// tuple is 38 bytes, with 10^5 tuples and 8192-byte blocks; Spec38Byte
// reproduces those characteristics, including a unique last attribute that
// plays the primary-key role of A15 in Figure 5.8.
//
// All generation is deterministic in the seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/relation"
)

// Variance selects the domain-size spread of Figure 5.7 (a).
type Variance int

const (
	// VarianceSmall keeps domain sizes within ±5% of the average, so
	// differences stay below the paper's 10% threshold.
	VarianceSmall Variance = iota
	// VarianceLarge draws domain sizes log-uniformly over [avg/3, avg*3],
	// making typical differences well above 100% of the average.
	VarianceLarge
)

// String returns the variance label used in the paper's Table (a).
func (v Variance) String() string {
	if v == VarianceSmall {
		return "small"
	}
	return "large"
}

// Spec describes a synthetic relation.
type Spec struct {
	// Attrs is the number of attribute domains. The paper fixes 15 for
	// the compression experiments.
	Attrs int
	// AvgDomainSize is the mean |A_i|.
	AvgDomainSize uint64
	// Variance selects the domain-size spread.
	Variance Variance
	// Skew, when true, draws 60% of each attribute's values from the
	// first 40% of its domain.
	Skew bool
	// Tuples is the relation size.
	Tuples int
	// UniqueLast makes the final attribute a unique sequence 0..Tuples-1
	// over a domain of exactly Tuples values: the primary-key attribute of
	// Figure 5.8.
	UniqueLast bool
	// Seed makes generation deterministic.
	Seed int64
	// DomainSizes, when non-nil, fixes the domain sizes explicitly and
	// overrides Attrs/AvgDomainSize/Variance.
	DomainSizes []uint64
	// UsedRanges, when non-nil, restricts the values actually drawn for
	// attribute i to [0, UsedRanges[i]) while the declared domain size
	// still sets the field width. A zero entry means the full domain. This
	// models the common case the paper's compressibility observation rests
	// on: fields wider than the range of values a real relation holds.
	UsedRanges []uint64
}

// Fig57Spec returns the Figure 5.7 relation family: 15 attributes, the
// given tuple count, and the test's skew/variance combination. The average
// domain size of 200 makes small-variance schemas byte-per-attribute while
// large-variance schemas mix one- and two-byte attributes — the mechanism
// behind the paper's observation that domain-size homogeneity improves
// compressibility.
func Fig57Spec(tuples int, skew bool, variance Variance, seed int64) Spec {
	return Spec{
		Attrs:         15,
		AvgDomainSize: 200,
		Variance:      variance,
		Skew:          skew,
		Tuples:        tuples,
		Seed:          seed,
	}
}

// Spec38Byte returns the Section 5.2 relation: 16 attributes of varying
// domain sizes whose fixed-width tuple is exactly 38 bytes, 10^5 tuples by
// default. Pass uniqueLast=true for the Figure 5.8 variant in which the
// last attribute is the primary key.
func Spec38Byte(tuples int, uniqueLast bool, seed int64) Spec {
	sizes := []uint64{
		100000, 40000, 70000, 30000, 80000, 20000, 90000, 10000,
		5000, 2000, 1000, 500, 400, 300, 70000,
	}
	// The used value ranges are far narrower than the declared fields, as
	// in real relations (an employee number field sized for millions holds
	// thousands). The product of the first eleven ranges (~65k) keeps the
	// shared prefix of phi-adjacent tuples at about 26 of the 38 bytes,
	// which reproduces the paper's ~3x coded-to-uncoded block ratio
	// (Figure 5.8: 189 uncoded vs 64 coded blocks).
	used := []uint64{
		4, 4, 4, 4, 4, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0,
	}
	if uniqueLast {
		// The unique attribute replaces the final 3-byte domain; Build
		// sizes it to the tuple count, padded up to three bytes so the
		// tuple stays exactly 38 bytes at any relation size up to 16M.
		sizes = append(sizes, 0)
	} else {
		sizes = append(sizes, 75000)
	}
	used = append(used, 0)
	return Spec{
		Tuples:      tuples,
		UniqueLast:  uniqueLast,
		Seed:        seed,
		DomainSizes: sizes,
		UsedRanges:  used,
	}
}

// BenchShapeSpec returns the named relation of the end-to-end benchmark
// ("flat8" or "wide38": the declared sizes and used ranges of
// bench/relations.go, copied, since that module is not importable) at the
// given tuple count. The benchmark holds 1M tuples; here attribute 0's
// used range shrinks with the tuple count, keeping the tuples per
// attribute-0 value — and so the distance between φ-adjacent tuples — the
// same, so the relation's blocks code to the benchmark's differences at a
// fraction of its size.
func BenchShapeSpec(name string, tuples int, seed int64) (Spec, error) {
	var sizes, used []uint64
	var perValue int // tuples per attribute-0 value at 1M tuples
	switch name {
	case "flat8":
		sizes = []uint64{100000, 257, 257, 257, 257, 64, 16, 8}
		used = []uint64{0, 2, 2, 2, 2, 0, 0, 0}
		perValue = 10
	case "wide38":
		sizes = []uint64{
			100000, 40000, 70000, 30000, 80000, 20000, 90000, 10000,
			5000, 2000, 1000, 500, 400, 300, 70000, 75000,
		}
		used = []uint64{1000, 4, 4, 4, 2, 2, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0}
		perValue = 1000
	default:
		return Spec{}, fmt.Errorf("gen: no benchmark relation %q", name)
	}
	used[0] = uint64(max(1, tuples/perValue))
	return Spec{Tuples: tuples, Seed: seed, DomainSizes: sizes, UsedRanges: used}, nil
}

// Validate reports whether the spec is generable.
func (sp Spec) Validate() error {
	if sp.DomainSizes == nil {
		if sp.Attrs <= 0 {
			return fmt.Errorf("gen: %d attributes", sp.Attrs)
		}
		if sp.AvgDomainSize < 2 {
			return fmt.Errorf("gen: average domain size %d too small", sp.AvgDomainSize)
		}
	} else if len(sp.DomainSizes) == 0 {
		return fmt.Errorf("gen: empty explicit domain sizes")
	}
	if sp.Tuples < 0 {
		return fmt.Errorf("gen: %d tuples", sp.Tuples)
	}
	if sp.UniqueLast && sp.Tuples == 0 {
		return fmt.Errorf("gen: unique last attribute needs at least one tuple")
	}
	if sp.UsedRanges != nil {
		want := sp.Attrs
		if sp.DomainSizes != nil {
			want = len(sp.DomainSizes)
		}
		if len(sp.UsedRanges) != want {
			return fmt.Errorf("gen: %d used ranges for %d attributes", len(sp.UsedRanges), want)
		}
	}
	return nil
}

// EffectiveRange returns the number of distinct values attribute i can
// take under this spec: the used range when one is set, the declared
// domain size otherwise. Query experiments pick their selection bounds
// inside this range.
func (sp Spec) EffectiveRange(i int, schema *relation.Schema) uint64 {
	size := schema.Domain(i).Size
	if sp.UniqueLast && i == schema.NumAttrs()-1 {
		// The unique attribute holds exactly the values 0..Tuples-1, even
		// when its domain is padded wider for layout stability.
		return uint64(sp.Tuples)
	}
	if sp.UsedRanges != nil && sp.UsedRanges[i] != 0 && sp.UsedRanges[i] < size {
		return sp.UsedRanges[i]
	}
	return size
}

// Build generates the schema and tuple set. Tuples are returned in
// generation order (unsorted); the table layer performs the paper's tuple
// re-ordering.
func (sp Spec) Build() (*relation.Schema, []relation.Tuple, error) {
	if err := sp.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(sp.Seed))
	sizes := sp.domainSizes(rng)
	doms := make([]relation.Domain, len(sizes))
	for i, size := range sizes {
		doms[i] = relation.Domain{Name: fmt.Sprintf("a%02d", i+1), Size: size}
	}
	schema, err := relation.NewSchema(doms...)
	if err != nil {
		return nil, nil, err
	}
	tuples := make([]relation.Tuple, sp.Tuples)
	n := len(sizes)
	for i := range tuples {
		tu := make(relation.Tuple, n)
		for j := 0; j < n; j++ {
			if sp.UniqueLast && j == n-1 {
				tu[j] = uint64(i)
				continue
			}
			span := sizes[j]
			if sp.UsedRanges != nil && sp.UsedRanges[j] != 0 && sp.UsedRanges[j] < span {
				span = sp.UsedRanges[j]
			}
			tu[j] = sp.drawValue(rng, span)
		}
		tuples[i] = tu
	}
	return schema, tuples, nil
}

// domainSizes produces the per-attribute domain sizes.
func (sp Spec) domainSizes(rng *rand.Rand) []uint64 {
	if sp.DomainSizes != nil {
		sizes := append([]uint64(nil), sp.DomainSizes...)
		if sp.UniqueLast {
			sizes[len(sizes)-1] = uniqueDomainSize(sp.Tuples)
		}
		return sizes
	}
	sizes := make([]uint64, sp.Attrs)
	avg := float64(sp.AvgDomainSize)
	for i := range sizes {
		var s float64
		switch sp.Variance {
		case VarianceSmall:
			// Uniform within ±5% keeps all pairwise differences <= 10%.
			s = avg * (0.95 + 0.10*rng.Float64())
		default:
			// Log-uniform over [avg/3, avg*3].
			s = avg * math.Exp((2*rng.Float64()-1)*math.Log(3))
		}
		if s < 2 {
			s = 2
		}
		sizes[i] = uint64(math.Round(s))
	}
	if sp.UniqueLast {
		sizes[len(sizes)-1] = uniqueDomainSize(sp.Tuples)
	}
	return sizes
}

// uniqueDomainSize pads a unique attribute's domain up to a three-byte
// width so small test relations keep the same tuple layout as the paper's
// 10^5-tuple relation.
func uniqueDomainSize(tuples int) uint64 {
	const threeByteMin = 1 << 16 // smallest size needing three bytes is 65537
	if tuples > threeByteMin {
		return uint64(tuples)
	}
	return threeByteMin + 1
}

// drawValue samples one attribute value, applying the 60/40 skew rule when
// configured.
func (sp Spec) drawValue(rng *rand.Rand, size uint64) uint64 {
	if !sp.Skew || size < 3 {
		return uint64(rng.Int63n(int64(size)))
	}
	hot := size * 40 / 100
	if hot == 0 {
		hot = 1
	}
	if rng.Float64() < 0.60 {
		return uint64(rng.Int63n(int64(hot)))
	}
	return hot + uint64(rng.Int63n(int64(size-hot)))
}
