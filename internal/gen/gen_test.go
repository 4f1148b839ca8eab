package gen

import (
	"testing"
)

func TestFig57SpecShape(t *testing.T) {
	for _, skew := range []bool{false, true} {
		for _, v := range []Variance{VarianceSmall, VarianceLarge} {
			sp := Fig57Spec(500, skew, v, 1)
			schema, tuples, err := sp.Build()
			if err != nil {
				t.Fatal(err)
			}
			if schema.NumAttrs() != 15 {
				t.Fatalf("attrs = %d, want 15 (the paper fixes 15)", schema.NumAttrs())
			}
			if len(tuples) != 500 {
				t.Fatalf("tuples = %d", len(tuples))
			}
			for i, tu := range tuples {
				if err := schema.ValidateTuple(tu); err != nil {
					t.Fatalf("tuple %d: %v", i, err)
				}
			}
		}
	}
}

func TestVarianceThresholds(t *testing.T) {
	// Small variance: all pairwise differences within 10% of the average.
	sp := Fig57Spec(1, false, VarianceSmall, 7)
	schema, _, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]float64, schema.NumAttrs())
	var sum float64
	for i := range sizes {
		sizes[i] = float64(schema.Domain(i).Size)
		sum += sizes[i]
	}
	avg := sum / float64(len(sizes))
	for i := range sizes {
		for j := range sizes {
			diff := sizes[i] - sizes[j]
			if diff < 0 {
				diff = -diff
			}
			if diff > 0.10*avg {
				t.Fatalf("small variance violated: |%v - %v| > 10%% of %v", sizes[i], sizes[j], avg)
			}
		}
	}
	// Large variance: at least one pairwise difference beyond 100%.
	sp = Fig57Spec(1, false, VarianceLarge, 7)
	schema, _, err = sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	var minS, maxS float64 = 1e18, 0
	sum = 0
	for i := 0; i < schema.NumAttrs(); i++ {
		s := float64(schema.Domain(i).Size)
		sum += s
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	avg = sum / float64(schema.NumAttrs())
	if maxS-minS <= avg {
		t.Fatalf("large variance too tame: spread %v vs avg %v", maxS-minS, avg)
	}
}

func TestSkewDistribution(t *testing.T) {
	sp := Spec{Attrs: 1, AvgDomainSize: 100, Variance: VarianceSmall, Skew: true, Tuples: 50000, Seed: 3}
	schema, tuples, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	hot := schema.Domain(0).Size * 40 / 100
	inHot := 0
	for _, tu := range tuples {
		if tu[0] < hot {
			inHot++
		}
	}
	frac := float64(inHot) / float64(len(tuples))
	if frac < 0.57 || frac > 0.63 {
		t.Fatalf("skew: %.3f of values in the hot 40%%, want about 0.60", frac)
	}
	// And the uniform case stays near 0.40.
	sp.Skew = false
	schema, tuples, _ = sp.Build()
	hot = schema.Domain(0).Size * 40 / 100
	inHot = 0
	for _, tu := range tuples {
		if tu[0] < hot {
			inHot++
		}
	}
	frac = float64(inHot) / float64(len(tuples))
	if frac < 0.37 || frac > 0.43 {
		t.Fatalf("uniform: %.3f of values in the first 40%%, want about 0.40", frac)
	}
}

func TestSpec38Byte(t *testing.T) {
	for _, unique := range []bool{false, true} {
		sp := Spec38Byte(1000, unique, 5)
		schema, tuples, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		if schema.NumAttrs() != 16 {
			t.Fatalf("attrs = %d, want 16", schema.NumAttrs())
		}
		if schema.RowSize() != 38 {
			t.Fatalf("row size = %d bytes, want 38 (Section 5.2)", schema.RowSize())
		}
		if len(tuples) != 1000 {
			t.Fatalf("tuples = %d", len(tuples))
		}
		if unique {
			seen := map[uint64]bool{}
			last := schema.NumAttrs() - 1
			for _, tu := range tuples {
				if seen[tu[last]] {
					t.Fatal("unique last attribute repeated")
				}
				seen[tu[last]] = true
			}
			if schema.Domain(last).Size < 1000 {
				t.Fatalf("unique domain size = %d, smaller than relation", schema.Domain(last).Size)
			}
			if schema.AttrWidth(last) != 3 {
				t.Fatalf("unique attribute width = %d bytes, want 3 (38-byte layout)", schema.AttrWidth(last))
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a1, t1, err := Fig57Spec(200, true, VarianceLarge, 42).Build()
	if err != nil {
		t.Fatal(err)
	}
	a2, t2, err := Fig57Spec(200, true, VarianceLarge, 42).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Equal(a2) {
		t.Fatal("same seed, different schemas")
	}
	for i := range t1 {
		if a1.Compare(t1[i], t2[i]) != 0 {
			t.Fatalf("same seed, different tuple %d", i)
		}
	}
	_, t3, err := Fig57Spec(200, true, VarianceLarge, 43).Build()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range t1 {
		if a1.Compare(t1[i], t3[i]) != 0 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Attrs: 0, AvgDomainSize: 10, Tuples: 1},
		{Attrs: 3, AvgDomainSize: 1, Tuples: 1},
		{Attrs: 3, AvgDomainSize: 10, Tuples: -1},
		{Attrs: 3, AvgDomainSize: 10, Tuples: 0, UniqueLast: true},
		{DomainSizes: []uint64{}},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, sp)
		}
	}
}

func TestEmployeePipeline(t *testing.T) {
	records := EmployeeRecords(200, 9)
	schema, deptDict, jobDict, err := EmployeeSchema(200)
	if err != nil {
		t.Fatal(err)
	}
	if schema.Domain(0).Size != 8 || schema.Domain(1).Size != 16 {
		t.Fatalf("employee domain sizes = %d, %d; want 8, 16 (Example 3.1)",
			schema.Domain(0).Size, schema.Domain(1).Size)
	}
	tuples, err := EncodeEmployees(records, deptDict, jobDict)
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range tuples {
		if err := schema.ValidateTuple(tu); err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		back, err := DecodeEmployee(tu, deptDict, jobDict)
		if err != nil {
			t.Fatal(err)
		}
		if back != records[i] {
			t.Fatalf("record %d: %+v -> %+v", i, records[i], back)
		}
	}
}

func TestEmployeeEncodingOrderPreserving(t *testing.T) {
	_, deptDict, _, err := EmployeeSchema(10)
	if err != nil {
		t.Fatal(err)
	}
	prev := uint64(0)
	for i, d := range deptDict.Values() {
		c, err := deptDict.Code(d)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && c <= prev {
			t.Fatal("department codes not increasing with value order")
		}
		prev = c
	}
}

func TestBuildUnsortedOutput(t *testing.T) {
	// Build must not pre-sort: the table layer owns re-ordering, and the
	// experiments measure it. With a unique last attribute in generation
	// order, sortedness would be a (vanishingly unlikely) accident.
	schema, tuples, err := Fig57Spec(2000, false, VarianceSmall, 11).Build()
	if err != nil {
		t.Fatal(err)
	}
	if schema.TuplesSorted(tuples) {
		t.Fatal("generator output is already phi-sorted; suspicious")
	}
}

func TestDrawValueTinyDomain(t *testing.T) {
	sp := Spec{Attrs: 1, AvgDomainSize: 2, Variance: VarianceSmall, Skew: true, Tuples: 100, Seed: 1}
	schema, tuples, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples {
		if tu[0] >= schema.Domain(0).Size {
			t.Fatal("value out of tiny domain")
		}
	}
}

func TestFigure22Data(t *testing.T) {
	s := Figure22Schema()
	tuples := Figure22Tuples()
	if len(tuples) != 50 {
		t.Fatalf("tuples = %d", len(tuples))
	}
	seen := map[uint64]bool{}
	for i, tu := range tuples {
		if err := s.ValidateTuple(tu); err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		// Employee numbers are the row index: the figure's Table (b) order.
		if tu[4] != uint64(i) {
			t.Fatalf("tuple %d has employee number %d", i, tu[4])
		}
		if seen[tu[4]] {
			t.Fatalf("duplicate employee %d", tu[4])
		}
		seen[tu[4]] = true
	}
	if len(Figure22SortedOrdinals()) != 50 || len(Figure22CodedOrdinals()) != 50 {
		t.Fatal("ordinal tables must have 50 rows")
	}
}

// TestBenchShapeSpec pins the end-to-end benchmark's two relations: their
// row widths and flatness, and attribute 0's used range scaled so each of
// its values holds the tuples it holds at 1M tuples.
func TestBenchShapeSpec(t *testing.T) {
	for _, c := range []struct {
		name    string
		rowSize int
		flat    bool
		used0   uint64
	}{
		{"flat8", 14, true, 2000},
		{"wide38", 38, false, 20},
	} {
		sp, err := BenchShapeSpec(c.name, 20_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, tuples, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, flat := s.FlatSpace(); s.RowSize() != c.rowSize || flat != c.flat || len(tuples) != 20_000 || sp.UsedRanges[0] != c.used0 {
			t.Errorf("%s: row %d flat %v tuples %d used[0] %d", c.name, s.RowSize(), flat, len(tuples), sp.UsedRanges[0])
		}
	}
	if _, err := BenchShapeSpec("nope", 10, 1); err == nil {
		t.Error("unknown relation accepted")
	}
}
