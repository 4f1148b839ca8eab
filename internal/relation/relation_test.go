package relation

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// employeeSchema is the relation of Example 3.1: department, job title,
// years in company, hours per week, employee number with domain sizes
// 8, 16, 64, 64, 64.
func employeeSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Domain{Name: "dept", Size: 8},
		Domain{Name: "job", Size: 16},
		Domain{Name: "years", Size: 64},
		Domain{Name: "hours", Size: 64},
		Domain{Name: "empno", Size: 64},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestNewSchemaRejectsEmpty(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Fatal("expected error for empty schema")
	}
}

func TestNewSchemaRejectsBadDomains(t *testing.T) {
	cases := []Domain{
		{Name: "", Size: 4},
		{Name: "zero", Size: 0},
	}
	for _, d := range cases {
		if _, err := NewSchema(d); err == nil {
			t.Errorf("expected error for domain %+v", d)
		}
	}
}

func TestDomainByteWidth(t *testing.T) {
	cases := []struct {
		size uint64
		want int
	}{
		{1, 1}, {2, 1}, {255, 1}, {256, 1}, {257, 2},
		{65536, 2}, {65537, 3}, {1 << 24, 3}, {1<<24 + 1, 4},
		{1 << 32, 4}, {1<<32 + 1, 5}, {^uint64(0), 8},
	}
	for _, c := range cases {
		d := Domain{Name: "x", Size: c.size}
		if got := d.ByteWidth(); got != c.want {
			t.Errorf("ByteWidth(size=%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestSchemaLayout(t *testing.T) {
	s := MustSchema(
		Domain{Name: "a", Size: 300},   // 2 bytes
		Domain{Name: "b", Size: 7},     // 1 byte
		Domain{Name: "c", Size: 70000}, // 3 bytes
	)
	if got := s.RowSize(); got != 6 {
		t.Fatalf("RowSize = %d, want 6", got)
	}
	wantOff := []int{0, 2, 3}
	wantW := []int{2, 1, 3}
	for i := 0; i < s.NumAttrs(); i++ {
		if s.AttrOffset(i) != wantOff[i] || s.AttrWidth(i) != wantW[i] {
			t.Errorf("attr %d: offset %d width %d, want %d %d",
				i, s.AttrOffset(i), s.AttrWidth(i), wantOff[i], wantW[i])
		}
	}
}

func TestSpaceSize(t *testing.T) {
	s := employeeSchema(t)
	// 8 * 16 * 64^3 = 33554432
	want := big.NewInt(33554432)
	if got := s.SpaceSize(); got.Cmp(want) != 0 {
		t.Fatalf("SpaceSize = %s, want %s", got, want)
	}
}

func TestSpaceSizeOverflowsUint64(t *testing.T) {
	doms := make([]Domain, 15)
	for i := range doms {
		doms[i] = Domain{Name: string(rune('a' + i)), Size: 1000}
	}
	s := MustSchema(doms...)
	max64 := new(big.Int).SetUint64(^uint64(0))
	if s.SpaceSize().Cmp(max64) <= 0 {
		t.Fatal("expected 15 domains of size 1000 to exceed uint64; digit arithmetic is load-bearing")
	}
}

func TestValidateTuple(t *testing.T) {
	s := employeeSchema(t)
	if err := s.ValidateTuple(Tuple{3, 8, 36, 39, 35}); err != nil {
		t.Fatalf("valid tuple rejected: %v", err)
	}
	if err := s.ValidateTuple(Tuple{8, 0, 0, 0, 0}); err == nil {
		t.Fatal("out-of-domain digit accepted")
	}
	if err := s.ValidateTuple(Tuple{1, 2, 3}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestCompare(t *testing.T) {
	s := employeeSchema(t)
	a := Tuple{3, 8, 32, 25, 19}
	b := Tuple{3, 8, 32, 34, 12}
	if got := s.Compare(a, b); got != -1 {
		t.Errorf("Compare(a,b) = %d, want -1", got)
	}
	if got := s.Compare(b, a); got != 1 {
		t.Errorf("Compare(b,a) = %d, want 1", got)
	}
	if got := s.Compare(a, a.Clone()); got != 0 {
		t.Errorf("Compare(a,a) = %d, want 0", got)
	}
}

func TestEncodeDecodeTupleRoundTrip(t *testing.T) {
	s := MustSchema(
		Domain{Name: "a", Size: 300},
		Domain{Name: "b", Size: 7},
		Domain{Name: "c", Size: 70000},
		Domain{Name: "d", Size: 2},
	)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		tu := Tuple{
			uint64(rng.Intn(300)),
			uint64(rng.Intn(7)),
			uint64(rng.Intn(70000)),
			uint64(rng.Intn(2)),
		}
		buf := s.EncodeTuple(nil, tu)
		if len(buf) != s.RowSize() {
			t.Fatalf("encoded %d bytes, want %d", len(buf), s.RowSize())
		}
		got, err := s.DecodeTuple(buf)
		if err != nil {
			t.Fatalf("DecodeTuple: %v", err)
		}
		if s.Compare(tu, got) != 0 {
			t.Fatalf("round trip mismatch: %v -> %v", tu, got)
		}
	}
}

func TestDecodeTupleShortBuffer(t *testing.T) {
	s := employeeSchema(t)
	if _, err := s.DecodeTuple(make([]byte, s.RowSize()-1)); err == nil {
		t.Fatal("expected error on short buffer")
	}
}

// TestEncodedBytesOrderMatchesCompare is the key property behind using
// encoded tuples as B+-tree keys: byte-wise comparison of fixed-width
// encodings must agree with Schema.Compare.
func TestEncodedBytesOrderMatchesCompare(t *testing.T) {
	s := MustSchema(
		Domain{Name: "a", Size: 1000},
		Domain{Name: "b", Size: 3},
		Domain{Name: "c", Size: 1 << 20},
	)
	rng := rand.New(rand.NewSource(7))
	randTuple := func() Tuple {
		return Tuple{uint64(rng.Intn(1000)), uint64(rng.Intn(3)), uint64(rng.Intn(1 << 20))}
	}
	for i := 0; i < 3000; i++ {
		a, b := randTuple(), randTuple()
		ab := s.EncodeTuple(nil, a)
		bb := s.EncodeTuple(nil, b)
		byteCmp := 0
		for j := range ab {
			if ab[j] != bb[j] {
				if ab[j] < bb[j] {
					byteCmp = -1
				} else {
					byteCmp = 1
				}
				break
			}
		}
		if byteCmp != s.Compare(a, b) {
			t.Fatalf("byte order %d != tuple order %d for %v vs %v", byteCmp, s.Compare(a, b), a, b)
		}
	}
}

func TestSortTuples(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(11))
	tuples := make([]Tuple, 500)
	for i := range tuples {
		tuples[i] = Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(64)),
		}
	}
	s.SortTuples(tuples)
	if !s.TuplesSorted(tuples) {
		t.Fatal("SortTuples did not produce phi order")
	}
}

func TestSortTuplesSmall(t *testing.T) {
	s := employeeSchema(t)
	var empty []Tuple
	s.SortTuples(empty) // must not panic
	one := []Tuple{{1, 2, 3, 4, 5}}
	s.SortTuples(one)
	if s.Compare(one[0], Tuple{1, 2, 3, 4, 5}) != 0 {
		t.Fatal("single-element sort changed the tuple")
	}
}

func TestSortTuplesStability(t *testing.T) {
	// Equal tuples must keep their relative order (the sort is stable).
	s := MustSchema(Domain{Name: "k", Size: 4})
	a := Tuple{1}
	b := Tuple{1}
	c := Tuple{0}
	in := []Tuple{a, b, c}
	s.SortTuples(in)
	if &in[1][0] != &a[0] || &in[2][0] != &b[0] {
		t.Fatal("sort is not stable for equal keys")
	}
}

func TestSortTuplesQuick(t *testing.T) {
	s := MustSchema(
		Domain{Name: "a", Size: 5},
		Domain{Name: "b", Size: 9},
		Domain{Name: "c", Size: 3},
	)
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tuples := make([]Tuple, int(n))
		for i := range tuples {
			tuples[i] = Tuple{uint64(rng.Intn(5)), uint64(rng.Intn(9)), uint64(rng.Intn(3))}
		}
		s.SortTuples(tuples)
		return s.TuplesSorted(tuples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAttrIndex(t *testing.T) {
	s := employeeSchema(t)
	if got := s.AttrIndex("years"); got != 2 {
		t.Errorf("AttrIndex(years) = %d, want 2", got)
	}
	if got := s.AttrIndex("nope"); got != -1 {
		t.Errorf("AttrIndex(nope) = %d, want -1", got)
	}
}

func TestSchemaEqual(t *testing.T) {
	a := employeeSchema(t)
	b := employeeSchema(t)
	if !a.Equal(b) {
		t.Fatal("identical schemas not Equal")
	}
	c := MustSchema(Domain{Name: "x", Size: 2})
	if a.Equal(c) {
		t.Fatal("different schemas Equal")
	}
	if a.Equal(nil) {
		t.Fatal("schema Equal(nil)")
	}
}

func TestSchemaString(t *testing.T) {
	s := MustSchema(Domain{Name: "a", Size: 2}, Domain{Name: "b", Size: 3})
	if got := s.String(); got != "(a:2, b:3)" {
		t.Errorf("String() = %q", got)
	}
}

func TestTupleString(t *testing.T) {
	if got := (Tuple{3, 8, 36}).String(); got != "<3, 8, 36>" {
		t.Errorf("Tuple.String() = %q", got)
	}
}

func TestDomainKindString(t *testing.T) {
	if KindOrdinal.String() != "ordinal" || KindString.String() != "string" {
		t.Fatal("unexpected kind names")
	}
	if DomainKind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestEncodeAttr(t *testing.T) {
	s := MustSchema(Domain{Name: "a", Size: 300}, Domain{Name: "b", Size: 5})
	got := s.EncodeAttr(nil, 0, 0x0102)
	if len(got) != 2 || got[0] != 0x01 || got[1] != 0x02 {
		t.Fatalf("EncodeAttr = %x", got)
	}
	got = s.EncodeAttr(nil, 1, 4)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("EncodeAttr = %x", got)
	}
}

func BenchmarkCompare(b *testing.B) {
	s := MustSchema(
		Domain{Name: "a", Size: 8}, Domain{Name: "b", Size: 16},
		Domain{Name: "c", Size: 64}, Domain{Name: "d", Size: 64},
		Domain{Name: "e", Size: 64},
	)
	x := Tuple{3, 8, 36, 39, 35}
	y := Tuple{3, 8, 36, 39, 36}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Compare(x, y)
	}
}

// TestSplit checks the split-ordinal form against big-integer products:
// at is the first attribute of the longest run of final attributes whose
// radix product fits in 64 bits, the weights are the suffix's positional
// weights, and a flat schema splits at 0 with its flat weights and space.
func TestSplit(t *testing.T) {
	dom := func(sizes ...uint64) *Schema {
		d := make([]Domain, len(sizes))
		for i, sz := range sizes {
			d[i] = Domain{Name: fmt.Sprintf("a%d", i), Size: sz}
		}
		return MustSchema(d...)
	}
	max64 := new(big.Int).SetUint64(^uint64(0))
	for _, c := range []struct {
		s  *Schema
		at int
	}{
		{dom(8, 16, 64), 0},
		{dom(1<<32, 1<<31), 0},
		{dom(1<<40, 1<<40, 1<<40), 2},
		{dom(^uint64(0), 2), 1},
		{dom(3, 1<<32, 1<<32-1), 1},
		{dom(100000, 40000, 70000, 30000, 80000, 20000, 90000, 10000, 5000, 2000, 1000, 500, 400, 300, 70000, 75000), 11},
	} {
		at, w, space := c.s.Split()
		if at != c.at {
			t.Fatalf("%v splits at %d, want %d", c.s, at, c.at)
		}
		n := c.s.NumAttrs()
		prod := big.NewInt(1)
		for i := n - 1; i >= at; i-- {
			if w[i] != prod.Uint64() {
				t.Fatalf("%v: weight %d = %d, want %s", c.s, i, w[i], prod)
			}
			prod.Mul(prod, new(big.Int).SetUint64(c.s.Domain(i).Size))
		}
		if prod.Cmp(max64) > 0 || space != prod.Uint64() {
			t.Fatalf("%v: space %d, want %s within 64 bits", c.s, space, prod)
		}
		if at > 0 {
			if prod.Mul(prod, new(big.Int).SetUint64(c.s.Domain(at-1).Size)); prod.Cmp(max64) <= 0 {
				t.Fatalf("%v: the suffix could extend to attribute %d", c.s, at-1)
			}
		}
		fw, flat := c.s.FlatWeights()
		fs, _ := c.s.FlatSpace()
		if flat != (at == 0) || flat && (&fw[0] != &w[0] || fs != space) {
			t.Fatalf("%v: flat %v, but split at %d", c.s, flat, at)
		}
	}
}
