package ordinal

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func employeeSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Domain{Name: "dept", Size: 8},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "hours", Size: 64},
		relation.Domain{Name: "empno", Size: 64},
	)
}

// TestPhiPaperValues checks phi against the ordinals printed in the paper's
// Figure 2.2 / Figure 3.3 (column N_R).
func TestPhiPaperValues(t *testing.T) {
	s := employeeSchema(t)
	cases := []struct {
		tuple relation.Tuple
		want  int64
	}{
		{relation.Tuple{3, 8, 36, 39, 35}, 14830051}, // representative of Example 3.2
		{relation.Tuple{3, 8, 32, 34, 12}, 14813324},
		{relation.Tuple{3, 8, 32, 25, 19}, 14812755},
		{relation.Tuple{3, 9, 24, 32, 0}, 15042560},
		{relation.Tuple{3, 9, 26, 27, 37}, 15050469},
		{relation.Tuple{0, 0, 4, 5, 23}, 16727}, // difference of Example 3.2
		{relation.Tuple{0, 0, 0, 8, 57}, 569},   // difference of Example 3.3
		{relation.Tuple{0, 0, 51, 56, 29}, 212509},
		{relation.Tuple{0, 0, 1, 59, 37}, 7909},
		{relation.Tuple{0, 0, 0, 0, 0}, 0},
	}
	for _, c := range cases {
		if got := Phi(s, c.tuple); got.Cmp(big.NewInt(c.want)) != 0 {
			t.Errorf("Phi(%v) = %s, want %d", c.tuple, got, c.want)
		}
	}
}

func TestPhiInverseRoundTrip(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		tu := relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(64)),
		}
		e := Phi(s, tu)
		back, err := PhiInverse(s, e)
		if err != nil {
			t.Fatalf("PhiInverse(%s): %v", e, err)
		}
		if s.Compare(tu, back) != 0 {
			t.Fatalf("phi not bijective: %v -> %s -> %v", tu, e, back)
		}
	}
}

func TestPhiInverseRejectsOutOfSpace(t *testing.T) {
	s := employeeSchema(t)
	if _, err := PhiInverse(s, s.SpaceSize()); err == nil {
		t.Fatal("PhiInverse accepted ||R||")
	}
	if _, err := PhiInverse(s, big.NewInt(-1)); err == nil {
		t.Fatal("PhiInverse accepted a negative ordinal")
	}
}

func TestPhiMonotoneWithCompare(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(2))
	randTuple := func() relation.Tuple {
		return relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(64)),
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := randTuple(), randTuple()
		cmp := s.Compare(a, b)
		if got := Phi(s, a).Cmp(Phi(s, b)); got != cmp {
			t.Fatalf("Compare(%v,%v)=%d but Phi order %d", a, b, cmp, got)
		}
	}
}

// TestSubMatchesBigInt cross-checks the digit-wise subtraction against
// big-integer arithmetic on phi values.
func TestSubMatchesBigInt(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(3))
	randTuple := func() relation.Tuple {
		return relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(64)),
		}
	}
	dst := make(relation.Tuple, s.NumAttrs())
	for i := 0; i < 3000; i++ {
		a, b := randTuple(), randTuple()
		if s.Compare(a, b) < 0 {
			a, b = b, a
		}
		d, err := Sub(s, dst, a, b)
		if err != nil {
			t.Fatalf("Sub(%v,%v): %v", a, b, err)
		}
		want := new(big.Int).Sub(Phi(s, a), Phi(s, b))
		if got := Phi(s, d); got.Cmp(want) != 0 {
			t.Fatalf("Sub(%v,%v) phi=%s, want %s", a, b, got, want)
		}
	}
}

func TestSubUnderflow(t *testing.T) {
	s := employeeSchema(t)
	dst := make(relation.Tuple, s.NumAttrs())
	small := relation.Tuple{0, 0, 0, 0, 1}
	big := relation.Tuple{0, 0, 0, 0, 2}
	if _, err := Sub(s, dst, small, big); err != ErrUnderflow {
		t.Fatalf("Sub underflow err = %v, want ErrUnderflow", err)
	}
}

func TestAddMatchesBigInt(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(4))
	randTuple := func() relation.Tuple {
		return relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(64)),
		}
	}
	dst := make(relation.Tuple, s.NumAttrs())
	space := s.SpaceSize()
	for i := 0; i < 3000; i++ {
		a, d := randTuple(), randTuple()
		want := new(big.Int).Add(Phi(s, a), Phi(s, d))
		got, err := Add(s, dst, a, d)
		if want.Cmp(space) >= 0 {
			if err != ErrOverflow {
				t.Fatalf("Add(%v,%v) out of space, err = %v, want ErrOverflow", a, d, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Add(%v,%v): %v", a, d, err)
		}
		if Phi(s, got).Cmp(want) != 0 {
			t.Fatalf("Add(%v,%v) phi=%s, want %s", a, d, Phi(s, got), want)
		}
	}
}

// TestSubAddInverse: (a - b) + b == a, the identity behind Theorem 2.1's
// lossless decoding.
func TestSubAddInverse(t *testing.T) {
	s := employeeSchema(t)
	f := func(a0, a1, a2, a3, a4, b0, b1, b2, b3, b4 uint16) bool {
		a := relation.Tuple{
			uint64(a0 % 8), uint64(a1 % 16), uint64(a2 % 64), uint64(a3 % 64), uint64(a4 % 64),
		}
		b := relation.Tuple{
			uint64(b0 % 8), uint64(b1 % 16), uint64(b2 % 64), uint64(b3 % 64), uint64(b4 % 64),
		}
		if s.Compare(a, b) < 0 {
			a, b = b, a
		}
		d := make(relation.Tuple, 5)
		if _, err := Sub(s, d, a, b); err != nil {
			return false
		}
		back := make(relation.Tuple, 5)
		if _, err := Add(s, back, b, d); err != nil {
			return false
		}
		return s.Compare(back, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDiff(t *testing.T) {
	s := employeeSchema(t)
	dst := make(relation.Tuple, s.NumAttrs())
	a := relation.Tuple{3, 8, 36, 39, 35}
	b := relation.Tuple{3, 8, 32, 34, 12}
	d, sign, err := Diff(s, dst, a, b)
	if err != nil || sign != 1 {
		t.Fatalf("Diff sign=%d err=%v", sign, err)
	}
	if got := Phi(s, d); got.Cmp(big.NewInt(16727)) != 0 {
		t.Fatalf("Diff = %s, want 16727", got)
	}
	d, sign, err = Diff(s, dst, b, a)
	if err != nil || sign != -1 {
		t.Fatalf("reverse Diff sign=%d err=%v", sign, err)
	}
	if got := Phi(s, d); got.Cmp(big.NewInt(16727)) != 0 {
		t.Fatalf("reverse Diff = %s, want 16727", got)
	}
	_, sign, err = Diff(s, dst, a, a)
	if err != nil || sign != 0 || !IsZero(dst) {
		t.Fatalf("self Diff sign=%d zero=%v err=%v", sign, IsZero(dst), err)
	}
}

func TestSucc(t *testing.T) {
	s := employeeSchema(t)
	dst := make(relation.Tuple, s.NumAttrs())
	if _, err := Succ(s, dst, relation.Tuple{0, 0, 0, 0, 63}); err != nil {
		t.Fatalf("Succ: %v", err)
	}
	want := relation.Tuple{0, 0, 0, 1, 0}
	if s.Compare(dst, want) != 0 {
		t.Fatalf("Succ carry = %v, want %v", dst, want)
	}
	last := relation.Tuple{7, 15, 63, 63, 63}
	if _, err := Succ(s, dst, last); err != ErrOverflow {
		t.Fatalf("Succ(max) err = %v, want ErrOverflow", err)
	}
}

func TestSuccMatchesPhi(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(5))
	dst := make(relation.Tuple, s.NumAttrs())
	one := big.NewInt(1)
	for i := 0; i < 1000; i++ {
		tu := relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(64)),
		}
		want := new(big.Int).Add(Phi(s, tu), one)
		if want.Cmp(s.SpaceSize()) >= 0 {
			continue
		}
		if _, err := Succ(s, dst, tu); err != nil {
			t.Fatalf("Succ(%v): %v", tu, err)
		}
		if Phi(s, dst).Cmp(want) != 0 {
			t.Fatalf("Succ(%v) = %v, phi %s want %s", tu, dst, Phi(s, dst), want)
		}
	}
}

func TestIsZero(t *testing.T) {
	if !IsZero(relation.Tuple{0, 0, 0}) {
		t.Fatal("IsZero(all zeros) = false")
	}
	if IsZero(relation.Tuple{0, 1, 0}) {
		t.Fatal("IsZero(nonzero) = true")
	}
}

// TestWideSchemaArithmetic exercises a 15-attribute schema whose space
// exceeds uint64, ensuring no silent overflow in digit arithmetic.
func TestWideSchemaArithmetic(t *testing.T) {
	doms := make([]relation.Domain, 15)
	for i := range doms {
		doms[i] = relation.Domain{Name: string(rune('a' + i)), Size: 1000}
	}
	s := relation.MustSchema(doms...)
	rng := rand.New(rand.NewSource(6))
	randTuple := func() relation.Tuple {
		tu := make(relation.Tuple, 15)
		for i := range tu {
			tu[i] = uint64(rng.Intn(1000))
		}
		return tu
	}
	dst := make(relation.Tuple, 15)
	back := make(relation.Tuple, 15)
	for i := 0; i < 500; i++ {
		a, b := randTuple(), randTuple()
		if s.Compare(a, b) < 0 {
			a, b = b, a
		}
		if _, err := Sub(s, dst, a, b); err != nil {
			t.Fatalf("Sub: %v", err)
		}
		want := new(big.Int).Sub(Phi(s, a), Phi(s, b))
		if Phi(s, dst).Cmp(want) != 0 {
			t.Fatalf("wide Sub mismatch")
		}
		if _, err := Add(s, back, b, dst); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if s.Compare(back, a) != 0 {
			t.Fatalf("wide Sub/Add not inverse")
		}
	}
}

func BenchmarkSub(b *testing.B) {
	s := employeeSchema(b)
	x := relation.Tuple{3, 9, 24, 32, 0}
	y := relation.Tuple{3, 8, 36, 39, 35}
	dst := make(relation.Tuple, s.NumAttrs())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sub(s, dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhiBigInt(b *testing.B) {
	s := employeeSchema(b)
	x := relation.Tuple{3, 9, 24, 32, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Phi(s, x)
	}
}

// TestAddSubAliasMatchBigInt holds Add and Sub to the big.Int oracle on
// random schemas: in-radix operands rich in 0 and radix-1 digits,
// overflowing and underflowing pairs included, and dst distinct from and
// aliasing each operand.
func TestAddSubAliasMatchBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 3000; iter++ {
		doms := make([]relation.Domain, 1+rng.Intn(6))
		for i := range doms {
			doms[i] = relation.Domain{Name: string(rune('a' + i)), Size: uint64(1 + rng.Intn(1<<uint(1+rng.Intn(17))))}
		}
		s := relation.MustSchema(doms...)
		n, space := s.NumAttrs(), s.SpaceSize()
		random := func() relation.Tuple {
			tu := make(relation.Tuple, n)
			for i, d := range doms {
				switch rng.Intn(3) {
				case 0:
				case 1:
					tu[i] = d.Size - 1
				default:
					tu[i] = uint64(rng.Int63n(int64(d.Size)))
				}
			}
			return tu
		}
		a, d := random(), random()
		sum := new(big.Int).Add(Phi(s, a), Phi(s, d))
		diff := new(big.Int).Sub(Phi(s, a), Phi(s, d))
		for _, op := range []struct {
			name string
			f    func(dst, a, d relation.Tuple) (relation.Tuple, error)
			want *big.Int
			ok   bool
		}{
			{"add", func(dst, a, d relation.Tuple) (relation.Tuple, error) { return Add(s, dst, a, d) }, sum, sum.Cmp(space) < 0},
			{"sub", func(dst, a, d relation.Tuple) (relation.Tuple, error) { return Sub(s, dst, a, d) }, diff, diff.Sign() >= 0},
		} {
			for alias := 0; alias < 3; alias++ {
				x, y := a.Clone(), d.Clone()
				dst := [...]relation.Tuple{make(relation.Tuple, n), x, y}[alias]
				_, err := op.f(dst, x, y)
				if (err == nil) != op.ok || op.ok && Phi(s, dst).Cmp(op.want) != 0 {
					t.Fatalf("%s %v, %v (dst alias %d) = %v, %v; want φ %s (ok %v)",
						op.name, a, d, alias, dst, err, op.want, op.ok)
				}
			}
		}
	}
}
