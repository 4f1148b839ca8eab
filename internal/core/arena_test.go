package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestArenaTuplesDisjoint(t *testing.T) {
	a := NewArena()
	ts := a.Tuples(4, 3)
	if len(ts) != 4 {
		t.Fatalf("Tuples(4, 3) returned %d headers", len(ts))
	}
	for i, tu := range ts {
		if len(tu) != 3 {
			t.Fatalf("tuple %d has arity %d", i, len(tu))
		}
		for j := range tu {
			tu[j] = uint64(i*10 + j)
		}
	}
	extra := a.Tuple(3)
	for j := range extra {
		extra[j] = 999
	}
	for i, tu := range ts {
		for j, v := range tu {
			if v != uint64(i*10+j) {
				t.Fatalf("tuple %d digit %d clobbered: got %d", i, j, v)
			}
		}
	}
}

// TestArenaAppendCannotClobber checks the full-slice carving: growing a
// carved tuple with append must reallocate, never scribble on the
// neighbouring carve.
func TestArenaAppendCannotClobber(t *testing.T) {
	a := NewArena()
	first := a.Tuple(2)
	second := a.Tuple(2)
	first[0], first[1] = 1, 2
	second[0], second[1] = 3, 4
	grown := append(first, 77)
	_ = grown
	if second[0] != 3 || second[1] != 4 {
		t.Fatalf("append on a carved tuple clobbered its neighbour: %v", second)
	}
}

func TestArenaResetReuse(t *testing.T) {
	a := NewArena()
	a.Tuples(64, 5)
	bytesBefore := a.SlabBytes()
	if bytesBefore == 0 {
		t.Fatal("expected slab capacity after carving")
	}
	r0 := a.Reuses()
	a.Reset()
	if a.Reuses() != r0+1 {
		t.Fatalf("Reuses() = %d, want %d", a.Reuses(), r0+1)
	}
	a.Tuples(64, 5)
	if a.SlabBytes() != bytesBefore {
		t.Fatalf("slab grew across Reset with identical demand: %d -> %d", bytesBefore, a.SlabBytes())
	}
}

func TestArenaPoolStress(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				a := GetArena()
				ts := a.Tuples(1+rng.Intn(32), 1+rng.Intn(8))
				for _, tu := range ts {
					for j := range tu {
						tu[j] = uint64(seed)
					}
				}
				for _, tu := range ts {
					for j := range tu {
						if tu[j] != uint64(seed) {
							t.Errorf("cross-goroutine clobber: got %d want %d", tu[j], seed)
							return
						}
						_ = j
					}
				}
				PutArena(a)
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestDecodeBlockArenaMatchesAllocating is the arena-kernels-versus-
// allocating-reference differential: for every codec, every decode shape
// (full, span, tuple-at, search, φ slab, φ span) must accept exactly the
// streams the naive reference decoder of reference_test.go accepts and
// agree with it tuple-for-tuple — on the encoder's own output and on
// mutated, re-checksummed copies of it that reach the payload parsers.
func TestDecodeBlockArenaMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		s := randomSchema(rng)
		if iter%2 == 0 {
			s = flatRandomSchema(rng) // the φ shapes need a flat schema
		}
		block := randomSortedBlock(s, rng, 1+rng.Intn(60))
		for _, c := range Codecs() {
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				t.Fatalf("%v: encode: %v", c, err)
			}
			if got, err := refDecode(s, enc); err != nil || !sameTuples(s, got, block) {
				t.Fatalf("%v: reference decoder does not round-trip the encoder: %v", c, err)
			}
			checkShapesAgainstReference(t, s, enc)
			payload := enc[:len(enc)-crcSize]
			for trial := 0; trial < 12; trial++ {
				mut := append([]byte(nil), payload...)
				switch trial % 4 {
				case 0: // flip one bit past the magic and codec bytes
					mut[2+rng.Intn(len(mut)-2)] ^= 1 << uint(rng.Intn(8))
				case 1: // overwrite one byte
					mut[2+rng.Intn(len(mut)-2)] = byte(rng.Intn(256))
				case 2: // drop the tail
					mut = mut[:3+rng.Intn(len(mut)-2)]
				default: // grow the tail
					mut = append(mut, byte(rng.Intn(256)))
				}
				checkShapesAgainstReference(t, s, rechecksum(mut))
			}
		}
	}
}

// TestDecodeBlockArenaZeroAllocs pins the steady-state allocation count of
// the arena decode kernels at zero for every codec: after one warm-up
// decode sizes the slabs, Reset + decode must not touch the heap.
func TestDecodeBlockArenaZeroAllocs(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(11))
	block := randomSortedBlock(s, rng, 64)
	for _, c := range Codecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			t.Fatalf("%v: encode: %v", c, err)
		}
		a := NewArena()
		if _, err := DecodeBlockArena(s, enc, a); err != nil {
			t.Fatalf("%v: warm-up decode: %v", c, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			a.Reset()
			if _, err := DecodeBlockArena(s, enc, a); err != nil {
				t.Fatalf("%v: decode: %v", c, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: steady-state DecodeBlockArena allocates %.1f objects/op, want 0", c, allocs)
		}
	}
}

// TestDecodeTupleSpanArenaZeroAllocs pins the span path the executor's
// partial decodes ride on.
func TestDecodeTupleSpanArenaZeroAllocs(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(12))
	block := randomSortedBlock(s, rng, 64)
	for _, c := range Codecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			t.Fatalf("%v: encode: %v", c, err)
		}
		a := NewArena()
		if _, err := DecodeTupleSpanArena(s, enc, 10, 50, a); err != nil {
			t.Fatalf("%v: warm-up span: %v", c, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			a.Reset()
			if _, err := DecodeTupleSpanArena(s, enc, 10, 50, a); err != nil {
				t.Fatalf("%v: span: %v", c, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: steady-state DecodeTupleSpanArena allocates %.1f objects/op, want 0", c, allocs)
		}
	}
}

func BenchmarkDecodeBlockArena(b *testing.B) {
	s := employeeSchema(b)
	rng := rand.New(rand.NewSource(13))
	block := randomSortedBlock(s, rng, 256)
	for _, c := range Codecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			b.Fatalf("%v: encode: %v", c, err)
		}
		b.Run(c.String(), func(b *testing.B) {
			b.ReportAllocs()
			a := NewArena()
			for i := 0; i < b.N; i++ {
				a.Reset()
				if _, err := DecodeBlockArena(s, enc, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDividerExact holds the invariant division put reads suffix digits
// with to the hardware divide, for divisors from 1 to 2^64-1 and dividends
// at both ends of the word.
func TestDividerExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	divisors := []uint64{1, 2, 3, 7, 10, 255, 257, 1 << 31, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64}
	for range 200 {
		divisors = append(divisors, rng.Uint64()>>rng.Intn(64)|1, rng.Uint64()>>rng.Intn(64)+1)
	}
	for _, d := range divisors {
		v := newDivider(d)
		for _, n := range []uint64{0, 1, d - 1, d, d + 1, math.MaxUint64 - 1, math.MaxUint64, rng.Uint64(), rng.Uint64() >> rng.Intn(64)} {
			if got := v.quo(n); got != n/d {
				t.Fatalf("%d / %d = %d, want %d", n, d, got, n/d)
			}
		}
	}
}
