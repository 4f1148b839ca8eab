package core

import (
	"math/rand"
	"testing"

	"repro/internal/ordinal"
	"repro/internal/relation"
)

// flatRandomSchema builds a random schema whose cross-product space fits
// in a uint64, so the flat-ordinal path is live.
func flatRandomSchema(rng *rand.Rand) *relation.Schema {
	n := 1 + rng.Intn(6)
	doms := make([]relation.Domain, n)
	for i := range doms {
		doms[i] = relation.Domain{
			Name: string(rune('a' + i)),
			Size: uint64(2 + rng.Intn(200)),
		}
	}
	s := relation.MustSchema(doms...)
	if _, ok := s.FlatSpace(); !ok {
		panic("flatRandomSchema built a non-flat schema")
	}
	return s
}

// TestPhiSpanMatchesLinearScan checks PhiSpan against the definitionally
// correct answer: decode the whole block, compute every tuple's φ, and
// scan for the [loPhi, hiPhi] run.
func TestPhiSpanMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 60; iter++ {
		s := flatRandomSchema(rng)
		space, _ := s.FlatSpace()
		block := randomSortedBlock(s, rng, 1+rng.Intn(120))
		for _, c := range Codecs() {
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				t.Fatalf("%v: encode: %v", c, err)
			}
			ref, err := DecodeBlockArena(s, enc, nil)
			if err != nil {
				t.Fatalf("%v: decode: %v", c, err)
			}
			// Random φ interval, biased to intersect the block.
			loPhi := rng.Uint64() % space
			hiPhi := loPhi + rng.Uint64()%(space-loPhi)
			if len(ref) > 0 && iter%2 == 0 {
				loPhi = ordinal.PhiU64(s, ref[rng.Intn(len(ref))])
				hiPhi = loPhi + rng.Uint64()%(space-loPhi)
			}
			wantFrom, wantTo := len(ref), len(ref)
			haveFrom := false
			for i, tu := range ref {
				phi := ordinal.PhiU64(s, tu)
				if !haveFrom && phi >= loPhi {
					wantFrom, haveFrom = i, true
				}
				if phi > hiPhi {
					wantTo = i
					break
				}
			}
			if !haveFrom {
				wantFrom = wantTo
			}
			a := GetArena()
			from, to, err := PhiSpan(s, enc, loPhi, hiPhi, a)
			PutArena(a)
			if err != nil {
				t.Fatalf("%v: PhiSpan: %v", c, err)
			}
			if from != wantFrom || to != wantTo {
				t.Fatalf("%v: PhiSpan(%d, %d) = [%d, %d), want [%d, %d)", c, loPhi, hiPhi, from, to, wantFrom, wantTo)
			}
		}
	}
}

// TestPhiSpanNeedsFlatSchema checks the guard: schemas whose space
// overflows 64 bits must be rejected, not mis-ranked.
func TestPhiSpanNeedsFlatSchema(t *testing.T) {
	doms := make([]relation.Domain, 16)
	for i := range doms {
		doms[i] = relation.Domain{Name: string(rune('a' + i)), Size: 1 << 6}
	}
	s := relation.MustSchema(doms...) // 64^16 = 2^96 ordinals
	if _, ok := s.FlatSpace(); ok {
		t.Fatal("16x64 schema unexpectedly flat")
	}
	block := []relation.Tuple{make(relation.Tuple, 16)}
	enc, err := EncodeBlock(CodecAVQ, s, block, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := PhiSpan(s, enc, 0, 1, nil); err == nil {
		t.Fatal("PhiSpan accepted a non-flat schema")
	}
}

// TestPhiSpanCorruptStreams feeds PhiSpan truncated and bit-flipped
// streams: it must error (or return a valid span), never panic.
func TestPhiSpanCorruptStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := flatRandomSchema(rng)
	space, _ := s.FlatSpace()
	block := randomSortedBlock(s, rng, 40)
	for _, c := range Codecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			t.Fatalf("%v: encode: %v", c, err)
		}
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), enc...)
			switch trial % 3 {
			case 0:
				mut = mut[:rng.Intn(len(mut))]
			case 1:
				mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
			default:
				mut = append(mut, byte(rng.Intn(256)))
			}
			lo := rng.Uint64() % space
			hi := lo + rng.Uint64()%(space-lo)
			from, to, err := PhiSpan(s, mut, lo, hi, nil)
			if err == nil && (from < 0 || to < from) {
				t.Fatalf("%v: corrupt stream produced invalid span [%d, %d)", c, from, to)
			}
		}
	}
}

// TestPhiSpanZeroAllocs holds the φ-space span walk to the steady-state
// guarantee of the other shapes, for every codec (raw binary-searches its
// rows; the rest ride walkPhis with the bounds visitor).
func TestPhiSpanZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	s := flatRandomSchema(rng)
	block := randomSortedBlock(s, rng, 200)
	lo := ordinal.PhiU64(s, block[40])
	hi := ordinal.PhiU64(s, block[150])
	for _, c := range Codecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			t.Fatalf("%v: encode: %v", c, err)
		}
		a := NewArena()
		allocs := testing.AllocsPerRun(100, func() {
			a.Reset()
			if _, _, err := PhiSpan(s, enc, lo, hi, a); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: PhiSpan allocates %.1f objects/op steady-state, want 0", c, allocs)
		}
	}
}

func BenchmarkPhiSpanVsSearchBlock(b *testing.B) {
	s := employeeSchema(b)
	w, ok := s.FlatWeights()
	if !ok {
		b.Fatal("employee schema not flat")
	}
	rng := rand.New(rand.NewSource(29))
	block := randomSortedBlock(s, rng, 256)
	enc, err := EncodeBlock(CodecAVQ, s, block, nil)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := uint64(2), uint64(5)
	b.Run("PhiSpan", func(b *testing.B) {
		b.ReportAllocs()
		a := NewArena()
		for i := 0; i < b.N; i++ {
			a.Reset()
			if _, _, err := PhiSpan(s, enc, lo*w[0], hi*w[0]+(w[0]-1), a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SearchBlock", func(b *testing.B) {
		b.ReportAllocs()
		a := NewArena()
		for i := 0; i < b.N; i++ {
			a.Reset()
			if _, err := SearchBlockArena(s, enc, func(tu relation.Tuple) bool { return tu[0] >= lo }, a); err != nil {
				b.Fatal(err)
			}
			if _, err := SearchBlockArena(s, enc, func(tu relation.Tuple) bool { return tu[0] > hi }, a); err != nil {
				b.Fatal(err)
			}
		}
	})
}
