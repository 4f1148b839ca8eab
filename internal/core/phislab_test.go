package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ordinal"
	"repro/internal/relation"
)

// TestDecodeBlockPhisMatchesTupleDecode pins the slab kernel to the
// definitionally correct answer on random schemas and blocks, for every
// codec: the slab must equal the per-tuple decode's φ sequence, computed
// both through the uint64 fast path and the big.Int reference.
func TestDecodeBlockPhisMatchesTupleDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1023))
	for iter := 0; iter < 60; iter++ {
		s := flatRandomSchema(rng)
		block := randomSortedBlock(s, rng, 1+rng.Intn(150))
		for _, c := range Codecs() {
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				t.Fatalf("%v: encode: %v", c, err)
			}
			ref, err := DecodeBlockArena(s, enc, nil)
			if err != nil {
				t.Fatalf("%v: decode: %v", c, err)
			}
			phis, err := DecodeBlockPhis(s, enc, NewArena())
			if err != nil {
				t.Fatalf("%v: DecodeBlockPhis: %v", c, err)
			}
			if len(phis) != len(ref) {
				t.Fatalf("%v: slab has %d entries, block has %d tuples", c, len(phis), len(ref))
			}
			for i, tu := range ref {
				if want := ordinal.PhiU64(s, tu); phis[i] != want {
					t.Fatalf("%v: phi[%d] = %d, want %d", c, i, phis[i], want)
				}
				// The big.Int reference is the oracle the uint64 path itself
				// is pinned to; close the loop on the slab too.
				if big := ordinal.Phi(s, tu); !big.IsUint64() || big.Uint64() != phis[i] {
					t.Fatalf("%v: phi[%d] = %d disagrees with big.Int reference %v", c, i, phis[i], big)
				}
			}
		}
	}
}

// TestDecodeBlockPhisDigitsRoundTrip: a DigitExtractor over the
// FlatWeights must recover every attribute of every row without φ⁻¹.
func TestDecodeBlockPhisDigitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := flatRandomSchema(rng)
	w, ok := s.FlatWeights()
	if !ok {
		t.Fatal("flat schema has no weights")
	}
	block := randomSortedBlock(s, rng, 120)
	enc, err := EncodeBlock(CodecAVQ, s, block, nil)
	if err != nil {
		t.Fatal(err)
	}
	phis, err := DecodeBlockPhis(s, enc, NewArena())
	if err != nil {
		t.Fatal(err)
	}
	for i, phi := range phis {
		for g := 0; g < s.NumAttrs(); g++ {
			d := NewDigitExtractor(w[g], s.Domain(g).Size)
			if got := d.Digit(phi); got != block[i][g] {
				t.Fatalf("row %d attr %d: Digit = %d, want %d", i, g, got, block[i][g])
			}
		}
		if got := phi / w[0]; got != block[i][0] {
			t.Fatalf("row %d: prefix digit φ/w0 = %d, want %d", i, got, block[i][0])
		}
	}
}

// TestDecodeBlockPhisZeroAlloc holds the slab kernel to the same
// steady-state guarantee as the tuple decode kernels: a pooled, Reset
// arena makes repeated slab decodes allocation-free for every codec.
func TestDecodeBlockPhisZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := flatRandomSchema(rng)
	block := randomSortedBlock(s, rng, 200)
	for _, c := range Codecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			t.Fatalf("%v: encode: %v", c, err)
		}
		a := NewArena()
		allocs := testing.AllocsPerRun(100, func() {
			a.Reset()
			if _, err := DecodeBlockPhis(s, enc, a); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: DecodeBlockPhis allocates %.1f objects/op steady-state, want 0", c, allocs)
		}
	}
}

// TestDecodeBlockPhisRejectsCorruption: flipped payload bytes must
// surface as decode errors (checksum or chain validation), never as a
// silently wrong slab, and a truncated stream must fail cleanly.
func TestDecodeBlockPhisRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := flatRandomSchema(rng)
	block := randomSortedBlock(s, rng, 60)
	for _, c := range Codecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			t.Fatalf("%v: encode: %v", c, err)
		}
		bad := append([]byte(nil), enc...)
		bad[len(bad)/2] ^= 0x41
		if _, err := DecodeBlockPhis(s, bad, NewArena()); err == nil {
			t.Errorf("%v: corrupted stream decoded without error", c)
		}
		if _, err := DecodeBlockPhis(s, enc[:len(enc)-3], NewArena()); err == nil {
			t.Errorf("%v: truncated stream decoded without error", c)
		}
	}
}

// TestDecodeBlockPhisNeedsFlatSchema: a schema space beyond 64 bits must
// be refused, matching PhiSpan.
func TestDecodeBlockPhisNeedsFlatSchema(t *testing.T) {
	s := relation.MustSchema(
		relation.Domain{Name: "a", Size: 1 << 40},
		relation.Domain{Name: "b", Size: 1 << 40},
	)
	if _, ok := s.FlatSpace(); ok {
		t.Fatal("schema unexpectedly flat")
	}
	tu := relation.Tuple{1, 2}
	enc, err := EncodeBlock(CodecRaw, s, []relation.Tuple{tu}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBlockPhis(s, enc, NewArena()); err == nil {
		t.Fatal("non-flat schema accepted")
	}
}

// TestDecodeBlockPhisEmptyBlock round-trips a zero-tuple block.
func TestDecodeBlockPhisEmptyBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := flatRandomSchema(rng)
	for _, c := range Codecs() {
		enc, err := EncodeBlock(c, s, nil, nil)
		if err != nil {
			// Some codecs may refuse empty blocks; that is fine here.
			continue
		}
		phis, err := DecodeBlockPhis(s, enc, NewArena())
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				continue
			}
			t.Fatalf("%v: %v", c, err)
		}
		if len(phis) != 0 {
			t.Fatalf("%v: empty block produced %d φ entries", c, len(phis))
		}
	}
}

// TestPhiSpanSorted pins the slab clip against PhiSpan on the same block.
func TestPhiSpanSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 40; iter++ {
		s := flatRandomSchema(rng)
		space, _ := s.FlatSpace()
		block := randomSortedBlock(s, rng, 1+rng.Intn(100))
		enc, err := EncodeBlock(CodecAVQ, s, block, nil)
		if err != nil {
			t.Fatal(err)
		}
		phis, err := DecodeBlockPhis(s, enc, NewArena())
		if err != nil {
			t.Fatal(err)
		}
		loPhi := rng.Uint64() % space
		hiPhi := loPhi + rng.Uint64()%(space-loPhi)
		wantFrom, wantTo, err := PhiSpan(s, enc, loPhi, hiPhi, NewArena())
		if err != nil {
			t.Fatal(err)
		}
		from, to := PhiSpanSorted(phis, loPhi, hiPhi)
		if from != wantFrom || to != wantTo {
			t.Fatalf("PhiSpanSorted = [%d, %d), PhiSpan = [%d, %d)", from, to, wantFrom, wantTo)
		}
	}
}

// TestDigitExtractorExact pins the strength-reduced extractor to the
// definition, φ / w mod u with hardware divides: every (weight, radix) of
// the flat8 and employee schemas and random pairs whose product fits 64
// bits (as every flat schema's do), each at the edge ordinals 0, w-1, w,
// k·w-1, space-1 and 2⁶⁴-1 plus random ones.
func TestDigitExtractorExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	flat8, _ := ledgerRelation(t, "flat8", 1)
	type pair struct{ weight, radix uint64 }
	var pairs []pair
	for _, s := range []*relation.Schema{flat8, employeeSchema(t)} {
		w, _ := s.FlatWeights()
		for g := range w {
			pairs = append(pairs, pair{w[g], s.Domain(g).Size})
		}
	}
	for len(pairs) < 3000 {
		var p pair
		switch len(pairs) % 3 {
		case 0: // powers of two: the shift-and-mask path
			p.weight, p.radix = 1<<rng.Intn(52), 1<<(rng.Intn(12)+1)
		case 1: // the ledger's range: weights up to 2⁴⁸, radices up to 2¹⁷
			p.weight, p.radix = uint64(rng.Int63n(1<<48)+1), uint64(rng.Int63n(1<<17)+1)
		default: // anything nonzero
			p.weight, p.radix = rng.Uint64()>>rng.Intn(64)|1, rng.Uint64()>>rng.Intn(64)|1
		}
		if p.radix > math.MaxUint64/p.weight {
			continue // weight·radix overflows: no flat schema has this pair
		}
		pairs = append(pairs, p)
	}
	for _, p := range pairs {
		d := NewDigitExtractor(p.weight, p.radix)
		w, space := p.weight, p.weight*p.radix
		for _, phi := range []uint64{0, w - 1, w, 3*w - 1, space - 1, math.MaxUint64, rng.Uint64(), rng.Uint64() >> rng.Intn(64), rng.Uint64() % space} {
			if got, want := d.Digit(phi), phi/p.weight%p.radix; got != want {
				t.Fatalf("Digit(%d) with weight=%d radix=%d: got %d, want %d", phi, p.weight, p.radix, got, want)
			}
		}
	}
}
