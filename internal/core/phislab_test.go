package core

import (
	"errors"
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
		for _, c := range allCodecs() {
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

// TestDecodeBlockPhisDigitsRoundTrip: PhiDigit over the FlatWeights
// divisor chain must recover every attribute of every row without φ⁻¹.
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
			if got := PhiDigit(phi, w[g], s.Domain(g).Size); got != block[i][g] {
				t.Fatalf("row %d attr %d: PhiDigit = %d, want %d", i, g, got, block[i][g])
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
	for _, c := range allCodecs() {
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
	for _, c := range allCodecs() {
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
	for _, c := range allCodecs() {
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

// TestDigitExtractorMatchesPhiDigit pins the strength-reduced extractor
// to PhiDigit over random weights and radixes, mixing powers of two
// (shift+mask path) with arbitrary values (divide path).
func TestDigitExtractorMatchesPhiDigit(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 2000; trial++ {
		var weight, radix uint64
		if trial%2 == 0 {
			weight = uint64(1) << rng.Intn(40)
			radix = uint64(1) << (rng.Intn(12) + 1)
		} else {
			weight = uint64(rng.Int63n(1<<40) + 1)
			radix = uint64(rng.Int63n(4096) + 1)
		}
		d := NewDigitExtractor(weight, radix)
		for i := 0; i < 8; i++ {
			phi := rng.Uint64() >> uint(rng.Intn(40))
			want := PhiDigit(phi, weight, radix)
			if got := d.Digit(phi); got != want {
				t.Fatalf("Digit(%d) with weight=%d radix=%d: got %d, want %d",
					phi, weight, radix, got, want)
			}
		}
	}
}
