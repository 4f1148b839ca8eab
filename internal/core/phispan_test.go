package core

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
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

// TestPhiSpanZeroAllocs holds the φ-space span walk, and the slab it
// hands back, to the steady-state guarantee of the other shapes, for
// every codec (raw binary-searches its rows; the rest ride the walk with
// the bounds visitor).
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
		allocs = testing.AllocsPerRun(100, func() {
			a.Reset()
			if _, err := PhiSpanSlab(s, enc, lo, hi, nil, a); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: PhiSpanSlab allocates %.1f objects/op steady-state, want 0", c, allocs)
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

// twoWalkSpan is the span as the read path once materialized it: PhiSpan's
// positions, then DecodeTupleSpanArena's tuple-space walk from the anchor.
func twoWalkSpan(s *relation.Schema, data []byte, loPhi, hiPhi uint64) ([]relation.Tuple, error) {
	from, to, err := PhiSpan(s, data, loPhi, hiPhi, nil)
	if err != nil || from >= to {
		return nil, err
	}
	return DecodeTupleSpanArena(s, data, from, to, nil)
}

// oneWalkSpan is PhiSpanSlab's span as tuples: each ordinal's digits.
func oneWalkSpan(s *relation.Schema, data []byte, loPhi, hiPhi uint64) ([]relation.Tuple, error) {
	phis, err := PhiSpanSlab(s, data, loPhi, hiPhi, nil, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]relation.Tuple, len(phis))
	for i, phi := range phis {
		if rows[i], err = ordinal.PhiInverseU64(s, make(relation.Tuple, s.NumAttrs()), phi); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// checkSpanWalksAgree holds the one-walk span to the two-walk span on one
// (arbitrary) stream: both accept or both reject, and accepted, they
// yield the same tuples.
func checkSpanWalksAgree(t *testing.T, s *relation.Schema, data []byte, loPhi, hiPhi uint64) {
	t.Helper()
	want, wantErr := twoWalkSpan(s, data, loPhi, hiPhi)
	got, err := oneWalkSpan(s, data, loPhi, hiPhi)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("φ [%d,%d]: one walk err = %v, two walks err = %v", loPhi, hiPhi, err, wantErr)
	}
	if err == nil && !sameTuples(s, got, want) {
		t.Fatalf("φ [%d,%d]: one walk = %v, two walks = %v", loPhi, hiPhi, got, want)
	}
}

// attr0Phis is the φ interval of lo <= A_0 <= hi, hi clamped to the domain.
func attr0Phis(s *relation.Schema, lo, hi uint64) (uint64, uint64) {
	w, _ := s.FlatWeights()
	hi = min(hi, s.Domain(0).Size-1)
	return lo * w[0], hi*w[0] + (w[0] - 1)
}

// TestPhiSpanSlabMatchesTwoWalks: on flat8-shaped, Fig 5.7 and
// duplicate-run relations, under every codec, PhiSpanSlab's span equals
// PhiSpan + DecodeTupleSpanArena's for every attribute-0 range [lo, hi]
// around a block — gaps, single values and ranges outside the block
// included — and re-checksummed mutations of each block are accepted or
// rejected by both alike.
func TestPhiSpanSlabMatchesTwoWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rels := editRelations(t)
	delete(rels, "wide38")
	// The Fig 5.7 family's 15 attributes overflow 64 bits; its first seven
	// keep the family's domain sizes and skew within a flat space.
	fig := gen.Fig57Spec(400, true, gen.VarianceLarge, 3)
	fig.Attrs = 7
	s, tuples, err := fig.Build()
	if err != nil {
		t.Fatal(err)
	}
	s.SortTuples(tuples)
	rels["fig5.7"] = editRelation{s, tuples}
	for name, rel := range rels {
		s := rel.s
		if _, ok := s.FlatSpace(); !ok {
			t.Fatalf("%s: schema %v is not flat", name, s)
		}
		// One block as generated, one with every value of attribute 0
		// congruent to 1 mod 3 left out, so ranges can fall in gaps.
		var gapped []relation.Tuple
		for _, tu := range rel.tuples {
			if tu[0]%3 != 1 {
				gapped = append(gapped, tu)
			}
		}
		for _, block := range [][]relation.Tuple{rel.tuples, gapped[len(gapped)/3:]} {
			// At most 150 tuples over at most 40 values of attribute 0.
			block = block[:150]
			for i, tu := range block {
				if tu[0] > block[0][0]+40 {
					block = block[:i]
					break
				}
			}
			first, last := block[0][0], block[len(block)-1][0]
			size := s.Domain(0).Size
			var ranges [][2]uint64
			for lo := first - min(first, 2); lo <= min(last+2, size-1); lo++ {
				for hi := lo; hi <= min(last+2, size-1); hi++ {
					ranges = append(ranges, [2]uint64{lo, hi})
				}
			}
			for _, c := range Codecs() {
				enc, err := EncodeBlock(c, s, block, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range ranges {
					lo, hi := attr0Phis(s, r[0], r[1])
					checkSpanWalksAgree(t, s, enc, lo, hi)
				}
				for m := 0; m < 40; m++ {
					bad := append([]byte(nil), enc[:len(enc)-crcSize]...)
					bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
					if m%4 == 0 {
						bad = append(bad, byte(rng.Intn(256)))
					}
					bad = rechecksum(bad)
					for k := 0; k < 6; k++ {
						r := ranges[rng.Intn(len(ranges))]
						lo, hi := attr0Phis(s, r[0], r[1])
						checkSpanWalksAgree(t, s, bad, lo, hi)
					}
				}
			}
			t.Logf("%s: attribute 0 in [%d, %d], %d ranges", name, first, last, len(ranges))
		}
	}
}

// TestPhiSpanEndRule: a walk that stops after consuming a block's last
// difference — here a two-tuple block whose anchor is its last position,
// so every difference precedes the stop — still rejects a trailing
// payload byte, as every whole-payload shape does.
func TestPhiSpanEndRule(t *testing.T) {
	s := employeeSchema(t)
	block := []relation.Tuple{{1, 2, 3, 4, 5}, {5, 6, 7, 8, 9}}
	enc, err := EncodeBlock(CodecAVQ, s, block, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := rechecksum(append(append([]byte(nil), enc[:len(enc)-crcSize]...), 0))
	if _, err := DecodeBlockArena(s, bad, nil); err == nil {
		t.Fatal("full decode accepted a trailing byte")
	}
	phi := ordinal.PhiU64(s, block[0])
	if _, _, err := PhiSpan(s, bad, phi, phi, nil); err == nil {
		t.Fatal("PhiSpan stopping at the anchor accepted a trailing byte")
	}
	if _, err := PhiSpanSlab(s, bad, phi, phi, nil, nil); err == nil {
		t.Fatal("PhiSpanSlab stopping at the anchor accepted a trailing byte")
	}
}
