package core

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// TestPackedBeatsAVQOnNonPowerRadices: when domain sizes waste bits in
// whole-byte digits, the packed codec must produce smaller streams.
func TestPackedBeatsAVQOnNonPowerRadices(t *testing.T) {
	// Domains of size 10: 4 bits per digit packed vs 8 bits byte-aligned.
	doms := make([]relation.Domain, 12)
	for i := range doms {
		doms[i] = relation.Domain{Name: string(rune('a' + i)), Size: 10}
	}
	s := relation.MustSchema(doms...)
	rng := rand.New(rand.NewSource(1))
	block := randomSortedBlock(s, rng, 400)
	avq, err := EncodedSize(CodecAVQ, s, block)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := EncodedSize(CodecPacked, s, block)
	if err != nil {
		t.Fatal(err)
	}
	if packed >= avq {
		t.Fatalf("packed %d bytes >= byte-aligned AVQ %d bytes on 10-ary domains", packed, avq)
	}
	t.Logf("avq=%d packed=%d (%.1f%% smaller)", avq, packed, 100*(1-float64(packed)/float64(avq)))
}

// TestPackedNoWorseThanHalfOnPowerRadices: on exact power-of-two radices
// that fill whole bytes (size 256), packing saves nothing on digits; the
// stream must stay comparable to AVQ (it can still win slightly on the
// leading-zero field).
func TestPackedOnByteExactRadices(t *testing.T) {
	doms := make([]relation.Domain, 8)
	for i := range doms {
		doms[i] = relation.Domain{Name: string(rune('a' + i)), Size: 256}
	}
	s := relation.MustSchema(doms...)
	rng := rand.New(rand.NewSource(2))
	block := randomSortedBlock(s, rng, 300)
	avq, err := EncodedSize(CodecAVQ, s, block)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := EncodedSize(CodecPacked, s, block)
	if err != nil {
		t.Fatal(err)
	}
	// Within 5% either way: the formats differ only in framing details.
	ratio := float64(packed) / float64(avq)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("packed/avq = %.3f on byte-exact radices (%d vs %d)", ratio, packed, avq)
	}
}

func TestPackedDetectsCorruption(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(3))
	block := randomSortedBlock(s, rng, 60)
	enc, err := EncodeBlock(CodecPacked, s, block, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		bad := append([]byte(nil), enc...)
		bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
		if _, err := DecodeBlockArena(s, bad, nil); err == nil {
			// The checksum catches every flip; only an unchanged stream
			// decodes.
			same := true
			for i := range bad {
				if bad[i] != enc[i] {
					same = false
					break
				}
			}
			if !same {
				t.Fatal("corrupted packed block decoded without error")
			}
		}
	}
}

// TestPackedMaxFitMatchesEncodedSize: the packer's bit-granular sizes
// round to the packed stream's bytes exactly, run after run.
func TestPackedMaxFitMatchesEncodedSize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 30; iter++ {
		s := randomSchema(rng)
		block := randomSortedBlock(s, rng, 150)
		checkMaxFit(t, CodecPacked, s, block, 400+rng.Intn(2000))
	}
}
