package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// splitSchemas are schemas on both sides of the split-ordinal form
// (relation.Schema.Split), beyond flat8 and wide38, each with the number
// of leading attributes its seed block clusters (clusteredBlock):
//
//   - three attributes of 2^40 values, not flat, whose suffix is the last
//     attribute alone;
//   - seventy attributes of 2 values, not flat, whose suffix is 63
//     one-byte fields, so a frame that stays in the suffix can still be
//     wider than 16 bytes;
//   - twenty attributes of 4 values, flat, with 20-byte rows.
func splitSchemas() []struct {
	s     *relation.Schema
	attrs int
} {
	doms := func(n int, size uint64) *relation.Schema {
		d := make([]relation.Domain, n)
		for i := range d {
			d[i] = relation.Domain{Name: fmt.Sprintf("a%d", i), Size: size}
		}
		return relation.MustSchema(d...)
	}
	return []struct {
		s     *relation.Schema
		attrs int
	}{{doms(3, 1<<40), 2}, {doms(70, 2), 10}, {doms(20, 4), 5}}
}

// clusteredBlock is a sorted block of n random tuples whose first attrs
// attributes step through at most four values along the block, so that
// most adjacent differences start past them and a few reach into them.
func clusteredBlock(s *relation.Schema, rng *rand.Rand, n, attrs int) []relation.Tuple {
	block := randomSortedBlock(s, rng, n)
	for j, tu := range block {
		for i := range attrs {
			tu[i] = min(uint64(4*j/n), s.Domain(i).Size-1)
		}
	}
	s.SortTuples(block)
	return block
}

// TestWalkCarriesAcrossSplit holds the split-ordinal walk to the reference
// decoder on hand-made sorted blocks of a schema whose prefix is two
// attributes (3 and 1000 values) and whose suffix is two more (2^33 and
// 2^31-1 values, a suffix space of about 2^64): suffix ordinals that wrap
// into the prefix before and after the anchor, a carry that ripples
// across both prefix digits, differences that start in the prefix with
// and without a suffix carry, and runs of equal tuples, under anchors at
// 0, at the median and at count-1, for both difference codecs; and a
// suffix whose weights include 1 below its last attribute. Moving the
// anchor to a tuple the chain cannot reach from pushes the walk out of the
// space in either direction, which every shape must reject as the
// reference does.
func TestWalkCarriesAcrossSplit(t *testing.T) {
	const C, D = 1 << 33, 1<<31 - 1
	s := relation.MustSchema(
		relation.Domain{Name: "a", Size: 3},
		relation.Domain{Name: "b", Size: 1000},
		relation.Domain{Name: "c", Size: C},
		relation.Domain{Name: "d", Size: D},
	)
	if at, _, _ := s.Split(); at != 2 {
		t.Fatalf("split at %d, want 2", at)
	}
	blocks := [][]relation.Tuple{{
		{0, 0, 0, 0},
		{0, 5, C - 1, D - 1},
		{0, 6, 0, 0}, // +1: the suffix wraps into b
		{0, 6, 0, 0}, // equal tuples
		{0, 6, 0, 0},
		{0, 9, 5, 7},         // starts in b, no suffix carry
		{1, 0, 3, 2},         // starts in b with a suffix carry (the median)
		{1, 5, C - 1, D - 1}, //
		{1, 6, 0, 0},         // +1 after the anchor: wraps into b
		{1, 6, 0, 1},         // suffix only
		{2, 999, C - 1, D - 1},
		{2, 999, C - 1, D - 1}, // equal at the top of the space
	}, {
		{0, 999, C - 1, D - 1},
		{1, 0, 0, 0}, // +1: the carry ripples through b into a
		{1, 0, 0, 0},
		{1, 999, C - 1, D - 1},
		{2, 0, 0, 0},
	}}
	top := relation.Tuple{2, 999, C - 1, D - 1}
	// A radix-1 attribute in the suffix gives its neighbour a weight of 1.
	ones := relation.MustSchema(
		relation.Domain{Name: "a", Size: 1 << 40},
		relation.Domain{Name: "b", Size: 1 << 40},
		relation.Domain{Name: "c", Size: 5},
		relation.Domain{Name: "d", Size: 1},
	)
	for _, c := range Codecs() {
		block := randomSortedBlock(ones, rand.New(rand.NewSource(62)), 40)
		enc, err := EncodeBlock(c, ones, block, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeBlockArena(ones, enc, nil); err != nil || !sameTuples(ones, got, block) {
			t.Fatalf("radix-1 suffix, %v: %v, %v", c, got, err)
		}
		checkShapesAgainstReference(t, ones, enc)
	}
	for bi, block := range blocks {
		for _, c := range []Codec{CodecAVQ, CodecPacked} {
			for _, idx := range []int{0, len(block) / 2, len(block) - 1} {
				enc := reanchor(t, c, s, block, idx, block[idx])
				got, err := DecodeBlockArena(s, enc, nil)
				if err != nil || !sameTuples(s, got, block) {
					t.Fatalf("block %d %v anchor %d: %v, %v", bi, c, idx, got, err)
				}
				checkShapesAgainstReference(t, s, enc)
			}
			// Anchors the chain leaves the space from: the top tuple at
			// 0 (the walk carries out of a) and the zero tuple at the end
			// (it borrows out of a).
			for _, bad := range [][]byte{
				reanchor(t, c, s, block, 0, top),
				reanchor(t, c, s, block, len(block)-1, relation.Tuple{0, 0, 0, 0}),
			} {
				if _, err := refDecode(s, bad); err == nil {
					t.Fatalf("block %d %v: the reference accepts a stream that leaves the space", bi, c)
				}
				checkShapesAgainstReference(t, s, bad)
			}
		}
	}
}
