package core

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// ErrTupleTooLarge reports a block capacity that cannot hold even a
// one-tuple block.
var ErrTupleTooLarge = errors.New("core: a single tuple does not fit in a block")

// uvarintLen returns the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// headerSize returns the size of the block framing for a block of u tuples:
// magic, codec byte, tuple-count uvarint, and trailing CRC-32.
func headerSize(u int) int {
	return 2 + uvarintLen(uint64(u)) + crcSize
}

// Sizer computes exact block sizes without encoding. Every codec's size is
// additive over adjacent pairs: the anchor tuple is a fixed cost and each
// further tuple adds a cost that depends only on the tuple and its
// predecessor, never on the block boundary. EncodedSize and the one packer,
// Chunk, both run on it.
//
// A Sizer holds scratch space and is not safe for concurrent use; each
// goroutine must create its own.
type Sizer struct {
	c       Codec
	s       *relation.Schema
	m       int
	diff    relation.Tuple
	lzWidth uint  // CodecPacked: width of the leading-zero count field
	suffix  []int // CodecPacked: per-attribute packed suffix bit sums
}

// NewSizer returns a Sizer for a valid codec c.
func NewSizer(c Codec, s *relation.Schema) *Sizer {
	z := &Sizer{c: c, s: s, m: s.RowSize(), diff: make(relation.Tuple, s.NumAttrs())}
	if c == CodecPacked {
		_, z.suffix = s.BitWidths()
		z.lzWidth = bitio.BitsFor(uint64(s.NumAttrs()) + 1)
	}
	return z
}

// PairCost returns the incremental cost of appending cur after prev inside
// a block. The unit is bytes for the byte-granular codecs and bits for
// CodecPacked; BlockSize interprets the accumulated value accordingly.
func (z *Sizer) PairCost(prev, cur relation.Tuple) (int, error) {
	if z.c == CodecRaw {
		return 0, nil
	}
	if _, err := ordinal.Sub(z.s, z.diff, cur, prev); err != nil {
		return 0, fmt.Errorf("core: pair cost: block not phi-sorted: %w", err)
	}
	return z.cost(z.diff), nil
}

// cost is the coded size of one stored difference d of a difference codec:
// bits for CodecPacked, bytes for CodecAVQ.
func (z *Sizer) cost(d relation.Tuple) int {
	if z.c == CodecPacked {
		return packedDiffBits(d, z.lzWidth, z.suffix)
	}
	return diffSize(z.s, d)
}

// PairCosts sets costs[i] = PairCost(tuples[i-1], tuples[i]) for every i
// in [1, len(tuples)), leaving costs[0] alone, so that workers can fill
// disjoint windows of one slice.
func (z *Sizer) PairCosts(tuples []relation.Tuple, costs []int) error {
	for i := 1; i < len(tuples); i++ {
		cost, err := z.PairCost(tuples[i-1], tuples[i])
		if err != nil {
			return err
		}
		costs[i] = cost
	}
	return nil
}

// BlockSize returns the exact encoded size in bytes of a block of u tuples
// whose accumulated PairCosts sum to acc.
func (z *Sizer) BlockSize(u, acc int) int {
	switch {
	case u == 0:
		return headerSize(0)
	case z.c == CodecRaw:
		return headerSize(u) + u*z.m
	case z.c == CodecAVQ:
		return headerSize(u) + uvarintLen(uint64(u/2)) + z.m + acc
	default: // CodecPacked
		return headerSize(u) + uvarintLen(uint64(u/2)) + z.m + (acc+7)/8
	}
}

// Chunk is the repository's one packing rule (Section 3.4: "the number of
// tuples allocated to a block before coding must be suitably fixed so as to
// minimize this space"): it cuts φ-sorted tuples greedily into maximal runs
// whose coded streams fit capacity bytes, and returns each run's exact
// EncodeBlock size beside it. costs[i] must be PairCost(tuples[i-1],
// tuples[i]) (see PairCosts); costs[0] is unused. No tuples, no runs.
func (z *Sizer) Chunk(tuples []relation.Tuple, costs []int, capacity int) (runs [][]relation.Tuple, sizes []int, err error) {
	if len(tuples) == 0 {
		return nil, nil, nil
	}
	if z.BlockSize(1, 0) > capacity {
		return nil, nil, ErrTupleTooLarge
	}
	start, acc := 0, 0
	for i := 1; i < len(tuples); i++ {
		if z.BlockSize(i-start+1, acc+costs[i]) <= capacity {
			acc += costs[i]
			continue
		}
		runs = append(runs, tuples[start:i])
		sizes = append(sizes, z.BlockSize(i-start, acc))
		start, acc = i, 0
	}
	runs = append(runs, tuples[start:])
	sizes = append(sizes, z.BlockSize(len(tuples)-start, acc))
	return runs, sizes, nil
}

// Pack is Chunk for callers without a worker pool: it computes the pair
// costs serially.
func Pack(c Codec, s *relation.Schema, tuples []relation.Tuple, capacity int) ([][]relation.Tuple, []int, error) {
	if !c.Valid() {
		return nil, nil, fmt.Errorf("%w: %d", ErrBadCodec, uint8(c))
	}
	z := NewSizer(c, s)
	costs := make([]int, len(tuples))
	if err := z.PairCosts(tuples, costs); err != nil {
		return nil, nil, err
	}
	return z.Chunk(tuples, costs, capacity)
}

// EncodedSize returns the exact byte size EncodeBlock would produce for the
// given phi-sorted run of tuples, without allocating the stream.
func EncodedSize(c Codec, s *relation.Schema, tuples []relation.Tuple) (int, error) {
	if !c.Valid() {
		return 0, fmt.Errorf("%w: %d", ErrBadCodec, uint8(c))
	}
	z := NewSizer(c, s)
	acc := 0
	for i := 1; i < len(tuples); i++ {
		cost, err := z.PairCost(tuples[i-1], tuples[i])
		if err != nil {
			return 0, err
		}
		acc += cost
	}
	return z.BlockSize(len(tuples), acc), nil
}
