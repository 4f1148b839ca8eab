package core

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

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

// EncodedSize returns the exact byte size EncodeBlock would produce for the
// given run of tuples, without allocating the stream. The tuples must be
// phi-sorted for the difference codecs.
func EncodedSize(c Codec, s *relation.Schema, tuples []relation.Tuple) (int, error) {
	if !c.Valid() {
		return 0, fmt.Errorf("%w: %d", ErrBadCodec, uint8(c))
	}
	u := len(tuples)
	m := s.RowSize()
	size := headerSize(u)
	if u == 0 {
		return size, nil
	}
	diff := make(relation.Tuple, s.NumAttrs())
	switch c {
	case CodecRaw:
		size += u * m
	case CodecAVQ, CodecDeltaChain:
		// Chained differences are adjacent-pair deltas regardless of where
		// the anchor sits, so the payload is the anchor tuple plus the u-1
		// adjacent diffs; AVQ additionally stores the representative index.
		if c == CodecAVQ {
			size += uvarintLen(uint64(u / 2))
		}
		size += m
		for i := 1; i < u; i++ {
			if _, err := ordinal.Sub(s, diff, tuples[i], tuples[i-1]); err != nil {
				return 0, fmt.Errorf("core: size of tuple %d: block not phi-sorted: %w", i, err)
			}
			size += diffSize(s, diff)
		}
	case CodecRepOnly:
		mid := u / 2
		rep := tuples[mid]
		size += uvarintLen(uint64(mid)) + m
		for i, t := range tuples {
			if i == mid {
				continue
			}
			var err error
			if i < mid {
				_, err = ordinal.Sub(s, diff, rep, t)
			} else {
				_, err = ordinal.Sub(s, diff, t, rep)
			}
			if err != nil {
				return 0, fmt.Errorf("core: size of tuple %d: block not phi-sorted: %w", i, err)
			}
			size += diffSize(s, diff)
		}
	case CodecPacked:
		size += uvarintLen(uint64(u/2)) + m
		_, suffix := s.BitWidths()
		lzWidth := bitio.BitsFor(uint64(s.NumAttrs()) + 1)
		bits := 0
		for i := 1; i < u; i++ {
			if _, err := ordinal.Sub(s, diff, tuples[i], tuples[i-1]); err != nil {
				return 0, fmt.Errorf("core: size of tuple %d: block not phi-sorted: %w", i, err)
			}
			bits += packedDiffBits(diff, lzWidth, suffix)
		}
		size += (bits + 7) / 8
	}
	return size, nil
}

// Sizer computes block sizes incrementally for the codecs whose encoded
// size is a prefix sum over adjacent-pair differences: the anchor tuple is
// a fixed cost and each further tuple adds a cost that depends only on the
// tuple and its predecessor, never on the block boundary. MaxFit's
// additive branches and the block store's parallel chunker both run on a
// Sizer, so the two always agree on block boundaries by construction.
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

// NewSizer returns a Sizer for the codec, or ok=false when the codec's
// size is not additive over adjacent pairs (CodecRepOnly, whose median
// representative moves as the block grows, and invalid codecs).
func NewSizer(c Codec, s *relation.Schema) (*Sizer, bool) {
	switch c {
	case CodecRaw, CodecAVQ, CodecDeltaChain:
		return &Sizer{c: c, s: s, m: s.RowSize(), diff: make(relation.Tuple, s.NumAttrs())}, true
	case CodecPacked:
		_, suffix := s.BitWidths()
		return &Sizer{
			c: c, s: s, m: s.RowSize(),
			diff:    make(relation.Tuple, s.NumAttrs()),
			lzWidth: bitio.BitsFor(uint64(s.NumAttrs()) + 1),
			suffix:  suffix,
		}, true
	default:
		return nil, false
	}
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
	if z.c == CodecPacked {
		return packedDiffBits(z.diff, z.lzWidth, z.suffix), nil
	}
	return diffSize(z.s, z.diff), nil
}

// BlockSize returns the exact encoded size in bytes of a block of u >= 1
// tuples whose accumulated PairCosts sum to acc. It matches EncodedSize.
func (z *Sizer) BlockSize(u, acc int) int {
	switch z.c {
	case CodecRaw:
		return headerSize(u) + u*z.m
	case CodecAVQ:
		return headerSize(u) + uvarintLen(uint64(u/2)) + z.m + acc
	case CodecDeltaChain:
		return headerSize(u) + z.m + acc
	default: // CodecPacked
		return headerSize(u) + uvarintLen(uint64(u/2)) + z.m + (acc+7)/8
	}
}

// MaxFit returns the largest u such that the first u tuples encode into at
// most capacity bytes (Section 3.4: "the number of tuples allocated to a
// block before coding must be suitably fixed so as to minimize this
// space"). It returns 0 when not even a single tuple fits.
//
// For the chained codecs the stream size is an exact prefix sum over
// adjacent differences, so the search is a single O(u) accumulation on a
// Sizer. For CodecRepOnly the representative moves as the block grows, so
// MaxFit brackets geometrically and then binary-searches, verifying the
// final candidate with an exact size computation.
func MaxFit(c Codec, s *relation.Schema, tuples []relation.Tuple, capacity int) (int, error) {
	if !c.Valid() {
		return 0, fmt.Errorf("%w: %d", ErrBadCodec, uint8(c))
	}
	n := len(tuples)
	if n == 0 {
		return 0, nil
	}
	z, ok := NewSizer(c, s)
	if !ok {
		return maxFitBracketed(c, s, tuples, capacity)
	}
	acc := 0
	best := 0
	for u := 1; u <= n; u++ {
		if u > 1 {
			cost, err := z.PairCost(tuples[u-2], tuples[u-1])
			if err != nil {
				return 0, fmt.Errorf("core: maxfit at tuple %d: %w", u-1, err)
			}
			acc += cost
		}
		if z.BlockSize(u, acc) <= capacity {
			best = u
		} else {
			break
		}
	}
	return best, nil
}

// maxFitBracketed finds the fit point for codecs whose size is not a strict
// prefix sum. Sizes are only approximately monotone in u (the median shifts
// as the block grows), so after the bracketed binary search the candidate
// is verified exactly and decremented until it fits.
func maxFitBracketed(c Codec, s *relation.Schema, tuples []relation.Tuple, capacity int) (int, error) {
	n := len(tuples)
	fits := func(u int) (bool, error) {
		size, err := EncodedSize(c, s, tuples[:u])
		if err != nil {
			return false, err
		}
		return size <= capacity, nil
	}
	if ok, err := fits(1); err != nil || !ok {
		return 0, err
	}
	// Gallop to bracket the crossover.
	lo, hi := 1, 2
	for hi <= n {
		ok, err := fits(hi)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		lo = hi
		hi *= 2
	}
	if hi > n {
		hi = n
		if ok, err := fits(hi); err != nil {
			return 0, err
		} else if ok {
			return hi, nil
		}
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		ok, err := fits(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	// lo fits per the search; re-verify against non-monotonicity.
	for lo > 0 {
		ok, err := fits(lo)
		if err != nil {
			return 0, err
		}
		if ok {
			return lo, nil
		}
		lo--
	}
	return 0, nil
}
