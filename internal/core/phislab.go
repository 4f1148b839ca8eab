package core

import (
	"fmt"

	"repro/internal/relation"
)

// Columnar slab decode: the batch executor's per-block kernel. Where
// PhiSpan walks a block's difference chain to locate one qualifying run,
// DecodeBlockPhis materializes the whole chain as a flat-ordinal slab —
// count uint64 φ values carved from the caller's arena — so downstream
// kernels (merge joins, group-by, aggregation) consume raw ordinals with
// tight per-block loops and never build a relation.Tuple for rows that
// don't reach the result. Attribute values are recovered from φ digits
// with the cached FlatWeights divisor chain (PhiDigit), never full φ⁻¹.

// PhiDigit extracts attribute digit g from a flat ordinal given the
// attribute's positional weight and radix: digit_g(φ) = (φ / w_g) mod u_g.
// For attribute 0 the mod is redundant (φ/w_0 < u_0 on any in-space φ);
// hot kernels special-case it.
func PhiDigit(phi, weight, radix uint64) uint64 { return phi / weight % radix }

// DigitExtractor is PhiDigit with the division strength-reduced at plan
// time: when both the weight and the radix are powers of two — the
// common case for the generated evaluation schemas — the two hardware
// divides become a shift and a mask. Batch kernels sit in per-row loops,
// so the divide latency is the difference between the φ fold and the
// tuple path it replaces.
type DigitExtractor struct {
	weight, radix uint64
	shift         uint64
	mask          uint64
	pow2          bool
}

// NewDigitExtractor builds the extractor for one attribute's weight and
// radix (Schema.FlatWeights and Domain.Size).
func NewDigitExtractor(weight, radix uint64) DigitExtractor {
	d := DigitExtractor{weight: weight, radix: radix}
	if weight > 0 && radix > 0 && weight&(weight-1) == 0 && radix&(radix-1) == 0 {
		d.pow2 = true
		for w := weight; w > 1; w >>= 1 {
			d.shift++
		}
		d.mask = radix - 1
	}
	return d
}

// Digit extracts the attribute's value from φ.
func (d DigitExtractor) Digit(phi uint64) uint64 {
	if d.pow2 {
		return phi >> d.shift & d.mask
	}
	return phi / d.weight % d.radix
}

// DecodeBlockPhis decodes a coded block into its φ sequence: one uint64
// flat ordinal per tuple, in block (clustered) order, carved from the
// caller's arena. It requires a flat schema (Schema.FlatSpace ok) and a
// checksummed block, and serves all five codecs through the one φ-space
// walk (layout.walkPhis).
//
// The returned slab aliases the arena and is valid until its next Reset;
// callers may overwrite entries in place (the batch executor compacts
// qualifying rows forward). With a pooled, Reset arena the decode is
// allocation-free steady-state, like the tuple kernels.
func DecodeBlockPhis(s *relation.Schema, buf []byte, a *Arena) ([]uint64, error) {
	space, ok := s.FlatSpace()
	if !ok {
		return nil, fmt.Errorf("core: DecodeBlockPhis needs a schema space within 64 bits")
	}
	l, a, err := openBlock(s, buf, a)
	if err != nil {
		return nil, err
	}
	out := a.Phis(l.count)
	if l.count == 0 {
		return out, nil
	}
	if err := l.walkPhis(space, out, nil, a); err != nil {
		return nil, err
	}
	return out, nil
}

// PhiSpanSorted clips a nondecreasing φ slab to the positions whose value
// lies in [loPhi, hiPhi]: from is the first position with φ >= loPhi, to
// the first with φ > hiPhi. Two binary searches, no decoding.
func PhiSpanSorted(phis []uint64, loPhi, hiPhi uint64) (from, to int) {
	lo, hi := 0, len(phis)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if phis[mid] >= loPhi {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	from = lo
	lo, hi = from, len(phis)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if phis[mid] > hiPhi {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return from, lo
}
