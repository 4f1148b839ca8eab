package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/ordinal"
	"repro/internal/relation"
)

// Columnar slab decode: the batch executor's per-block kernel. Where
// PhiSpan walks a block's difference chain to locate one qualifying run,
// DecodeBlockPhis materializes the whole chain as a flat-ordinal slab —
// count uint64 φ values carved from the caller's arena — so downstream
// kernels (merge joins, group-by, aggregation) consume raw ordinals with
// tight per-block loops and never build a relation.Tuple for rows that
// don't reach the result. Attribute values are recovered from φ digits
// with a DigitExtractor over the cached FlatWeights, never full φ⁻¹.

// DigitExtractor extracts one attribute's digit from a flat ordinal,
// digit_g(φ) = (φ / w_g) mod u_g for the attribute's positional weight w_g
// and radix u_g, without a hardware divide. When the weight and the radix
// are powers of two — the common case for the generated evaluation
// schemas — the digit is a shift and a mask. Otherwise it is read off a
// precomputed reciprocal of W = w_g·u_g, the weight of the attribute above
// (Lemire, Kaser and Kurz's direct remainder computation): the low 128
// bits of c·φ, with c = ⌈2¹²⁸/W⌉, are φ's fraction of W, and the digit is
// the integer part of that fraction times u_g — three multiply-highs and a
// multiply. Batch kernels sit in per-row loops, where two dependent
// hardware divides would cost more than the rest of the row.
type DigitExtractor struct {
	cHi, cLo uint64 // c = ⌈2¹²⁸ / (weight·radix)⌉ mod 2¹²⁸
	radix    uint64
	shift    uint8
	pow2     bool
}

// NewDigitExtractor builds the extractor for one attribute's weight and
// radix (Schema.FlatWeights and Domain.Size), both nonzero, whose product
// fits 64 bits — true of every attribute of a flat schema, where it is the
// next attribute up's weight or ||R||.
func NewDigitExtractor(weight, radix uint64) DigitExtractor {
	d := DigitExtractor{radix: radix}
	if weight&(weight-1) == 0 && radix&(radix-1) == 0 {
		d.pow2, d.shift = true, uint8(bits.TrailingZeros64(weight))
		return d
	}
	// ⌈2¹²⁸/W⌉ = ⌊(2¹²⁸-1)/W⌋ + 1, long-divided a word at a time.
	w := weight * radix
	qHi, rem := bits.Div64(0, math.MaxUint64, w)
	qLo, _ := bits.Div64(rem, math.MaxUint64, w)
	var carry uint64
	d.cLo, carry = bits.Add64(qLo, 1, 0)
	d.cHi = qHi + carry
	return d
}

// Digit extracts the attribute's value from φ.
func (d *DigitExtractor) Digit(phi uint64) uint64 {
	if d.pow2 {
		return phi >> (d.shift & 63) & (d.radix - 1)
	}
	// f = c·φ mod 2¹²⁸ (fHi:fLo), then ⌊f·radix / 2¹²⁸⌋.
	fHi, fLo := bits.Mul64(d.cLo, phi)
	fHi += d.cHi * phi
	hi, lo := bits.Mul64(fHi, d.radix)
	mid, _ := bits.Mul64(fLo, d.radix)
	_, carry := bits.Add64(lo, mid, 0)
	return hi + carry
}

// DecodeBlockPhis decodes a coded block into its φ sequence: one uint64
// flat ordinal per tuple, in block (clustered) order, carved from the
// caller's arena. It requires a flat schema (Schema.FlatSpace ok) and a
// checksummed block, and serves the difference codecs through the one
// walk (layout.walk at split 0, where the suffix ordinal is φ).
//
// Blocks are φ-clustered by construction and every consumer of the
// sequence binary-searches it, so a decreasing sequence — possible only in
// a raw layout, since a chain of nonnegative differences cannot decrease —
// is corruption, not data.
//
// The returned slab aliases the arena and is valid until its next Reset;
// callers may overwrite entries in place (the batch executor compacts
// qualifying rows forward). With a pooled, Reset arena the decode is
// allocation-free steady-state, like the tuple kernels.
func DecodeBlockPhis(s *relation.Schema, buf []byte, a *Arena) ([]uint64, error) {
	if _, ok := s.FlatSpace(); !ok {
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
	if l.rows == nil {
		err = l.walk(0, l.count, out, nil, nil, a)
	} else {
		err = l.rawPhis(out, a)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rawPhis fills out with the φ of each of a raw layout's rows.
func (l *layout) rawPhis(out []uint64, a *Arena) error {
	t := a.Tuple(l.s.NumAttrs())
	for i := range out {
		if err := l.rawRow(i, t); err != nil {
			return err
		}
		out[i] = ordinal.PhiU64(l.s, t)
		if i > 0 && out[i] < out[i-1] {
			return fmt.Errorf("%w: φ sequence decreases at position %d", ErrCorrupt, i)
		}
	}
	return nil
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
