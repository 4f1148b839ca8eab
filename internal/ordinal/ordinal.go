// Package ordinal implements the paper's ordinal mapping phi (Eq. 2.2), its
// inverse (Eq. 2.3-2.5), and exact mixed-radix arithmetic on tuples.
//
// phi maps a tuple to its position in the totally ordered cross-product
// space of the schema's domains:
//
//	phi(a1, ..., an) = sum_i ( a_i * prod_{j>i} |A_j| )
//
// For realistic schemas phi overflows uint64 (15 attributes of size 64
// already need 90 bits), so this package performs all per-tuple arithmetic
// digit-wise in the mixed-radix system whose radices are the domain sizes:
// subtraction with borrow, addition with carry, comparison by digits. The
// big.Int forms of phi are provided for callers that need true ordinals
// (e.g. the phi-inverse bijection tests) and as an independent cross-check
// of the digit arithmetic.
package ordinal

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/relation"
)

// ErrUnderflow is returned by Sub when the minuend is smaller than the
// subtrahend; AVQ only ever subtracts a lexicographically smaller tuple
// from a larger one, so underflow indicates caller error or corrupt data.
var ErrUnderflow = errors.New("ordinal: subtraction underflow")

// ErrOverflow is returned by Add when the sum leaves the schema space;
// during decoding this indicates a corrupt difference stream.
var ErrOverflow = errors.New("ordinal: addition overflow")

// Phi returns phi(t) as an arbitrary-precision integer. The tuple must be
// valid for the schema.
func Phi(s *relation.Schema, t relation.Tuple) *big.Int {
	e := new(big.Int)
	var tmp big.Int
	for i := 0; i < s.NumAttrs(); i++ {
		tmp.SetUint64(s.Domain(i).Size)
		e.Mul(e, &tmp)
		tmp.SetUint64(t[i])
		e.Add(e, &tmp)
	}
	return e
}

// PhiInverse maps an ordinal back to its tuple (Eq. 2.3-2.5). It returns an
// error if e is negative or >= ||R||.
func PhiInverse(s *relation.Schema, e *big.Int) (relation.Tuple, error) {
	if e.Sign() < 0 {
		return nil, fmt.Errorf("ordinal: phi-inverse of negative ordinal %s", e)
	}
	rem := new(big.Int).Set(e)
	t := make(relation.Tuple, s.NumAttrs())
	var radix, digit big.Int
	for i := s.NumAttrs() - 1; i >= 0; i-- {
		radix.SetUint64(s.Domain(i).Size)
		rem.QuoRem(rem, &radix, &digit)
		t[i] = digit.Uint64()
	}
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("ordinal: ordinal %s outside schema space ||R||=%s", e, s.SpaceSize())
	}
	return t, nil
}

// Sub computes the digit vector of phi(a) - phi(b), writing the result into
// dst (which must have the schema's arity, and may alias a or b) and
// returning it. It requires a >= b in phi order and performs schoolbook
// subtraction with borrow in the schema's mixed radix. The result is
// itself a valid tuple of the schema: every difference of two ordinals
// below ||R|| is below ||R||.
//
// This is the difference measure d(t_i, t_j) of Eq. 2.6 for t_j <= t_i.
func Sub(s *relation.Schema, dst, a, b relation.Tuple) (relation.Tuple, error) {
	rad := s.Radices()
	var borrow uint64
	for i := len(rad) - 1; i >= 0; i-- {
		ai, bi := a[i], b[i]+borrow
		if bi < borrow {
			// b[i] + borrow overflowed uint64: only possible if
			// b[i] == MaxUint64, which ValidateTuple rules out, but
			// guard anyway for corrupt inputs.
			return nil, ErrUnderflow
		}
		if ai >= bi {
			dst[i], borrow = ai-bi, 0
		} else {
			dst[i], borrow = ai+rad[i]-bi, 1
		}
	}
	if borrow != 0 {
		return nil, ErrUnderflow
	}
	return dst, nil
}

// Add computes the digit vector of phi(a) + phi(d), writing into dst (which
// may alias a or d) and returning it. It performs addition with carry in
// the schema's mixed radix and returns ErrOverflow if the sum is >= ||R||
// or any digit math would overflow uint64.
func Add(s *relation.Schema, dst, a, d relation.Tuple) (relation.Tuple, error) {
	rad := s.Radices()
	var carry uint64
	for i := len(rad) - 1; i >= 0; i-- {
		sum := a[i] + d[i]
		if sum < a[i] {
			return nil, ErrOverflow
		}
		sum += carry
		if sum < carry {
			return nil, ErrOverflow
		}
		if sum >= rad[i] {
			// a and d were individually < radix and carry <= 1, so
			// sum < 2*radix always holds for valid inputs; reaching
			// the check means the inputs were not valid tuples.
			if sum -= rad[i]; sum >= rad[i] {
				return nil, ErrOverflow
			}
			dst[i], carry = sum, 1
		} else {
			dst[i], carry = sum, 0
		}
	}
	if carry != 0 {
		return nil, ErrOverflow
	}
	return dst, nil
}

// Diff computes |phi(a) - phi(b)| as a digit vector into dst, matching
// Eq. 2.6's symmetric difference. It returns the digits and the sign:
// +1 if a > b, -1 if a < b, 0 if equal (dst is all zeros).
func Diff(s *relation.Schema, dst, a, b relation.Tuple) (relation.Tuple, int, error) {
	switch s.Compare(a, b) {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
		return dst, 0, nil
	case 1:
		d, err := Sub(s, dst, a, b)
		return d, 1, err
	default:
		d, err := Sub(s, dst, b, a)
		return d, -1, err
	}
}

// Succ writes the successor of t in phi order into dst (i.e. t + 1). It
// returns ErrOverflow if t is the maximal tuple of the space. It is used by
// range scans to form half-open bounds.
func Succ(s *relation.Schema, dst, t relation.Tuple) (relation.Tuple, error) {
	copy(dst, t)
	for i := s.NumAttrs() - 1; i >= 0; i-- {
		if dst[i]+1 < s.Domain(i).Size {
			dst[i]++
			return dst, nil
		}
		dst[i] = 0
	}
	return nil, ErrOverflow
}

// IsZero reports whether every digit of t is zero, i.e. phi(t) == 0.
func IsZero(t relation.Tuple) bool {
	for _, v := range t {
		if v != 0 {
			return false
		}
	}
	return true
}
