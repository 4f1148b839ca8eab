package core

import (
	"sort"

	"repro/internal/ordinal"
	"repro/internal/relation"
)

// Slab is one decoded block, or the run of it a read keeps: its φ
// sequence on a flat schema (DecodeBlockPhis, PhiSpanSlab), its tuples
// otherwise (DecodeBlockArena, DecodeAttr0SpanArena). Exactly one field is
// set for a non-empty slab. It is the unit of every block read — the
// executor hands slabs to its kernels, a block edit reads its home block
// as one.
type Slab struct {
	Phis   []uint64
	Tuples []relation.Tuple
}

// DecodeBlockSlab decodes a block into a Slab carved from a (a fresh arena
// when a is nil): the φ slab on a flat schema, tuples otherwise. Either
// shape makes every check a full decode makes.
func DecodeBlockSlab(s *relation.Schema, buf []byte, a *Arena) (Slab, error) {
	if _, ok := s.FlatSpace(); ok {
		phis, err := DecodeBlockPhis(s, buf, a)
		return Slab{Phis: phis}, err
	}
	tuples, err := DecodeBlockArena(s, buf, a)
	return Slab{Tuples: tuples}, err
}

// Len returns the number of tuples in the slab.
func (sl Slab) Len() int { return len(sl.Phis) + len(sl.Tuples) }

// Search returns the number of entries <= t: the position an insert of t
// takes, after every stored duplicate of it.
func (sl Slab) Search(s *relation.Schema, t relation.Tuple) int {
	if sl.Tuples == nil {
		phi := ordinal.PhiU64(s, t)
		return sort.Search(len(sl.Phis), func(i int) bool { return sl.Phis[i] > phi })
	}
	return sort.Search(len(sl.Tuples), func(i int) bool { return s.Compare(sl.Tuples[i], t) > 0 })
}

// Find returns the position of t's first occurrence, or -1 when the slab
// does not hold it. A t outside the schema's space is never found: its φ
// could alias a stored tuple's.
func (sl Slab) Find(s *relation.Schema, t relation.Tuple) int {
	if s.ValidateTuple(t) != nil {
		return -1
	}
	if sl.Tuples == nil {
		phi := ordinal.PhiU64(s, t)
		i := sort.Search(len(sl.Phis), func(i int) bool { return sl.Phis[i] >= phi })
		if i < len(sl.Phis) && sl.Phis[i] == phi {
			return i
		}
		return -1
	}
	i := sort.Search(len(sl.Tuples), func(i int) bool { return s.Compare(sl.Tuples[i], t) >= 0 })
	if i < len(sl.Tuples) && s.Compare(sl.Tuples[i], t) == 0 {
		return i
	}
	return -1
}

// At returns entry i as a tuple the caller owns.
func (sl Slab) At(s *relation.Schema, i int) relation.Tuple {
	return sl.AppendRows(nil, NewDigits(s), i, i+1)[0]
}

// Materialize returns the slab's tuples: its own on a tuple slab, φ⁻¹ of
// every entry carved from a on a φ slab. A block edit never needs them; a
// split and a per-tuple index do.
func (sl Slab) Materialize(s *relation.Schema, a *Arena) []relation.Tuple {
	if sl.Tuples != nil || len(sl.Phis) == 0 {
		return sl.Tuples
	}
	out, d := a.Tuples(len(sl.Phis), s.NumAttrs()), NewDigits(s)
	for i, phi := range sl.Phis {
		d.Tuple(out[i], phi)
	}
	return out
}

// AppendRows appends entries [from, to) to dst as tuples the caller owns,
// all carved from one allocation: a tuple slab's rows copied, a φ slab's
// digits extracted by d (the schema's NewDigits).
func (sl Slab) AppendRows(dst []relation.Tuple, d Digits, from, to int) []relation.Tuple {
	if from >= to {
		return dst
	}
	k := len(d)
	if sl.Tuples != nil {
		k = len(sl.Tuples[from])
	}
	vals := make([]uint64, (to-from)*k)
	for i := from; i < to; i++ {
		tu := relation.Tuple(vals[:k:k])
		vals = vals[k:]
		if sl.Tuples != nil {
			copy(tu, sl.Tuples[i])
		} else {
			d.Tuple(tu, sl.Phis[i])
		}
		dst = append(dst, tu)
	}
	return dst
}

// tuple returns entry i: the slab's own tuple, or its φ's digits written
// into dst.
func (sl Slab) tuple(s *relation.Schema, i int, dst relation.Tuple) relation.Tuple {
	if sl.Tuples != nil {
		return sl.Tuples[i]
	}
	NewDigits(s).Tuple(dst, sl.Phis[i])
	return dst
}

// Digits is φ⁻¹ on a flat schema: one DigitExtractor per attribute, so a
// tuple is its ordinal's digits, each read without a hardware divide. It
// is the one routine that turns a φ into a tuple.
type Digits []DigitExtractor

// NewDigits returns the schema's extractors, or nil when its space exceeds
// 64 bits (a φ slab never occurs there).
func NewDigits(s *relation.Schema) Digits {
	w, ok := s.FlatWeights()
	if !ok {
		return nil
	}
	d := make(Digits, len(w))
	for g := range d {
		d[g] = NewDigitExtractor(w[g], s.Domain(g).Size)
	}
	return d
}

// Tuple writes the digits of phi, an ordinal below ||R||, into dst.
func (d Digits) Tuple(dst relation.Tuple, phi uint64) {
	for g := range d {
		dst[g] = d[g].Digit(phi)
	}
}
