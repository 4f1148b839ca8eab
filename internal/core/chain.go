package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ordinal"
	"repro/internal/relation"
)

// layout is a parsed block payload. Every codec's block is the same
// structure — an anchor tuple at a known position plus count-1
// run-length-coded differences (Sections 3.2-3.4) — so one parse describes
// them all and the two walks below serve every decode shape:
//
//	CodecAVQ, CodecPacked  anchor = representative index from the stream
//	CodecRaw               no chain: count fixed-width rows (rows != nil)
//
// The differences are adjacent-pair deltas: position i < anchor stores
// t[i+1]-t[i] and position i > anchor stores t[i]-t[i-1], so a tuple is
// reached by walking from the anchor toward it. The encoder writes the
// median, but any anchor below count is a valid stream.
type layout struct {
	s      *relation.Schema
	count  int
	rows   []byte // CodecRaw payload; nil for the difference codecs
	anchor int
	rep    relation.Tuple // the anchor tuple, carved from the arena
	diffs  diffReader     // positioned on the first stored difference
}

// openBlock verifies a block stream's framing and checksum — once per
// exported entry point; it is the corruption detector — and parses the
// payload's layout. A nil arena is replaced by a fresh one.
func openBlock(s *relation.Schema, buf []byte, a *Arena) (layout, *Arena, error) {
	body, count, c, err := checkHeader(buf)
	if err != nil {
		return layout{}, nil, err
	}
	if a == nil {
		a = NewArena()
	}
	l := layout{s: s, count: count}
	m := s.RowSize()
	switch {
	case count == 0:
		if len(body) != 0 {
			return l, nil, fmt.Errorf("%w: %d trailing bytes in empty block", ErrCorrupt, len(body))
		}
		return l, a, nil
	case c == CodecRaw:
		if len(body) != count*m {
			return l, nil, fmt.Errorf("%w: raw payload is %d bytes, want %d", ErrCorrupt, len(body), count*m)
		}
		l.rows = body
		return l, a, nil
	}
	anchor, pos, err := readAnchorIndex(body, count)
	if err != nil {
		return l, nil, err
	}
	if pos+m > len(body) {
		return l, nil, ErrTruncated
	}
	l.anchor, l.rep = anchor, a.Tuple(s.NumAttrs())
	if err := decodeRow(s, l.rep, body[pos:pos+m]); err != nil {
		return l, nil, err
	}
	l.diffs = newDiffReader(s, c == CodecPacked, body, pos+m, count-1)
	return l, a, nil
}

// readAnchorIndex parses the representative-index varint that opens the
// AVQ and packed payloads.
func readAnchorIndex(body []byte, count int) (anchor, pos int, err error) {
	mid, pos := binary.Uvarint(body)
	if pos <= 0 {
		return 0, 0, fmt.Errorf("%w: representative index: %v", ErrCorrupt, ErrTruncated)
	}
	if mid >= uint64(count) {
		return 0, 0, fmt.Errorf("%w: representative index %d >= tuple count %d", ErrCorrupt, mid, count)
	}
	return int(mid), pos, nil
}

// rawRow decodes row i of a raw block into t: the direct-offset access a
// chainless payload allows.
func (l *layout) rawRow(i int, t relation.Tuple) error {
	m := l.s.RowSize()
	return decodeRow(l.s, t, l.rows[i*m:(i+1)*m])
}

// span carves positions [from, to) out of the arena and reconstructs them
// with the tuple-space walk.
func (l *layout) span(from, to int, a *Arena) ([]relation.Tuple, error) {
	if from == to {
		return nil, nil
	}
	out := a.Tuples(to-from, l.s.NumAttrs())
	if err := l.walkTuples(from, to, out, a); err != nil {
		return nil, err
	}
	return out, nil
}

// walkTuples reconstructs positions [from, to) of the block into out
// (to-from arena-carved tuples, from < to): the tuple-space walk behind
// DecodeBlockArena (0, count), DecodeTupleSpanArena, DecodeTupleAtArena
// (idx, idx+1) and, through it, SearchBlockArena.
//
// The chain is walked outward from the anchor. Differences on the near
// side of the span are stepped over with skip; differences the chain must
// pass through on its way to the span are folded into a running tuple;
// only positions inside the span are materialized. Before-anchor
// differences are stored front-to-back but apply back-to-front, so each is
// parked in its own output slot and consumed in place (ordinal.SubFrom
// tolerates dst aliasing an operand, and starts from the parked
// difference's first non-zero digit).
func (l *layout) walkTuples(from, to int, out []relation.Tuple, a *Arena) error {
	s := l.s
	if l.rows != nil {
		for i := from; i < to; i++ {
			if err := l.rawRow(i, out[i-from]); err != nil {
				return err
			}
		}
		return nil
	}
	mid, r := l.anchor, l.diffs
	n := s.NumAttrs()
	d, acc := a.Tuple(n), a.Tuple(n)
	fail := func(i int, err error) error {
		return fmt.Errorf("%w: reconstructing tuple %d: %v", ErrCorrupt, i, err)
	}

	// Before the anchor: t[i] = t[i+1] - d[i].
	if err := r.skip(min(from, mid)); err != nil {
		return err
	}
	parked := min(to, mid)
	for i := from; i < parked; i++ {
		if _, err := r.next(out[i-from]); err != nil {
			return err
		}
	}
	base := l.rep
	if to < mid {
		copy(acc, l.rep)
		for i := to; i < mid; i++ {
			k, err := r.next(d)
			if err != nil {
				return err
			}
			if err := ordinal.SubFrom(s, acc, acc, d, k); err != nil {
				return fail(i, err)
			}
		}
		base = acc
	}
	for i := parked - 1; i >= from; i-- {
		if err := ordinal.SubFrom(s, out[i-from], base, out[i-from], leadingZeroDigits(out[i-from])); err != nil {
			return fail(i, err)
		}
		base = out[i-from]
	}
	if to <= mid {
		return r.end()
	}

	// The anchor and after it: t[i] = t[i-1] + d[i]. Positions
	// mid+1..from-1 are replayed in acc.
	if from <= mid {
		copy(out[mid-from], l.rep)
	}
	prev := l.rep
	for i := mid + 1; i < to; i++ {
		k, err := r.next(d)
		if err != nil {
			return err
		}
		dst := acc
		if i >= from {
			dst = out[i-from]
		}
		if err := ordinal.AddFrom(s, dst, prev, d, k); err != nil {
			return fail(i, err)
		}
		prev = dst
	}
	return r.end()
}

// errLeavesSpace reports a φ-space chain step below 0 or at/above ||R||.
var errLeavesSpace = fmt.Errorf("%w: difference chain leaves the schema space", ErrCorrupt)

// walkPhis is walkTuples in flat-ordinal space: each difference d
// contributes φ(d) as one uint64, so the chain is a run of checked adds.
// It writes φ(t[i]) to out[i] (len count) front to back and is the walk
// behind DecodeBlockPhis (b == nil: the slab is the result) and PhiSpan (b
// folds each position into its bounds and may end the walk early; out is
// scratch). The schema must be flat, with space = ||R||.
//
// Blocks are φ-clustered by construction and every consumer of the
// sequence binary-searches it, so a decreasing sequence — possible only in
// a raw layout, since a chain of nonnegative differences cannot decrease —
// is corruption, not data.
func (l *layout) walkPhis(space uint64, out []uint64, b *phiBounds, a *Arena) error {
	s := l.s
	d := a.Tuple(s.NumAttrs())
	if l.rows != nil {
		for i := range out {
			if err := l.rawRow(i, d); err != nil {
				return err
			}
			out[i] = ordinal.PhiU64(s, d)
			if i > 0 && out[i] < out[i-1] {
				return fmt.Errorf("%w: φ sequence decreases at position %d", ErrCorrupt, i)
			}
		}
		return nil
	}
	mid, r := l.anchor, l.diffs
	repPhi := ordinal.PhiU64(s, l.rep)

	// Before the anchor. The differences are parsed into out[0..mid) in
	// one pass and stay there as the delta buffer until their sum anchors
	// φ(t[0]) = φ(rep) - Σd, then are rewritten in place to absolute
	// values.
	if err := r.phis(out[:mid], d); err != nil {
		return err
	}
	var total uint64
	for _, dphi := range out[:mid] {
		if total+dphi < total || total+dphi > repPhi {
			return errLeavesSpace
		}
		total += dphi
	}
	cur := repPhi - total
	for i := 0; i < mid; i++ {
		cur, out[i] = cur+out[i], cur
	}
	out[mid] = repPhi
	if b != nil {
		for i := 0; i <= mid; i++ {
			if b.visit(i, out[i]) {
				return r.end()
			}
		}
	}

	// After the anchor. A whole-block walk parses every difference in one
	// pass; a visitor may stop at any position, so it parses one at a
	// time and never reads a difference past the one that ends it. A stop
	// after the block's last difference still applies the end-of-payload
	// rule.
	step := len(out)
	if b != nil {
		step = 1
	}
	prev := repPhi
	for i := mid + 1; i < len(out); {
		chunk := out[i:min(i+step, len(out))]
		if err := r.phis(chunk, d); err != nil {
			return err
		}
		for _, dphi := range chunk {
			phi := prev + dphi
			if phi < prev || phi >= space {
				return errLeavesSpace
			}
			out[i], prev = phi, phi
			if b != nil && b.visit(i, phi) {
				return r.end()
			}
			i++
		}
	}
	return r.end()
}
