package core

import (
	"fmt"
	"sort"

	"repro/internal/ordinal"
	"repro/internal/relation"
)

// PhiSpan locates the run of positions [from, to) of an encoded block
// whose tuples have phi in [loPhi, hiPhi], walking the difference chain in
// flat-ordinal space: each stored difference d contributes phi(d) as a
// single uint64, so locating the span costs one linear pass of uint64
// adds (with early exit past hiPhi) instead of SearchBlockArena's O(log u)
// probes that each replay up to half the chain. It requires a flat schema
// (Schema.FlatSpace ok) and a checksummed block; the header is verified
// once, not once per probe.
//
// A caller that wants the span's tuples calls PhiSpanSlab instead, which
// hands back the walk's φ values, so only the qualifying run is ever
// materialized, from ordinals the walk already computed.
func PhiSpan(s *relation.Schema, buf []byte, loPhi, hiPhi uint64, a *Arena) (from, to int, err error) {
	l, a, err := openFlat(s, buf, nil, a)
	if err != nil || l.count == 0 {
		return 0, 0, err
	}
	_, from, to, err = l.phiSpan(loPhi, hiPhi, a)
	return from, to, err
}

// PhiSpanSlab is PhiSpan returning the span's φ values instead of its
// positions: the ordinals of positions [from, to), nondecreasing, carved
// from the arena and valid until its next Reset. The span's tuples are
// then digits of its ordinals (DigitExtractor), and no second, tuple-space
// walk is needed.
//
// With dir, the block's restart directory (BlockRestarts), the walk starts
// at the last restart below loPhi and stops at the first above hiPhi:
// O(k + span) differences instead of up to the whole block. With a nil dir
// it walks from the anchor with the bounds visitor, the walk PhiSpan runs,
// so it accepts and rejects exactly the streams PhiSpan followed by
// DecodeTupleSpanArena(from, to) does. A raw block's binary search reads
// only its probes, so its span's rows are read here.
func PhiSpanSlab(s *relation.Schema, buf []byte, loPhi, hiPhi uint64, dir *Restarts, a *Arena) ([]uint64, error) {
	l, a, err := openFlat(s, buf, dir, a)
	if err != nil || l.count == 0 {
		return nil, err
	}
	span, from, to, err := l.phiSpan(loPhi, hiPhi, a)
	if err != nil || l.rows == nil {
		return span, err
	}
	out, t := a.Phis(to-from), a.Tuple(s.NumAttrs())
	for i := range out {
		if err := l.rawRow(from+i, t); err != nil {
			return nil, err
		}
		out[i] = ordinal.PhiU64(s, t)
	}
	return out, nil
}

// openFlat is openBlock for the φ-space shapes, which need a schema space
// within 64 bits, with walks starting at dir's restarts when it is set.
func openFlat(s *relation.Schema, buf []byte, dir *Restarts, a *Arena) (layout, *Arena, error) {
	if _, ok := s.FlatSpace(); !ok {
		return layout{}, nil, fmt.Errorf("core: a φ span needs a schema space within 64 bits")
	}
	l, a, err := openBlock(s, buf, a)
	if err == nil {
		err = l.restart(dir)
	}
	return l, a, err
}

// phiSpan locates [from, to) on a non-empty layout and returns the span's
// φ values. A chain is walked into a slab: from the restarts bracketing
// the interval, then clipped to it; or from the anchor with the bounds
// visitor. A raw layout is binary-searched and returns no slab.
func (l *layout) phiSpan(loPhi, hiPhi uint64, a *Arena) (span []uint64, from, to int, err error) {
	if l.rows != nil {
		from, to, err = l.rawPhiSpan(loPhi, hiPhi, a)
		return nil, from, to, err
	}
	if d := l.dir; d != nil {
		first, last := d.bracket(func(e int) uint64 { _, _, S := d.entry(e); return S }, loPhi, hiPhi)
		p, q := d.pos(first), d.pos(last)+1
		phis := a.Phis(q - p)
		if err := l.walk(p, q, phis, nil, nil, a); err != nil {
			return nil, 0, 0, err
		}
		f, t := PhiSpanSorted(phis, loPhi, hiPhi)
		return phis[f:t], p + f, p + t, nil
	}
	phis := a.Phis(l.count)
	b := phiBounds{loPhi: loPhi, hiPhi: hiPhi}
	if err := l.walk(0, l.count, phis, nil, &b, a); err != nil {
		return nil, 0, 0, err
	}
	from, to = b.finish(l.count)
	return phis[from:to], from, to, nil
}

// phiBounds tracks the running lower/upper bound scan over a nondecreasing
// phi sequence: from is the first position with phi >= loPhi, to the first
// with phi > hiPhi.
type phiBounds struct {
	loPhi, hiPhi uint64
	from, to     int
	haveFrom     bool
	done         bool
}

// visit folds position i's phi value; it returns true once the scan can
// stop (the sequence left the range).
func (b *phiBounds) visit(i int, phi uint64) bool {
	if !b.haveFrom && phi >= b.loPhi {
		b.from, b.haveFrom = i, true
	}
	if phi > b.hiPhi {
		b.to, b.done = i, true
		return true
	}
	return false
}

// finish resolves the bounds after count positions.
func (b *phiBounds) finish(count int) (from, to int) {
	if !b.done {
		b.to = count
	}
	if !b.haveFrom {
		b.from = b.to
	}
	return b.from, b.to
}

// rawPhiSpan binary-searches a raw block's fixed-width rows directly:
// position i's phi is computable from its bytes in O(n) with no chain to
// walk.
func (l *layout) rawPhiSpan(loPhi, hiPhi uint64, a *Arena) (from, to int, err error) {
	t := a.Tuple(l.s.NumAttrs())
	firstAbove := func(bound uint64) int {
		return sort.Search(l.count, func(i int) bool {
			if e := l.rawRow(i, t); e != nil {
				err = e
			}
			return err != nil || ordinal.PhiU64(l.s, t) > bound
		})
	}
	if loPhi > 0 {
		from = firstAbove(loPhi - 1)
	}
	to = firstAbove(hiPhi)
	if err != nil {
		return 0, 0, err
	}
	return from, to, nil
}
