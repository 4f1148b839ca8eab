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
// The caller typically follows with DecodeTupleSpanArena(from, to) — only
// the qualifying run is ever materialized, realizing the ordinal-space
// predicate evaluation of the read path.
func PhiSpan(s *relation.Schema, buf []byte, loPhi, hiPhi uint64, a *Arena) (from, to int, err error) {
	space, ok := s.FlatSpace()
	if !ok {
		return 0, 0, fmt.Errorf("core: PhiSpan needs a schema space within 64 bits")
	}
	l, a, err := openBlock(s, buf, a)
	if err != nil || l.count == 0 {
		return 0, 0, err
	}
	if l.rows != nil {
		return l.rawPhiSpan(loPhi, hiPhi, a)
	}
	b := phiBounds{loPhi: loPhi, hiPhi: hiPhi}
	if err := l.walkPhis(space, a.Phis(l.count), &b, a); err != nil {
		return 0, 0, err
	}
	from, to = b.finish(l.count)
	return from, to, nil
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
