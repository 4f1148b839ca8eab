package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/relation"
)

// layout is a parsed block payload. Every codec's block is the same
// structure — an anchor tuple at a known position plus count-1
// run-length-coded differences (Sections 3.2-3.4) — so one parse describes
// them all and the one walk below serves every decode shape:
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
	reach  reach          // pass's scratch, carved on first use
	dir    *Restarts      // the block's restart directory, when the walk may start at one
}

// reach is the scratch pass parses a chunk of differences into: their
// suffix ordinals, first prefix digits and parked prefix digits, and the
// packed framing's digit vector. A layout carves it once, however many
// walks (a search's probes) step through the chain's reach.
type reach struct {
	dS, ks []uint64
	park   []relation.Tuple
	d      relation.Tuple
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

// restart lets walks on l start at restarts of d (nil: at the anchor). A
// directory is only ever built for a byte-RLE block of two or more
// tuples, so one of another block's shape is refused.
func (l *layout) restart(d *Restarts) error {
	if d == nil {
		return nil
	}
	if l.rows != nil || l.diffs.packed || l.count < 2 || d.count != l.count || d.at != l.diffs.at {
		return fmt.Errorf("%w: restart directory of a %d-tuple block for a %d-tuple one", ErrCorrupt, d.count, l.count)
	}
	l.dir = d
	return nil
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

// span carves positions [from, to) out of the arena and reconstructs
// them: a raw layout reads its rows, a chain is walked.
func (l *layout) span(from, to int, a *Arena) ([]relation.Tuple, error) {
	if from == to {
		return nil, nil
	}
	out := a.Tuples(to-from, l.s.NumAttrs())
	if l.rows != nil {
		for i := from; i < to; i++ {
			if err := l.rawRow(i, out[i-from]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if err := l.walk(from, to, a.Phis(to-from), out, nil, a); err != nil {
		return nil, err
	}
	return out, nil
}

// errLeavesSpace reports a chain step below 0 or at/above ||R||: a carry
// or borrow out of the split form's first digit.
var errLeavesSpace = fmt.Errorf("%w: difference chain leaves the schema space", ErrCorrupt)

// walk reconstructs positions [from, to) of a difference-coded block
// (from < to) in split-ordinal form (relation.Schema.Split): the running
// tuple is its prefix digits 0..at-1 plus one uint64 S, the ordinal of its
// digits at..n-1, so a step is one checked add of the difference's suffix
// ordinal, and the prefix digits move only when the difference reaches
// them or S carries. When rows is non-nil it writes position i's tuple to
// rows[i-from] (put); otherwise — only at split 0, where S is φ — it
// writes position i's φ to suf[i-from]. suf (to-from entries) is the
// walk's slab of parsed suffix ordinals either way. It is the walk behind
// every decode shape: through span, DecodeBlockArena,
// DecodeTupleSpanArena, DecodeTupleAtArena, DecodeAttr0SpanArena and
// SearchBlockArena; DecodeBlockPhis; and PhiSpan and PhiSpanSlab, with the
// bounds visitor b on an anchor walk.
//
// It has two start points. With a restart directory (l.dir) it starts at
// the nearest restart at or before from and steps forward: difference j is
// t[j+1]-t[j] whatever the anchor, so the restart's tuple and offset are
// all it needs. It then checks the offset and state it reaches at every
// restart it crosses and, unless the span ends on one it checked, walks
// on past to to the next one to check it, so a wrong entry fails the walk
// instead of shifting its rows. Without one it starts at the anchor.
//
// Before the anchor the span's differences are parsed in one pass — their
// suffix ordinals into suf, the prefix digits of those that reach the
// prefix parked in their own output rows — and summed with the ones
// between the span and the anchor, which anchors t[from] = rep - Σd; the
// walk then runs forward. Differences ahead of from are stepped over with
// skip. From the start point on the chain passes through every difference
// up to to, materializing positions from on, a chunk at a time so the rows
// a chunk parks in are still in cache when it is applied; a visitor (which
// may stop at any position) parses one at a time, so it never reads a
// difference past the one that ends it. A stop after the block's last
// difference still applies the end-of-payload rule.
func (l *layout) walk(from, to int, suf []uint64, rows []relation.Tuple, b *phiBounds, a *Arena) error {
	r := l.diffs
	mid, at, n, space := l.anchor, r.at, l.s.NumAttrs(), r.space
	pre, d := a.Tuple(at), a.Tuple(n)
	var ks []uint64 // ks[i-from]: the first digit position i's difference has in the prefix, or at
	if at > 0 {
		ks = a.Phis(to - from)
	}
	var sx *suffixDigits
	if rows != nil {
		sx = a.suffixDigits(l.s)
	}
	var S uint64
	var ok bool
	// The start point: (pre, S) is its tuple and r sits on the difference
	// leaving it. next is the next position whose state the walk checks,
	// entry e of the directory; an anchor walk checks none.
	start, next, e := mid, l.count, 0
	if dir := l.dir; dir != nil {
		// A walk crosses at least one restart: the last position's
		// entry has none after it to check it, so it starts one before.
		if e = from / restartEvery; e > 0 && dir.pos(e) == l.count-1 {
			e--
		}
		var err error
		if S, err = dir.seed(&r, e, pre); err != nil {
			return err
		}
		start = dir.pos(e)
		e++
		next = dir.pos(e)
	} else {
		var repS uint64
		for i := at; i < n; i++ {
			repS += l.rep[i] * r.weights[i]
		}

		// Before the anchor: t[i+1] = t[i] + d[i].
		if err := r.skip(min(from, mid)); err != nil {
			return err
		}
		end := min(to, mid) // positions [from, end) are walked here
		clear(pre)
		if from < end {
			if err := r.split(suf[:end-from], ks, rows, d); err != nil {
				return err
			}
			if S, ok = r.addAll(pre, S, suf[:end-from], ks, rows); !ok {
				return errLeavesSpace
			}
		}
		if to < mid {
			var err error
			if S, err = l.pass(&r, mid-to, pre, S, a); err != nil {
				return err
			}
		}
		if from < end {
			// t[from] = rep - Σd, then forward to end; every step stays at or
			// below rep, so none can leave the space.
			if S, ok = r.sub(pre, l.rep, repS, pre, S); !ok {
				return errLeavesSpace
			}
			for j, dS := range suf[:end-from] {
				if rows == nil {
					suf[j], S = S, S+dS
					continue
				}
				row, k := rows[j], at
				if at > 0 {
					k = int(ks[j])
				}
				copy(d[k:at], row[k:at])
				put(row, pre, S, sx)
				if S += dS; S < dS || S >= space || k < at {
					S, _ = r.carry(pre, S, dS, d, k)
				}
			}
		}
		if to <= mid {
			return r.end()
		}
		copy(pre, l.rep)
		S = repS
	}

	// The start point and after it: t[i] = t[i-1] + d[i-1].
	if from <= start {
		if rows != nil {
			put(rows[start-from], pre, S, sx)
		} else {
			suf[start-from] = S
		}
	}
	if b != nil {
		for i := 0; i <= mid; i++ {
			if b.visit(i, suf[i]) {
				return r.end()
			}
		}
	}
	if from > start+1 {
		var err error
		if S, err = l.pass(&r, from-start-1, pre, S, a); err != nil {
			return err
		}
	}
	step := to // a φ slab: one pass
	switch {
	case b != nil:
		step = 1
	case rows != nil:
		step = walkChunk
	}
	checked := -1 // the last position whose restart the walk checked
	for i := max(from, start+1); i < to; {
		lo, hi := i-from, min(i+step, to, next+1)-from
		chunk := suf[lo:hi]
		if rows == nil {
			if err := r.split(chunk, nil, nil, d); err != nil {
				return err
			}
			for _, dS := range chunk {
				if S += dS; S < dS || S >= space {
					return errLeavesSpace
				}
				suf[i-from] = S
				if b != nil && b.visit(i, S) {
					return r.end()
				}
				i++
			}
		} else {
			var kc []uint64
			if at > 0 {
				kc = ks[lo:hi]
			}
			park := rows[lo:hi]
			if err := r.split(chunk, kc, park, d); err != nil {
				return err
			}
			for j, dS := range chunk {
				k := at
				if at > 0 {
					k = int(kc[j])
				}
				if S += dS; S < dS || S >= space || k < at {
					if S, ok = r.carry(pre, S, dS, park[j], k); !ok {
						return errLeavesSpace
					}
				}
				put(park[j], pre, S, sx)
			}
			i += len(chunk)
		}
		if i-1 == next {
			if err := l.checkRestart(&r, &e, &next, pre, S); err != nil {
				return err
			}
			checked = i - 1
		}
	}
	if next < l.count && checked != to-1 {
		// Walk on to the next restart, which vouches for the span; a span
		// that ends on a restart the loop checked needs none.
		var err error
		if S, err = l.pass(&r, next-(to-1), pre, S, a); err != nil {
			return err
		}
		if err := l.checkRestart(&r, &e, &next, pre, S); err != nil {
			return err
		}
	}
	return r.end()
}

// checkRestart checks the walk's state at restart e, the position next,
// and advances both to the following restart (next = count after the
// last).
func (l *layout) checkRestart(r *diffReader, e, next *int, pre []uint64, S uint64) error {
	if err := l.dir.check(r, *e, pre, S); err != nil {
		return err
	}
	if *e++; *e < restartCount(l.count) {
		*next = l.dir.pos(*e)
	} else {
		*next = l.count
	}
	return nil
}

// walkChunk is how many differences after the anchor walk parses at a
// time.
const walkChunk = 64

// put writes a split-form tuple into row: its prefix digits copied, its
// suffix digits read off S. With q_g = ⌊S/w_g⌋ (one invariant division
// each; q_{n-1} = S, q_{at-1} = 0), digit g is q_g - q_{g-1}·|A_g|: the
// quotients are independent of each other, so a row's digits cost one
// multiply-high and one multiply apiece, with no chain between them.
func put(row, pre []uint64, S uint64, sx *suffixDigits) {
	copy(row, pre)
	var q uint64
	for g, d := range sx.div {
		qg := d.quo(S)
		row[len(pre)+g], q = qg-q*sx.rad[g], qg
	}
	row[len(row)-1] = S - q*sx.rad[len(sx.div)]
}

// addAll steps the split-form tuple (pre, S) over parsed differences, as
// split leaves them: suffix ordinals dS and, with a prefix, ks and the
// digits parked in park. It reports false on a step that leaves the
// space.
func (r *diffReader) addAll(pre []uint64, S uint64, dS, ks []uint64, park []relation.Tuple) (uint64, bool) {
	at, space := r.at, r.space
	if at == 0 {
		for _, v := range dS {
			if S += v; S < v || S >= space {
				return 0, false
			}
		}
		return S, true
	}
	for j, v := range dS {
		if k := int(ks[j]); S+v < v || S+v >= space || k < at {
			var ok bool
			if S, ok = r.carry(pre, S+v, v, park[j], k); !ok {
				return 0, false
			}
		} else {
			S += v
		}
	}
	return S, true
}

// pass steps (pre, S) over r's next cnt differences without
// materializing any position: the chain's reach between the anchor and a
// span. It parses them a chunk at a time into the layout's reach scratch.
func (l *layout) pass(r *diffReader, cnt int, pre []uint64, S uint64, a *Arena) (uint64, error) {
	x := &l.reach
	if x.d == nil {
		n := l.s.NumAttrs()
		x.dS, x.ks, x.park, x.d = a.Phis(walkChunk), a.Phis(walkChunk), a.Tuples(walkChunk, n), a.Tuple(n)
	}
	for c := 0; cnt > 0; cnt -= c {
		c = min(walkChunk, cnt)
		if err := r.split(x.dS[:c], x.ks, x.park, x.d); err != nil {
			return 0, err
		}
		var ok bool
		if S, ok = r.addAll(pre, S, x.dS[:c], x.ks, x.park); !ok {
			return 0, errLeavesSpace
		}
	}
	return S, nil
}

// carry finishes a chain step the walk could not finish with its one
// add, S = S₀+dS mod 2⁶⁴: one whose sum wrapped (S < dS) or reached the
// suffix space, or whose difference has prefix digits d[k:at] (k < at).
// It reduces S below the space, then adds d[k:at] and the suffix's carry
// into the prefix digits pre, rippling the carry only as far as it goes.
// It reports false when the sum leaves the space: a carry out of the
// prefix's first digit, or out of S at split 0.
func (r *diffReader) carry(pre []uint64, S, dS uint64, d []uint64, k int) (uint64, bool) {
	var c uint64
	if S < dS || S >= r.space {
		S, c = S-r.space, 1
	}
	rad := r.radices
	i := len(pre) - 1
	for ; i >= k; i-- {
		v, o := bits.Add64(pre[i], d[i], c)
		if o != 0 || v >= rad[i] {
			v, o = v-rad[i], 1
		}
		pre[i], c = v, o
	}
	for ; c != 0 && i >= 0; i-- {
		if pre[i]+1 < rad[i] {
			pre[i], c = pre[i]+1, 0
		} else {
			pre[i] = 0
		}
	}
	return S, c == 0
}

// sub returns t - u in split form, the prefix digits into dst (which may
// alias u); it reports false when the difference is negative.
func (r *diffReader) sub(dst, t []uint64, tS uint64, u []uint64, uS uint64) (uint64, bool) {
	S, bw := bits.Sub64(tS, uS, 0)
	if bw != 0 {
		S += r.space
	}
	for i := len(dst) - 1; i >= 0; i-- {
		v, o := bits.Sub64(t[i], u[i], bw)
		if o != 0 {
			v += r.radices[i]
		}
		dst[i], bw = v, o
	}
	return S, bw == 0
}
