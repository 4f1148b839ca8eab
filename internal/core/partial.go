package core

import (
	"fmt"
	"sort"

	"repro/internal/relation"
)

// DecodeTupleAtArena reconstructs only the tuple at position idx (in phi
// order) of an encoded block, without materializing the rest, carving its
// result (and scratch) out of the arena. The returned tuple aliases the
// arena's slab and is valid until its next Reset. A nil arena decodes into
// a fresh one.
//
// This operation is why the paper chooses the block's *median* tuple as
// its representative (Section 3.4): decoding position idx requires
// following the difference chain from the anchor to idx, which is at most
// u/2 steps from the median but up to u-1 steps from a first-tuple anchor.
// Differences on the far side of the anchor are skipped by their framing
// alone, and a raw block is a direct offset. The decode-reach ablation
// (BenchmarkPointAccess) quantifies exactly that gap.
func DecodeTupleAtArena(s *relation.Schema, buf []byte, idx int, a *Arena) (relation.Tuple, error) {
	l, a, err := openBlock(s, buf, a)
	if err != nil {
		return nil, err
	}
	if idx < 0 || idx >= l.count {
		return nil, fmt.Errorf("core: tuple index %d out of range [0,%d)", idx, l.count)
	}
	out, err := l.span(idx, idx+1, a)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// DecodeTupleSpanArena reconstructs the tuples at positions [from, to) of
// an encoded block, in phi order, without materializing the rest of the
// block, carving every tuple (and all chain scratch) out of the arena. The
// returned tuples alias the arena's slab and are valid until its next
// Reset. A nil arena decodes into a fresh one.
//
// It is the executor's narrow-range primitive: when a φ-fence says only a
// slice of a block can match, the chain is walked once from the anchor to
// the span instead of decoding all u tuples — O(mid-from) digit parses
// before the median plus O(to-mid) after it.
func DecodeTupleSpanArena(s *relation.Schema, buf []byte, from, to int, a *Arena) ([]relation.Tuple, error) {
	l, a, err := openBlock(s, buf, a)
	if err != nil {
		return nil, err
	}
	if from < 0 || to > l.count || from > to {
		return nil, fmt.Errorf("core: tuple span [%d,%d) out of range [0,%d)", from, to, l.count)
	}
	return l.span(from, to, a)
}

// DecodeAttr0SpanArena reconstructs the run of an encoded block's tuples
// whose attribute 0 — the clustering attribute, nondecreasing in φ order —
// lies in [lo, hi], carving them (and all chain scratch) out of the arena
// like DecodeTupleSpanArena. It is the executor's partial decode on a
// schema whose space exceeds 64 bits.
//
// With dir, the block's restart directory (BlockRestarts), it walks from
// the last restart whose attribute 0 is below lo to the first whose is
// above hi, then clips the run: O(k + span) differences. With a nil dir it
// binary-searches the two bounds with one-tuple probes from the anchor
// (SearchBlockArena's) and decodes the span between them.
func DecodeAttr0SpanArena(s *relation.Schema, buf []byte, lo, hi uint64, dir *Restarts, a *Arena) ([]relation.Tuple, error) {
	l, a, err := openBlock(s, buf, a)
	if err == nil {
		err = l.restart(dir)
	}
	if err != nil || l.count == 0 {
		return nil, err
	}
	d := l.dir
	if d == nil {
		from, err := l.search(func(t relation.Tuple) bool { return t[0] >= lo }, a)
		if err != nil {
			return nil, err
		}
		to, err := l.search(func(t relation.Tuple) bool { return t[0] > hi }, a)
		if err != nil || from >= to {
			return nil, err
		}
		return l.span(from, to, a)
	}
	first, last := d.bracket(func(e int) uint64 { return d.attr0(s, e) }, lo, hi)
	rows, err := l.span(d.pos(first), d.pos(last)+1, a)
	if err != nil {
		return nil, err
	}
	from := sort.Search(len(rows), func(i int) bool { return rows[i][0] >= lo })
	to := sort.Search(len(rows), func(i int) bool { return rows[i][0] > hi })
	return rows[from:max(from, to)], nil
}

// SearchBlockArena binary-searches an encoded block for the first position
// at which pred becomes true. pred must be monotone over the block's phi
// order (false...false true...true); the result is count when pred is
// false everywhere. The stream is verified and parsed once; each of the
// O(log u) probes is a one-tuple walk over that parsed layout, decoded into
// the arena. Tuples passed to pred alias the arena's slab and are invalid
// after the call; pred must not retain them.
func SearchBlockArena(s *relation.Schema, buf []byte, pred func(relation.Tuple) bool, a *Arena) (int, error) {
	l, a, err := openBlock(s, buf, a)
	if err != nil {
		return 0, err
	}
	return l.search(pred, a)
}

// search is SearchBlockArena on a parsed layout.
func (l *layout) search(pred func(relation.Tuple) bool, a *Arena) (int, error) {
	lo, hi := 0, l.count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		t, err := l.span(mid, mid+1, a)
		if err != nil {
			return 0, err
		}
		if pred(t[0]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
