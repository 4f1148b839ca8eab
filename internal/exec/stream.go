package exec

import (
	"sort"

	"repro/internal/core"
	"repro/internal/relation"
)

// Stream is a φ-ordered stream of per-block slabs — the shape merge-style
// operators consume. BatchIterator implements it over one snapshot;
// ChainStreams concatenates per-shard iterators into one table-wide
// stream (φ-range shards are disjoint and ordered, so shard order is φ
// order).
type Stream interface {
	// Next returns the next non-empty slab, nondecreasing, or an empty one
	// at the end. The slab is valid only until the next Next call.
	Next() (core.Slab, error)
	// Seek advances the stream (forward only) past blocks that cannot
	// hold an attribute-0 key >= k. Best-effort: the stream may still
	// deliver smaller keys (in-block prefixes); consumers skip within
	// slabs themselves.
	Seek(k uint64)
}

// chained concatenates streams end to end, carrying the high-water seek
// key into each subsequent stream: a seek raised while stream i is
// draining must still prune stream i+1's prefix when the chain gets there.
type chained struct {
	streams []Stream
	at      int
	hw      uint64
	hasHW   bool
}

// ChainStreams returns the concatenation of streams in order. The caller
// asserts the concatenation is φ-ordered (true for φ-range shards in
// catalog order).
func ChainStreams(streams ...Stream) Stream {
	return &chained{streams: streams}
}

func (c *chained) Next() (core.Slab, error) {
	for c.at < len(c.streams) {
		sl, err := c.streams[c.at].Next()
		if err != nil || sl.Len() > 0 {
			return sl, err
		}
		c.at++
		if c.at < len(c.streams) && c.hasHW {
			c.streams[c.at].Seek(c.hw)
		}
	}
	return core.Slab{}, nil
}

func (c *chained) Seek(k uint64) {
	if !c.hasHW || k > c.hw {
		c.hw, c.hasHW = k, true
	}
	if c.at < len(c.streams) {
		c.streams[c.at].Seek(k)
	}
}

// joinRun is one side of a merge join: a Stream plus the in-slab cursor
// and a reusable group buffer (a key group can span slab boundaries, and
// slabs die at the next pull, so group rows are copied out).
type joinRun struct {
	src    Stream
	w0     uint64 // attribute-0 weight on a φ slab: key(φ) = φ / w0
	digits core.Digits
	slab   core.Slab
	pos    int
	done   bool
	buf    []relation.Tuple
}

// newJoinRun reads src's rows as tuples of schema s.
func newJoinRun(src Stream, s *relation.Schema) *joinRun {
	r := &joinRun{src: src, digits: core.NewDigits(s)}
	if w, ok := s.FlatWeights(); ok {
		r.w0 = w[0]
	}
	return r
}

// fill ensures the run is positioned on a row or done.
func (r *joinRun) fill() error {
	for !r.done && r.pos >= r.slab.Len() {
		sl, err := r.src.Next()
		if err != nil {
			return err
		}
		if sl.Len() == 0 {
			r.done = true
			return nil
		}
		r.slab, r.pos = sl, 0
	}
	return nil
}

// key returns the current row's join key, its attribute 0.
func (r *joinRun) key() uint64 { return attr0At(r.slab, r.w0, r.pos) }

// seekKey advances the run to the first row with key >= k: binary search
// within the current slab, and a fence-level stream seek once the slab is
// exhausted below the key.
func (r *joinRun) seekKey(k uint64) error {
	for {
		if err := r.fill(); err != nil || r.done {
			return err
		}
		if r.pos = attr0Search(r.slab, r.w0, k, r.pos); r.pos < r.slab.Len() {
			return nil
		}
		// The whole remaining slab is below the key: skip ahead on fences.
		r.src.Seek(k)
	}
}

// collectGroup copies every row with key k (starting at the current
// position, which must hold one) into the run's reusable buffer as tuples
// the caller may retain, crossing slab boundaries as needed, and leaves
// the run positioned after the group.
func (r *joinRun) collectGroup(k uint64) ([]relation.Tuple, error) {
	r.buf = r.buf[:0]
	for {
		end := attr0Search(r.slab, r.w0, k+1, r.pos) // k < attribute 0's radix
		r.buf = r.slab.AppendRows(r.buf, r.digits, r.pos, end)
		r.pos = end
		if end < r.slab.Len() {
			return r.buf, nil
		}
		if err := r.fill(); err != nil {
			return nil, err
		}
		if r.done || r.key() != k {
			return r.buf, nil
		}
	}
}

// MergeJoin advances two φ-ordered streams of schemas ls and rs in
// lockstep on their attribute-0 keys and hands emitGroup each matching key
// with both sides' complete groups. Only rows that join become tuples — a
// φ slab's by its schema's Digits, a tuple slab's by a copy — and each is
// fresh, so emitGroup may retain the rows; the group slices themselves are
// reused across calls. Returning false stops the join. The lagging side
// skips ahead by in-slab binary search and a fence-level Seek, so a sparse
// join touches only the blocks that can hold matching keys.
func MergeJoin(left, right Stream, ls, rs *relation.Schema, emitGroup func(key uint64, lrows, rrows []relation.Tuple) bool) error {
	l, r := newJoinRun(left, ls), newJoinRun(right, rs)
	if err := l.fill(); err != nil {
		return err
	}
	if err := r.fill(); err != nil {
		return err
	}
	for !l.done && !r.done {
		lk, rk := l.key(), r.key()
		switch {
		case lk < rk:
			if err := l.seekKey(rk); err != nil {
				return err
			}
		case rk < lk:
			if err := r.seekKey(lk); err != nil {
				return err
			}
		default:
			lg, err := l.collectGroup(lk)
			if err != nil {
				return err
			}
			rg, err := r.collectGroup(lk)
			if err != nil {
				return err
			}
			if !emitGroup(lk, lg, rg) {
				return nil
			}
		}
	}
	return nil
}

// attr0Search returns the first position at or after from in a
// nondecreasing slab whose attribute 0 is >= k; w0 is attribute 0's
// weight on a φ slab, whose attribute 0 is φ / w0.
func attr0Search(sl core.Slab, w0, k uint64, from int) int {
	if sl.Tuples != nil {
		return from + sort.Search(len(sl.Tuples)-from, func(j int) bool { return sl.Tuples[from+j][0] >= k })
	}
	target := k * w0 // k is at most attribute 0's radix: no overflow
	return from + sort.Search(len(sl.Phis)-from, func(j int) bool { return sl.Phis[from+j] >= target })
}

// attr0At returns entry i's attribute 0.
func attr0At(sl core.Slab, w0 uint64, i int) uint64 {
	if sl.Tuples != nil {
		return sl.Tuples[i][0]
	}
	return sl.Phis[i] / w0
}
