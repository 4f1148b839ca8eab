package core

import (
	"fmt"
	"sort"

	"repro/internal/ordinal"
	"repro/internal/relation"
)

// restartEvery is k, the restart directory's spacing: a walk from the
// nearest restart parses fewer than k differences before its span and at
// most k after it (to the restart it checks), against the anchor walk's
// up to u/2 + span. At 32 a flat8 block's directory is 42 entries of two
// words, 712 B beside an 8 KiB page, and the walk's reach past its span
// costs well under a microsecond; halving k would double the memory to
// save a fraction of that.
const restartEvery = 32

// Restarts is a block's restart directory: the difference chain's state at
// every k-th position and at its last, so a walk can start at the nearest
// restart at or before a span instead of at the anchor. It rests on the
// stream invariant that difference j is t[j+1] - t[j] whatever the anchor
// (edit.go), so walking forward from any position needs only that
// position's tuple and the offset of difference j in the payload — no
// change to the block format.
//
// Entry e describes position min(e·k, count-1): the byte offset of the
// difference that leaves it (past the last difference for the final
// entry) and its tuple in split form (relation.Schema.Split) — the prefix
// digits, then the suffix ordinal S. On a flat schema that is one φ word.
// A walk from a restart checks the offset and state it reaches at every
// restart it crosses, and its span always ends at or before one it checked
// (walking on to the next when it must), so a wrong entry is ErrCorrupt,
// never wrong rows.
//
// Only a byte-RLE (CodecAVQ) chain has one: the executor decodes packed
// blocks whole, so nothing would read a packed block's directory, and a
// raw block has direct row access. A directory is built from tuples
// already in hand plus a framing-only pass over the stream
// (BlockRestarts, EditRestarts). It is immutable and may be shared
// between readers.
type Restarts struct {
	count int      // the block's tuple count
	at    int      // prefix digits per entry: the schema's split
	ents  []uint64 // entry e at [e·(at+2), (e+1)·(at+2)): offset, prefix digits, S
}

// restartCount is the number of entries of a count-tuple block's
// directory: positions 0, k, 2k, ... and count-1.
func restartCount(count int) int { return (count-1+restartEvery-1)/restartEvery + 1 }

// pos returns the position entry e describes.
func (d *Restarts) pos(e int) int { return min(e*restartEvery, d.count-1) }

// entry returns entry e's offset, prefix digits and suffix ordinal.
func (d *Restarts) entry(e int) (off int, pre []uint64, S uint64) {
	w := d.at + 2
	ent := d.ents[e*w : (e+1)*w]
	return int(ent[0]), ent[1 : 1+d.at], ent[1+d.at]
}

// Bytes reports the directory's memory: its entries plus the struct.
func (d *Restarts) Bytes() int {
	if d == nil {
		return 0
	}
	const hdr = 8 + 8 + 24 // count, at, ents header
	return hdr + 8*cap(d.ents)
}

// attr0 returns attribute 0 of entry e's tuple: its first prefix digit,
// or its φ's leading digit at split 0.
func (d *Restarts) attr0(s *relation.Schema, e int) uint64 {
	_, pre, S := d.entry(e)
	if d.at > 0 {
		return pre[0]
	}
	w, _ := s.FlatWeights()
	return S / w[0]
}

// bracket returns the entries a walk for the span whose attribute 0 (or φ,
// through key) lies in [lo, hi] runs between: the last entry whose key is
// below lo (entry 0 when there is none) and the first whose key exceeds
// hi (the last entry when there is none). Keys are nondecreasing over the
// entries, because positions are.
func (d *Restarts) bracket(key func(e int) uint64, lo, hi uint64) (first, last int) {
	n := restartCount(d.count)
	first = max(sort.Search(n, func(e int) bool { return key(e) >= lo })-1, 0)
	last = min(sort.Search(n, func(e int) bool { return key(e) > hi }), n-1)
	return first, max(last, first)
}

// seed positions the reader on entry e's offset, with the differences after
// its position left to read, and loads its split-form state into pre,
// returning S. It holds the entry's digits to the schema, so no carry can
// start from an impossible state.
func (d *Restarts) seed(r *diffReader, e int, pre []uint64) (uint64, error) {
	off, p, S := d.entry(e)
	for i, v := range p {
		if v >= r.radices[i] {
			return 0, d.errEntry(e)
		}
	}
	if S >= r.space {
		return 0, d.errEntry(e)
	}
	if err := r.seek(off, d.count-1-d.pos(e)); err != nil {
		return 0, err
	}
	copy(pre, p)
	return S, nil
}

// check compares the walk's state (pre, S) and reader offset at entry e's
// position with the entry.
func (d *Restarts) check(r *diffReader, e int, pre []uint64, S uint64) error {
	off, p, want := d.entry(e)
	if r.offset() != off || S != want {
		return d.errEntry(e)
	}
	for i, v := range p {
		if pre[i] != v {
			return d.errEntry(e)
		}
	}
	return nil
}

func (d *Restarts) errEntry(e int) error {
	return fmt.Errorf("%w: walk disagrees with the restart at position %d", ErrCorrupt, d.pos(e))
}

// BlockRestarts builds the restart directory of stream, a valid block
// whose tuples are the given ones in order, with one framing-only pass
// over its differences. A raw or packed block, or one of fewer than two
// tuples, gets nil (Restarts).
func BlockRestarts(s *relation.Schema, stream []byte, tuples []relation.Tuple) (*Restarts, error) {
	return buildRestarts(s, stream, func(p int, pre []uint64) uint64 {
		return splitState(s, tuples[p], pre)
	})
}

// EditRestarts builds the restart directory of stream, the block
// EditBlock(s, old, sl, e, ...) wrote, from the slab of the block it edited
// and the edit: the edited run's entries are read off the slab and the
// inserts, never decoded from stream.
func EditRestarts(s *relation.Schema, stream []byte, sl Slab, e Edit) (*Restarts, error) {
	if _, count, c, err := readHeader(stream, false); err != nil || !restartable(c, count) {
		return nil, err
	}
	sps, err := e.splices(s, sl)
	if err != nil {
		return nil, err
	}
	return buildRestarts(s, stream, func(p int, pre []uint64) uint64 {
		k, ins := editedSource(sps, p)
		switch {
		case ins != nil:
			return splitState(s, ins, pre)
		case sl.Tuples != nil:
			return splitState(s, sl.Tuples[k], pre)
		}
		return sl.Phis[k] // a φ slab is flat: split 0, S = φ
	})
}

// splitState writes t's prefix digits into pre and returns its suffix
// ordinal.
func splitState(s *relation.Schema, t relation.Tuple, pre []uint64) uint64 {
	at, w, _ := s.Split()
	if at == 0 {
		return ordinal.PhiU64(s, t)
	}
	copy(pre, t[:at])
	var S uint64
	for i := at; i < len(t); i++ {
		S += t[i] * w[i]
	}
	return S
}

// restartable reports whether a count-tuple block of codec c gets a
// directory.
func restartable(c Codec, count int) bool { return c == CodecAVQ && count >= 2 }

// buildRestarts frames stream's differences once, recording the offset at
// every entry's position, and reads each entry's state off state(p, pre).
// The stream is one its caller has just encoded, edited or decoded, so
// its checksum is not read again.
func buildRestarts(s *relation.Schema, stream []byte, state func(p int, pre []uint64) uint64) (*Restarts, error) {
	body, count, c, err := readHeader(stream, false)
	if err != nil || !restartable(c, count) {
		return nil, err
	}
	_, pos, err := readAnchorIndex(body, count)
	if err != nil {
		return nil, err
	}
	at, _, _ := s.Split()
	d := &Restarts{count: count, at: at}
	n := restartCount(count)
	d.ents = make([]uint64, n*(at+2))
	r := newDiffReader(s, false, body, pos+s.RowSize(), count-1)
	for e := 0; e < n; e++ {
		p := d.pos(e)
		if e > 0 {
			if err := r.skip(p - d.pos(e-1)); err != nil {
				return nil, err
			}
		}
		ent := d.ents[e*(at+2) : (e+1)*(at+2)]
		ent[0] = uint64(r.offset())
		ent[at+1] = state(p, ent[1:1+at])
	}
	return d, nil
}
