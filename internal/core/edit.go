package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"repro/internal/bitio"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// Block edits (Section 4.2: an insert or delete touches only its home
// block). A difference codec's payload is
//
//	anchor index | anchor row | D_1 … D_{u-1},   D_k = t[k] - t[k-1]
//
// in stream order whatever the anchor (encodeChain): no frame depends on
// the anchor, and each depends only on its own adjacent pair. Inserting x
// between t[p-1] and t[p] therefore replaces the one frame D_p with the two
// frames x - t[p-1] and t[p] - x; deleting t[d] replaces D_d and D_{d+1}
// with t[d+1] - t[d-1]; every other frame is copied verbatim — bytes for
// CodecAVQ, bits for CodecPacked, rows for CodecRaw. Only the count, the
// anchor index and the anchor row (the edited run's median) are written
// afresh, and the checksum recomputed. The result is byte-identical to
// EncodeBlock of the edited run at O(edits) coding work plus one copy of
// the stream.

// Edit is one block edit. A non-empty Insert is a φ-sorted run of tuples of
// the schema, each placed after the last entry <= it so duplicates stay
// adjacent; an empty one deletes the entry at position Delete.
type Edit struct {
	Insert []relation.Tuple
	Delete int
}

// Apply returns a block's run with the edit applied, in a new slice: the
// run EditBlock's stream encodes, and the one a split packs.
func (e Edit) Apply(s *relation.Schema, tuples []relation.Tuple) []relation.Tuple {
	if len(e.Insert) == 0 {
		return slices.Delete(slices.Clone(tuples), e.Delete, e.Delete+1)
	}
	out := make([]relation.Tuple, 0, len(tuples)+len(e.Insert))
	rest := tuples
	for _, tu := range e.Insert {
		k := sort.Search(len(rest), func(i int) bool { return s.Compare(rest[i], tu) > 0 })
		out = append(append(out, rest[:k]...), tu)
		rest = rest[k:]
	}
	return append(out, rest...)
}

// splice is one edit point: old positions [at, at+del) give way to ins.
// For a difference codec, [from, to) are the reader offsets of the old
// frames copied ahead of it and diffs the frames of its new adjacent pairs.
type splice struct {
	at, del  int
	ins      []relation.Tuple
	from, to int
	diffs    []relation.Tuple
}

// splices resolves e against a slab into its edit points, in block order.
func (e Edit) splices(s *relation.Schema, sl Slab) ([]splice, error) {
	if len(e.Insert) == 0 {
		if e.Delete < 0 || e.Delete >= sl.Len() {
			return nil, fmt.Errorf("core: edit deletes position %d of a %d-tuple block", e.Delete, sl.Len())
		}
		return []splice{{at: e.Delete, del: 1}}, nil
	}
	for _, tu := range e.Insert {
		if err := s.ValidateTuple(tu); err != nil {
			return nil, fmt.Errorf("core: edit: %w", err)
		}
	}
	if !s.TuplesSorted(e.Insert) {
		return nil, errors.New("core: edit inserts not in φ order")
	}
	var sps []splice
	for i := 0; i < len(e.Insert); {
		at, j := sl.Search(s, e.Insert[i]), i+1
		for j < len(e.Insert) && sl.Search(s, e.Insert[j]) == at {
			j++
		}
		sps = append(sps, splice{at: at, ins: e.Insert[i:j]})
		i = j
	}
	return sps, nil
}

// EditBlock appends to dst the stream EncodeBlock(c, s, e.Apply(s, run))
// writes, where c is the block's codec and run the tuples of stream, a
// valid non-empty block that decoded to sl (DecodeBlockSlab). It does not
// re-code the run: it copies every frame the edit leaves alone and codes
// at most len(e.Insert)+1 new ones (see the top of this file). The edited
// size comes first, from the costs of the frames dropped and added (Sizer
// arithmetic); when it exceeds capacity nothing is appended and fits is
// false, so the caller can split the run instead.
func EditBlock(s *relation.Schema, stream []byte, sl Slab, e Edit, capacity int, dst []byte) (out []byte, fits bool, err error) {
	body, u, c, err := checkHeader(stream)
	if err != nil {
		return nil, false, err
	}
	if u == 0 || sl.Len() != u {
		return nil, false, fmt.Errorf("core: edit: slab of %d tuples for a %d-tuple block", sl.Len(), u)
	}
	sps, err := e.splices(s, sl)
	if err != nil {
		return nil, false, err
	}
	count := u
	for _, sp := range sps {
		count += len(sp.ins) - sp.del
	}
	n, m := s.NumAttrs(), s.RowSize()
	z := NewSizer(c, s)
	start := len(dst)
	if c == CodecRaw {
		if z.BlockSize(count, 0) > capacity {
			return dst, false, nil
		}
		dst = append(dst, blockMagic, byte(c))
		dst = binary.AppendUvarint(dst, uint64(count))
		k := 0
		for _, sp := range sps {
			dst = append(dst, body[k*m:sp.at*m]...)
			for _, tu := range sp.ins {
				dst = s.EncodeTuple(dst, tu)
			}
			k = sp.at + sp.del
		}
		dst = append(dst, body[k*m:]...)
		return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable)), true, nil
	}

	_, pos, err := readAnchorIndex(body, u)
	if err != nil {
		return nil, false, err
	}
	if pos += m; pos > len(body) {
		return nil, false, ErrTruncated
	}
	packed := c == CodecPacked
	r := newDiffReader(s, packed, body, pos, u-1)
	scratch := make([]uint64, (len(e.Insert)+len(sps)+2)*n)
	left, right := relation.Tuple(scratch[:n:n]), relation.Tuple(scratch[n:2*n:2*n])
	free := scratch[2*n:]
	delta := 0 // the frames' change in total cost: bytes, or bits for packed
	k := 1     // the next old frame, D_k
	for i := range sps {
		sp := &sps[i]
		// The splice drops frames D_lo..D_hi: those whose pair it breaks.
		lo, hi := max(sp.at, 1), min(sp.at+sp.del, u-1)
		sp.from = r.offset()
		if err := r.skip(lo - k); err != nil {
			return nil, false, err
		}
		sp.to = r.offset()
		if hi >= lo {
			if err := r.skip(hi - lo + 1); err != nil {
				return nil, false, err
			}
			delta -= r.offset() - sp.to
		}
		k = max(lo, hi+1)
		// Its new adjacent pairs: left neighbour, inserts, right neighbour.
		chain := func(prev, cur relation.Tuple) error {
			d := relation.Tuple(free[:n:n])
			free = free[n:]
			if _, err := ordinal.Sub(s, d, cur, prev); err != nil {
				return fmt.Errorf("core: edit: block not phi-sorted: %w", err)
			}
			sp.diffs = append(sp.diffs, d)
			delta += z.cost(d)
			return nil
		}
		var prev relation.Tuple
		if sp.at > 0 {
			prev = sl.tuple(s, sp.at-1, left)
		}
		for _, tu := range sp.ins {
			if prev != nil {
				if err := chain(prev, tu); err != nil {
					return nil, false, err
				}
			}
			prev = tu
		}
		if end := sp.at + sp.del; end < u && prev != nil {
			if err := chain(prev, sl.tuple(s, end, right)); err != nil {
				return nil, false, err
			}
		}
	}
	// The tail copy runs to the end of the frames: the payload's end under
	// byte-RLE, found by walking the rest under packed (whose last byte may
	// carry padding).
	tail, end, frames := r.offset(), len(body), len(body)-pos
	if packed {
		if err := r.skip(u - k); err != nil {
			return nil, false, err
		}
		end = r.offset()
		frames = end
	}
	if z.BlockSize(count, frames+delta) > capacity {
		return dst, false, nil
	}

	dst = append(dst, blockMagic, byte(c))
	dst = binary.AppendUvarint(dst, uint64(count))
	if count > 0 {
		mid := count / 2
		dst = binary.AppendUvarint(dst, uint64(mid))
		dst = s.EncodeTuple(dst, editedEntry(s, sl, sps, mid, left))
		if packed {
			bits := body[pos:]
			widths, _ := s.BitWidths()
			w := bitio.NewWriter(dst)
			for _, sp := range sps {
				if err := copyBits(w, bits, sp.from, sp.to); err != nil {
					return nil, false, err
				}
				for _, d := range sp.diffs {
					writePackedDiff(w, d, widths, z.lzWidth)
				}
			}
			if err := copyBits(w, bits, tail, end); err != nil {
				return nil, false, err
			}
			dst = w.Bytes()
		} else {
			row := make([]byte, 0, m)
			for _, sp := range sps {
				dst = append(dst, body[sp.from:sp.to]...)
				for _, d := range sp.diffs {
					dst = appendDiff(s, dst, d, row)
				}
			}
			dst = append(dst, body[tail:]...)
		}
	}
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable)), true, nil
}

// editedEntry returns position i of the edited run: an inserted tuple, or
// a slab entry (written into dst on a φ slab).
func editedEntry(s *relation.Schema, sl Slab, sps []splice, i int, dst relation.Tuple) relation.Tuple {
	k, ins := editedSource(sps, i)
	if ins != nil {
		return ins
	}
	return sl.tuple(s, k, dst)
}

// editedSource resolves position i of the edited run: an inserted tuple,
// or (ins nil) slab entry k.
func editedSource(sps []splice, i int) (k int, ins relation.Tuple) {
	shift := 0
	for _, sp := range sps {
		switch {
		case i < sp.at+shift:
			return i - shift, nil
		case i < sp.at+shift+len(sp.ins):
			return 0, sp.ins[i-sp.at-shift]
		}
		shift += len(sp.ins) - sp.del
	}
	return i - shift, nil
}

// copyBits appends bits [from, to) of src to w.
func copyBits(w *bitio.Writer, src []byte, from, to int) error {
	var r bitio.Reader
	r.Reset(src)
	if err := r.Skip(uint(from)); err != nil {
		return err
	}
	for n := to - from; n > 0; n -= 64 {
		k := uint(min(n, 64))
		v, err := r.ReadBits(k)
		if err != nil {
			return err
		}
		w.WriteBits(v, k)
	}
	return nil
}
