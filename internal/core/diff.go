package core

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/relation"
)

// appendDiff serializes one difference tuple: the run of leading zero bytes
// of its fixed-width form is replaced by a single count byte (capped at 255
// for very wide schemas), followed by the remaining tail bytes. scratch is a
// reusable buffer of at least RowSize capacity.
func appendDiff(s *relation.Schema, dst []byte, diff relation.Tuple, scratch []byte) []byte {
	scratch = s.EncodeTuple(scratch[:0], diff)
	lz := 0
	for lz < len(scratch) && scratch[lz] == 0 {
		lz++
	}
	if lz > 255 {
		lz = 255
	}
	dst = append(dst, byte(lz))
	return append(dst, scratch[lz:]...)
}

// diffSize returns the encoded size in bytes of one difference tuple
// without serializing it: one count byte plus the non-zero-prefixed tail.
func diffSize(s *relation.Schema, diff relation.Tuple) int {
	lz := 0
	n := s.NumAttrs()
	for i := 0; i < n; i++ {
		w := s.AttrWidth(i)
		v := diff[i]
		if v == 0 {
			lz += w
			continue
		}
		// Count the leading zero bytes inside this attribute's fixed width.
		for shift := (w - 1) * 8; shift > 0; shift -= 8 {
			if byte(v>>uint(shift)) != 0 {
				break
			}
			lz++
		}
		break
	}
	if lz > 255 {
		lz = 255
	}
	return 1 + s.RowSize() - lz
}

// diffReader parses a block's difference sequence in stream order. It is
// the only difference parser in the package: one concrete value (no
// closure, no interface; copy it to keep a rewind point) covering both
// framings, so every decode shape reads a block through the same code and
// rejects the same streams.
//
//	byte-RLE  count byte lz | RowSize-lz tail bytes        (AVQ, rep-only, delta-chain)
//	packed    lz in ceil(log2(n+1)) bits | digits lz..n-1   (CodecPacked, see packed.go)
//
// next materializes one difference as a digit vector, validating every
// digit against its radix; skip steps over differences reading only their
// framing, which is what keeps a point decode O(|idx - anchor|) digit
// parses; end applies the end-of-payload rule.
type diffReader struct {
	s    *relation.Schema
	body []byte
	pos  int // byte-RLE: offset of the next difference in body
	left int // differences not yet consumed

	packed  bool
	bits    bitio.Reader // packed: the bit stream after the anchor tuple
	widths  []uint       // packed: bits per digit
	suffix  []int        // packed: suffix[i] = bits of digits i..n-1
	lzWidth uint         // packed: bits of the leading-zero digit count
}

// newDiffReader positions a reader on the n differences that start at
// body[pos].
func newDiffReader(s *relation.Schema, packed bool, body []byte, pos, n int) diffReader {
	r := diffReader{s: s, body: body, pos: pos, left: n, packed: packed}
	if packed {
		r.bits.Reset(body[pos:])
		r.widths, r.suffix = packedBitWidthsCached(s)
		r.lzWidth = bitio.BitsFor(uint64(s.NumAttrs()) + 1)
	}
	return r
}

// rle parses the byte-RLE frame at r.pos — the leading-zero count byte and
// the tail bytes it implies — and advances past it.
func (r *diffReader) rle() (lz int, tail []byte, err error) {
	m := r.s.RowSize()
	if r.pos >= len(r.body) {
		return 0, nil, ErrTruncated
	}
	lz = int(r.body[r.pos])
	if lz > m {
		return 0, nil, fmt.Errorf("%w: leading-zero count %d exceeds tuple size %d", ErrCorrupt, lz, m)
	}
	end := r.pos + 1 + m - lz
	if end > len(r.body) {
		return 0, nil, ErrTruncated
	}
	tail = r.body[r.pos+1 : end]
	r.pos = end
	return lz, tail, nil
}

// packedLZ reads the leading-zero digit count that opens a packed
// difference.
func (r *diffReader) packedLZ() (int, error) {
	lz, err := r.bits.ReadBits(r.lzWidth)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if n := uint64(len(r.widths)); lz > n {
		return 0, fmt.Errorf("%w: leading-zero digit count %d exceeds arity %d", ErrCorrupt, lz, n)
	}
	return int(lz), nil
}

// next parses the next difference into d. This is the hot loop of block
// decoding (t2 in the paper's cost model).
func (r *diffReader) next(d relation.Tuple) error {
	r.left--
	if !r.packed {
		lz, tail, err := r.rle()
		if err != nil {
			return err
		}
		// Byte j of the fixed-width row is zero below lz and tail[j-lz]
		// from there on, so each digit reads only its bytes past the run.
		off := 0
		for i := range d {
			end := off + r.s.AttrWidth(i)
			var v uint64
			for j := max(off, lz); j < end; j++ {
				v = v<<8 | uint64(tail[j-lz])
			}
			if v >= r.s.Domain(i).Size {
				return errDigit(r.s, i, v)
			}
			d[i], off = v, end
		}
		return nil
	}
	lz, err := r.packedLZ()
	if err != nil {
		return err
	}
	// Arena tuples are not zeroed; clear the leading-zero digits
	// explicitly.
	for i := 0; i < lz; i++ {
		d[i] = 0
	}
	for i := lz; i < len(d); i++ {
		v, err := r.bits.ReadBits(r.widths[i])
		if err != nil {
			return fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		if v >= r.s.Domain(i).Size {
			return errDigit(r.s, i, v)
		}
		d[i] = v
	}
	return nil
}

// skip steps over the next n differences without materializing their
// digits.
func (r *diffReader) skip(n int) error {
	r.left -= n
	for ; n > 0; n-- {
		if !r.packed {
			if _, _, err := r.rle(); err != nil {
				return err
			}
			continue
		}
		lz, err := r.packedLZ()
		if err != nil {
			return err
		}
		if err := r.bits.Skip(uint(r.suffix[lz])); err != nil {
			return fmt.Errorf("%w: %v", ErrTruncated, err)
		}
	}
	return nil
}

// end is the end-of-payload rule, the same for every decode shape: a walk
// that consumed the block's last difference requires the payload to stop
// there (the packed bit stream may carry up to 7 bits of padding). A walk
// that stopped short has nothing to check.
func (r *diffReader) end() error {
	if r.left > 0 {
		return nil
	}
	spare := len(r.body) - r.pos
	if r.packed {
		spare = r.bits.Remaining() / 8
	}
	if spare != 0 {
		return fmt.Errorf("%w: %d trailing bytes after block payload", ErrCorrupt, spare)
	}
	return nil
}

// decodeRow parses one whole fixed-width row (an anchor tuple or a raw
// tuple) into t, holding its digits to the same radix check as next.
func decodeRow(s *relation.Schema, t relation.Tuple, row []byte) error {
	if err := s.DecodeTupleInto(t, row); err != nil {
		return err
	}
	for i, v := range t {
		if v >= s.Domain(i).Size {
			return errDigit(s, i, v)
		}
	}
	return nil
}

// errDigit rejects a digit that exceeds its radix: a valid difference of
// two ordinals below ||R|| is itself a tuple of the schema, so an
// out-of-radix digit can only come from corruption.
func errDigit(s *relation.Schema, i int, v uint64) error {
	return fmt.Errorf("%w: digit %d value %d outside radix %d", ErrCorrupt, i, v, s.Domain(i).Size)
}
