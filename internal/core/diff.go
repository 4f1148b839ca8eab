package core

import (
	"encoding/binary"
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
//	byte-RLE  count byte lz | RowSize-lz tail bytes        (CodecAVQ)
//	packed    lz in ceil(log2(n+1)) bits | digits lz..n-1   (CodecPacked, see packed.go)
//
// next materializes one difference as a digit vector and phis folds each
// straight to φ(d); both validate every digit past the zero run against
// its radix (the digits inside the run are zero, which every radix
// admits). skip steps over differences reading only their framing, which
// is what keeps a point decode O(|idx - anchor|) digit parses; end applies
// the end-of-payload rule.
type diffReader struct {
	s       *relation.Schema
	body    []byte
	pos     int      // byte-RLE: offset of the next difference in body
	left    int      // differences not yet consumed
	m       int      // s.RowSize()
	radices []uint64 // s.Radices()
	weights []uint64 // s.FlatWeights(); nil on a non-flat schema

	packed  bool
	bits    bitio.Reader // packed: the bit stream after the anchor tuple
	widths  []uint       // packed: bits per digit
	suffix  []int        // packed: suffix[i] = bits of digits i..n-1
	lzWidth uint         // packed: bits of the leading-zero digit count
}

// newDiffReader positions a reader on the n differences that start at
// body[pos].
func newDiffReader(s *relation.Schema, packed bool, body []byte, pos, n int) diffReader {
	r := diffReader{s: s, body: body, pos: pos, left: n, m: s.RowSize(), radices: s.Radices(), packed: packed}
	r.weights, _ = s.FlatWeights()
	if packed {
		r.bits.Reset(body[pos:])
		r.widths, r.suffix = s.BitWidths()
		r.lzWidth = bitio.BitsFor(uint64(s.NumAttrs()) + 1)
	}
	return r
}

// rle parses the byte-RLE frame at r.pos — the leading-zero count byte and
// the tail bytes it implies — and advances past it.
func (r *diffReader) rle() (lz int, err error) {
	lz, end, ok := frame(r.body, r.pos, r.m)
	if !ok {
		return 0, r.errFrame()
	}
	r.pos = end
	return lz, nil
}

// frame is the byte-RLE framing rule: the frame at body[pos] is a count
// byte lz <= m and m-lz tail bytes ending at end <= len(body).
func frame(body []byte, pos, m int) (lz, end int, ok bool) {
	if pos >= len(body) {
		return 0, 0, false
	}
	lz = int(body[pos])
	end = pos + 1 + m - lz
	return lz, end, lz <= m && end <= len(body)
}

// errFrame rejects the frame at r.pos: no count byte, a count byte beyond
// the row, or a tail running past the payload.
func (r *diffReader) errFrame() error {
	if r.pos < len(r.body) && int(r.body[r.pos]) > r.m {
		return fmt.Errorf("%w: leading-zero count %d exceeds tuple size %d", ErrCorrupt, r.body[r.pos], r.m)
	}
	return ErrTruncated
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

// next parses the next difference into d and returns k, the first digit
// past its zero run: d[:k] is zero (cleared here, since arena tuples are
// not zeroed) and only d[k:] is read from the stream. The tuple walk's
// chained add and subtract start from k. This is the hot loop of the
// tuple decode (t2 in the paper's cost model).
func (r *diffReader) next(d relation.Tuple) (k int, err error) {
	r.left--
	if r.packed {
		lz, err := r.packedLZ()
		if err != nil {
			return 0, err
		}
		zero(d, lz)
		for i := lz; i < len(d); i++ {
			v, err := r.bits.ReadBits(r.widths[i])
			if err != nil {
				return 0, fmt.Errorf("%w: %v", ErrTruncated, err)
			}
			if v >= r.radices[i] {
				return 0, errDigit(r.s, i, v)
			}
			d[i] = v
		}
		return lz, nil
	}
	lz, err := r.rle()
	if err != nil {
		return 0, err
	}
	if lz == r.m {
		zero(d, len(d))
		return len(d), nil
	}
	// Byte j of the fixed-width row is zero below lz and body[row+j] from
	// there on, so each attribute past the run is the low bytes of the
	// word that ends with its field, masked to its bytes past the run.
	k = r.s.AttrAtByte(lz)
	zero(d, k)
	rad := r.radices
	d, wid := d[:len(rad)], r.s.AttrWidths()[:len(rad)]
	off, row := r.s.AttrOffset(k), r.pos-r.m
	for i := k; i < len(rad); i++ {
		end := off + wid[i]
		n := uint(end - max(off, lz))
		var v uint64
		if p := row + end; p >= 8 {
			v = binary.BigEndian.Uint64(r.body[p-8:p]) & (^uint64(0) >> ((64 - 8*n) & 63))
		} else { // the word would start before the body: the block's first differences
			for _, c := range r.body[p-int(n) : p] {
				v = v<<8 | uint64(c)
			}
		}
		if v >= rad[i] {
			return 0, errDigit(r.s, i, v)
		}
		d[i], off = v, end
	}
	return k, nil
}

// zero clears d[:k]: a counted loop, which for the few digits of a zero
// run is cheaper than the runtime memclr that clear compiles to.
func zero(d relation.Tuple, k int) {
	for i := 0; i < k; i++ {
		d[i] = 0
	}
}

// maxWordRow is the widest byte-RLE row phis parses as two machine words.
const maxWordRow = 16

// phis parses the next len(dst) differences straight to dst[j] = φ(d_j) =
// Σ d_i·w_i over the schema's FlatWeights, filling no digit vector: the φ
// walk's hot loop. The schema must be flat. A byte-RLE row of at most 16
// bytes is read as one 128-bit big-endian number — the tail's one or two
// words, loaded backward from its last byte and masked to its m-lz bytes
// — and each attribute from the one holding byte lz onward is a shift and
// a mask of it: one radix check and one independent multiply per visited
// digit, none for the attributes inside the zero run. Wider rows and the
// packed framing parse through next into the scratch vector d.
func (r *diffReader) phis(dst []uint64, d relation.Tuple) error {
	if r.packed || r.m > maxWordRow {
		for j := range dst {
			k, err := r.next(d)
			if err != nil {
				return err
			}
			var phi uint64
			for i := k; i < len(d); i++ {
				phi += d[i] * r.weights[i]
			}
			dst[j] = phi
		}
		return nil
	}
	r.left -= len(dst)
	body, pos, m := r.body, r.pos, r.m
	rad := r.radices
	wts, wid := r.weights[:len(rad)], r.s.AttrWidths()[:len(rad)]
	for j := range dst {
		lz, end, ok := frame(body, pos, m)
		if !ok {
			r.pos = pos
			return r.errFrame()
		}
		pos = end
		n := uint(m - lz)
		var hi, lo uint64
		switch {
		case n == 0:
			dst[j] = 0
			continue
		case n <= 8 && end >= 8:
			lo = binary.BigEndian.Uint64(body[end-8:end]) & (^uint64(0) >> ((64 - 8*n) & 63))
		case end >= 16:
			lo = binary.BigEndian.Uint64(body[end-8 : end])
			hi = binary.BigEndian.Uint64(body[end-16:end-8]) & (^uint64(0) >> ((128 - 8*n) & 63))
		default: // a backward load would leave the body: the block's first differences
			for _, c := range body[end-int(n) : end] {
				hi, lo = hi<<8|lo>>56, lo<<8|uint64(c)
			}
		}
		i := r.s.AttrAtByte(lz)
		sh := uint(8 * (m - r.s.AttrOffset(i))) // bits below attribute i's field, plus its own
		var phi uint64
		if n <= 8 {
			// Every visited field lies in lo.
			for ; i < len(rad); i++ {
				bits := uint(8 * wid[i])
				sh -= bits
				v := lo >> (sh & 63) & (^uint64(0) >> ((64 - bits) & 63))
				if v >= rad[i] {
					return errDigit(r.s, i, v)
				}
				phi += v * wts[i]
			}
		} else {
			for ; i < len(rad); i++ {
				bits := uint(8 * wid[i])
				sh -= bits
				v := hi >> (sh & 63)
				if sh < 64 {
					v = lo>>sh | hi<<1<<(63-sh)
				}
				v &= ^uint64(0) >> ((64 - bits) & 63)
				if v >= rad[i] {
					return errDigit(r.s, i, v)
				}
				phi += v * wts[i]
			}
		}
		dst[j] = phi
	}
	r.pos = pos
	return nil
}

// skip steps over the next n differences without materializing their
// digits.
func (r *diffReader) skip(n int) error {
	r.left -= n
	for ; n > 0; n-- {
		if !r.packed {
			if _, err := r.rle(); err != nil {
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

// offset is where the next difference starts: a byte offset into the body
// for byte-RLE, a bit offset into the bit stream for packed.
func (r *diffReader) offset() int {
	if r.packed {
		return r.bits.Offset()
	}
	return r.pos
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
