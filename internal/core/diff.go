package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

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
// split parses differences in the schema's split-ordinal form
// (relation.Schema.Split): the digits of the suffix attributes at..n-1
// folded into one uint64, plus the prefix digits when the difference
// reaches them. It validates every digit past the zero run against its
// radix (the digits inside the run are zero, which every radix admits).
// skip steps over differences reading only their framing, which is what
// keeps a point decode O(|idx - anchor|) digit parses; end applies the
// end-of-payload rule.
type diffReader struct {
	s       *relation.Schema
	body    []byte
	pos     int                // byte-RLE: offset of the next difference in body
	left    int                // differences not yet consumed
	m       int                // s.RowSize()
	radices []uint64           // s.Radices()
	plan    *relation.TailPlan // s.TailPlan(): window's fixed parse

	// The split (s.Split()): attributes at..n-1 fold into one ordinal
	// below space with the given weights.
	at      int
	weights []uint64
	space   uint64

	packed  bool
	bits    bitio.Reader // packed: the bit stream after the anchor tuple
	widths  []uint       // packed: bits per digit
	suffix  []int        // packed: suffix[i] = bits of digits i..n-1
	lzWidth uint         // packed: bits of the leading-zero digit count
}

// newDiffReader positions a reader on the n differences that start at
// body[pos].
func newDiffReader(s *relation.Schema, packed bool, body []byte, pos, n int) diffReader {
	r := diffReader{s: s, body: body, pos: pos, left: n, m: s.RowSize(), radices: s.Radices(), plan: s.TailPlan(), packed: packed}
	r.at, r.weights, r.space = s.Split()
	if packed {
		r.bits.Reset(body[pos:])
		r.widths, r.suffix = s.BitWidths()
		r.lzWidth = bitio.BitsFor(uint64(s.NumAttrs()) + 1)
	}
	return r
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

// next parses the next packed difference into d and returns k, its
// leading-zero digit count: d[:k] is zero (cleared here, since arena
// tuples are not zeroed) and only d[k:] is read from the stream.
func (r *diffReader) next(d relation.Tuple) (k int, err error) {
	r.left--
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

// zero clears d[:k]: a counted loop, which for the few digits of a zero
// run is cheaper than the runtime memclr that clear compiles to.
func zero(d relation.Tuple, k int) {
	for i := 0; i < k; i++ {
		d[i] = 0
	}
}

// split parses the next len(dst) differences in split-ordinal form:
// dst[j] = Σ d_i·w_i over the suffix attributes i >= at, one uint64, and,
// when the schema has a prefix (at > 0), ks[j] = min(k, at) for k the
// attribute holding the difference's first tail byte. A difference that
// reaches the prefix (k < at) also parks its prefix digits in
// park[j][k:at]. At split 0 ks and park may be nil.
//
// A byte-RLE frame that stays in the suffix — every frame on a flat
// schema, 75 % of wide38's — is parsed by window, any other by long.
// Packed frames parse through next into the scratch vector d.
func (r *diffReader) split(dst, ks []uint64, park []relation.Tuple, d relation.Tuple) error {
	at, n := r.at, len(r.radices)
	if r.packed {
		for j := range dst {
			k, err := r.next(d)
			if err != nil {
				return err
			}
			var dS uint64
			for i := max(k, at); i < n; i++ {
				dS += d[i] * r.weights[i]
			}
			dst[j] = dS
			if at > 0 {
				k = min(k, at)
				copy(park[j][k:at], d[k:at])
				ks[j] = uint64(k)
			}
		}
		return nil
	}
	r.left -= len(dst)
	if at > 0 {
		ks = ks[:len(dst)]
		for j := range ks {
			ks[j] = uint64(at) // window's frames; long overwrites its own
		}
	}
	for j := 0; ; j++ {
		if j = r.window(dst, j); j == len(dst) {
			return nil
		}
		lz, end, ok := frame(r.body, r.pos, r.m)
		if !ok {
			return r.errFrame()
		}
		r.pos = end
		if lz == r.m {
			dst[j] = 0 // a duplicate within 16 bytes of the body's start
			continue
		}
		var row relation.Tuple
		if at > 0 {
			row = park[j]
		}
		var k int
		var err error
		if dst[j], k, err = r.long(end, lz, row); err != nil {
			return err
		}
		if at > 0 {
			ks[j] = uint64(k)
		}
	}
}

// window is split's loop over the frames that stay in the suffix and in
// the row's last 16 bytes, from dst[j] on, through the schema's fixed
// tail plan (relation.TailPlan): the same few operations for every frame,
// whatever its lz. Byte j of a frame's row is zero below lz and
// body[end-m+j] from there on, so the row's last 16 bytes are two
// big-endian word loads ending at the frame's last byte; the plan's
// tables for a tail of t = m-lz bytes are zero past it, which masks the
// bytes before the tail, and the earlier frames they belong to, out. The
// suffix ordinal is the dot product of the 16 bytes with the per-byte
// weights: one multiply each, at constant offsets. The radix check is two
// parity passes over the 16 bytes as one 128-bit add each, with a guard
// bit above every field and the carry out of the top one. window stops at
// the first frame it does not take, leaving r.pos on its count byte, and
// returns its index (len(dst) when there is none): a frame that breaks
// the framing rule, reaches the prefix, has a tail over 16 bytes or starts
// within 16 bytes of the body's start, or fails the check, for long to
// parse or reject digit by digit. It calls nothing, so the loop keeps its
// state in registers.
func (r *diffReader) window(dst []uint64, j int) int {
	p, body, pos, m := r.plan, r.body[:len(r.body):len(r.body)], r.pos, r.m
	if pos < 15 {
		return j // a frame ends at pos+1 or later: from pos 15 on, at 16 or later
	}
	for ; j < len(dst) && pos < len(body); j++ {
		// The framing rule (frame) and lz >= m-MaxTail in two compares.
		t := m - int(body[pos])
		end := pos + 1 + t
		if uint(t) > uint(p.MaxTail) || end > len(body) {
			break
		}
		row := (*[16]byte)(body[end-16 : end : end])
		tb := &p.Tails[t]
		lo := binary.BigEndian.Uint64(row[8:])
		hi := binary.BigEndian.Uint64(row[:8])
		// Two parity passes over the 16 bytes, each one 128-bit add.
		s0, c := bits.Add64(lo&tb.Keep[0][0], p.Add[0][0], 0)
		s1, c := bits.Add64(hi&tb.Keep[0][1], p.Add[0][1], c)
		if s0&p.Guard[0][0]|s1&p.Guard[0][1]|c != 0 {
			break
		}
		s0, c = bits.Add64(lo&tb.Keep[1][0], p.Add[1][0], 0)
		s1, c = bits.Add64(hi&tb.Keep[1][1], p.Add[1][1], c)
		if s0&p.Guard[1][0]|s1&p.Guard[1][1]|c != 0 {
			break
		}
		w := &tb.Weights
		dst[j] = uint64(row[15])*w[0] + uint64(row[14])*w[1] + uint64(row[13])*w[2] + uint64(row[12])*w[3] +
			uint64(row[11])*w[4] + uint64(row[10])*w[5] + uint64(row[9])*w[6] + uint64(row[8])*w[7] +
			uint64(row[7])*w[8] + uint64(row[6])*w[9] + uint64(row[5])*w[10] + uint64(row[4])*w[11] +
			uint64(row[3])*w[12] + uint64(row[2])*w[13] + uint64(row[1])*w[14] + uint64(row[0])*w[15]
		pos = end
	}
	r.pos = pos
	return j
}

// byteMask[n] keeps the low n bytes of a word.
var byteMask = [9]uint64{0, 1<<8 - 1, 1<<16 - 1, 1<<24 - 1, 1<<32 - 1, 1<<40 - 1, 1<<48 - 1, 1<<56 - 1, ^uint64(0)}

// long parses the byte-RLE frame ending at body[end] with zero run lz <
// m that window does not take — one that reaches the prefix, has a tail
// over 16 bytes or starts within 16 bytes of the body's start — and
// rejects the one that fails window's check, naming the first digit out
// of its radix. Byte j of its row is zero below lz and body[end-m+j] from
// there on, so each field past the run is the low bytes of the word that
// ends with it. It returns the suffix ordinal and k = min(attribute
// holding byte lz, at), with the prefix digits in row[k:at] (row is nil
// at split 0).
func (r *diffReader) long(end, lz int, row relation.Tuple) (dS uint64, k int, err error) {
	at := r.at
	body, rad, wts := r.body, r.radices, r.weights[:len(r.radices)]
	wid := r.s.AttrWidths()[:len(rad)]
	i := r.s.AttrAtByte(lz)
	fe := r.s.AttrOffset(i) + wid[i]
	p := end - r.m + fe // where field i ends in body
	v := word(body, p, fe-lz)
	// The prefix digits, and any while the word ending with the field
	// would start before the body (the block's first differences).
	for k = min(i, at); i < at || p < 8; {
		if v >= rad[i] {
			return 0, 0, errDigit(r.s, i, v)
		}
		if i < at {
			row[i] = v
		} else {
			dS += v * wts[i]
		}
		if i++; i == len(rad) {
			return dS, k, nil
		}
		p += wid[i]
		v = word(body, p, wid[i])
	}
	for {
		if v >= rad[i] {
			return 0, 0, errDigit(r.s, i, v)
		}
		dS += v * wts[i]
		if i++; i == len(rad) {
			return dS, k, nil
		}
		p += wid[i]
		v = binary.BigEndian.Uint64(body[p-8:p]) & byteMask[wid[i]]
	}
}

// word returns the n <= 8 bytes of body that end at p as a big-endian
// number: one load of the word ending there, masked to its low n bytes.
func word(body []byte, p, n int) uint64 {
	if p >= 8 {
		return binary.BigEndian.Uint64(body[p-8:p]) & byteMask[n]
	}
	var v uint64 // the word would start before the body: the block's first differences
	for _, c := range body[p-n : p] {
		v = v<<8 | uint64(c)
	}
	return v
}

// skip steps over the next n differences without materializing their
// digits: a byte-RLE frame is its count byte and the tail it implies.
func (r *diffReader) skip(n int) error {
	r.left -= n
	if !r.packed {
		body, pos, m := r.body, r.pos, r.m
		for ; n > 0; n-- {
			_, end, ok := frame(body, pos, m)
			if !ok {
				r.pos = pos
				return r.errFrame()
			}
			pos = end
		}
		r.pos = pos
		return nil
	}
	for ; n > 0; n-- {
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

// seek positions a byte-RLE reader on the difference at byte offset off,
// with left differences still to read: a walk's start at a restart
// (Restarts).
func (r *diffReader) seek(off, left int) error {
	if off < 0 || off > len(r.body) {
		return fmt.Errorf("%w: restart offset %d outside the payload", ErrCorrupt, off)
	}
	r.pos, r.left = off, left
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
