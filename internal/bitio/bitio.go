// Package bitio provides MSB-first bit-level readers and writers over byte
// slices. The packed AVQ codec variant uses it to store difference digits
// in ceil(log2 |A_i|) bits instead of whole bytes, recovering the bits the
// paper's byte-granular count scheme leaves on the table when domain sizes
// are not powers of 256.
package bitio

import (
	"errors"
)

// ErrOverrun is returned when a read passes the end of the input.
var ErrOverrun = errors.New("bitio: read past end of input")

// Writer accumulates bits MSB-first into a byte slice.
type Writer struct {
	buf  []byte
	cur  byte
	nCur uint // bits currently in cur, 0..7
}

// NewWriter returns a writer appending to dst (which may be nil).
func NewWriter(dst []byte) *Writer {
	return &Writer{buf: dst}
}

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic("bitio: more than 64 bits")
	}
	for n > 0 {
		take := 8 - w.nCur
		if take > n {
			take = n
		}
		bits := byte(v >> (n - take) & (1<<take - 1))
		w.cur = w.cur<<take | bits
		w.nCur += take
		n -= take
		if w.nCur == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.nCur = 0, 0
		}
	}
}

// Bytes flushes any partial byte (zero-padded on the right) and returns
// the accumulated buffer. The writer may continue to be used; the partial
// byte is only materialized in the returned slice.
func (w *Writer) Bytes() []byte {
	if w.nCur == 0 {
		return w.buf
	}
	return append(w.buf, w.cur<<(8-w.nCur))
}

// BitLen returns the number of bits written so far.
func (w *Writer) BitLen() int {
	return len(w.buf)*8 + int(w.nCur)
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos uint // bit position
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset points the reader at buf and rewinds it, letting callers keep a
// Reader by value (no allocation) on hot decode paths.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
}

// ReadBits reads n bits (n in [0, 64]) MSB-first.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic("bitio: more than 64 bits")
	}
	if r.pos+n > uint(len(r.buf))*8 {
		return 0, ErrOverrun
	}
	var v uint64
	for n > 0 {
		byteIdx := r.pos / 8
		bitOff := r.pos % 8
		avail := 8 - bitOff
		take := avail
		if take > n {
			take = n
		}
		chunk := uint64(r.buf[byteIdx] >> (avail - take) & (1<<take - 1))
		v = v<<take | chunk
		r.pos += take
		n -= take
	}
	return v, nil
}

// Skip advances the reader n bits without assembling them, so a caller
// that knows a field's width can step over it in O(1).
func (r *Reader) Skip(n uint) error {
	if r.pos+n > uint(len(r.buf))*8 {
		return ErrOverrun
	}
	r.pos += n
	return nil
}

// Offset returns the current bit position.
func (r *Reader) Offset() int { return int(r.pos) }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return len(r.buf)*8 - int(r.pos) }

// BitsFor returns the number of bits needed to represent values in
// [0, size), minimum 1. size must be at least 1.
func BitsFor(size uint64) uint {
	n := uint(1)
	for max := size - 1; max > 1; max >>= 1 {
		n++
	}
	return n
}
