// Package core implements Augmented Vector Quantization (AVQ) block coding,
// the paper's primary contribution (Sections 2.2 and 3), together with the
// uncoded baseline and one bit-packed extension.
//
// A block holds a phi-ordered run of tuples. AVQ coding (Sections 3.2-3.4):
//
//  1. The median tuple of the run is the block's representative — the
//     output vector of the underlying vector quantizer. The median
//     minimizes total distortion sum |phi(t_i) - phi(rep)| over the block.
//  2. Every other tuple is replaced by a difference of ordinals. The
//     differences are chained (Example 3.3): tuples after the
//     representative store t_i - t_{i-1}; tuples before it store
//     t_{i+1} - t_i. All arithmetic is exact mixed-radix digit arithmetic,
//     which is why the scheme is lossless (Theorem 2.1).
//  3. Difference tuples are serialized fixed-width big-endian and their
//     run of leading zero bytes is replaced by a single count byte
//     (run-length coding per Golomb, as in Table (d) of Figure 3.3).
//
// Decoding reverses the chain outward from the representative; no codebook
// search is ever needed because the representative is stored in the block
// itself — the property the paper highlights over conventional VQ.
//
// The codec set is Codecs(): CodecRaw, fixed-width uncoded tuples (the
// paper's "No coding" baseline); CodecAVQ; and CodecPacked, AVQ with
// bit-packed differences (packed.go). Blocks are packed to their page by
// one greedy rule, Sizer.Chunk.
//
// Every block stream is self-describing (codec kind, tuple count,
// representative position) and carries a CRC-32 so corruption is detected
// rather than silently decoded.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/relation"
)

// Codec identifies a block coding scheme. Its value is the codec byte of
// every block stream, relfile header and table catalog, so values are
// never renumbered: bytes 2 and 3 are left invalid, and a stream or file
// that names them is refused with ErrBadCodec rather than misread.
type Codec uint8

const (
	// CodecRaw stores tuples fixed-width with no compression.
	CodecRaw Codec = 0
	// CodecAVQ is full AVQ: median representative, chained differences,
	// leading-zero run-length coding.
	CodecAVQ Codec = 1
	// CodecPacked is AVQ with bit-packed differences: digits occupy
	// ceil(log2 |A_i|) bits instead of whole bytes (see packed.go).
	CodecPacked Codec = 4
)

// Codecs returns the valid codecs in byte order.
func Codecs() []Codec { return []Codec{CodecRaw, CodecAVQ, CodecPacked} }

// ParseCodec returns the codec whose String is name.
func ParseCodec(name string) (Codec, error) {
	for _, c := range Codecs() {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("%w %q", ErrBadCodec, name)
}

// String returns the codec's name.
func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecAVQ:
		return "avq"
	case CodecPacked:
		return "packed"
	default:
		return fmt.Sprintf("Codec(%d)", uint8(c))
	}
}

// Valid reports whether c is one of Codecs().
func (c Codec) Valid() bool { return c == CodecRaw || c == CodecAVQ || c == CodecPacked }

const (
	// blockMagic is the first byte of every encoded block.
	blockMagic = 0xA7
	// crcSize is the length of the trailing CRC-32.
	crcSize = 4
)

// Codec stream layout:
//
//	magic (1) | codec (1) | count uvarint | payload... | crc32 (4)
//
// payload for CodecRaw:    count * RowSize tuple bytes
// payload for CodecAVQ:    repIndex uvarint | rep tuple | count-1 diffs
// payload for CodecPacked: repIndex uvarint | rep tuple | diff bit stream
//
// Each AVQ diff is: leading-zero count byte r | (RowSize - r) tail bytes.

// Error values reported by the decode entry points.
var (
	ErrBadMagic  = errors.New("core: block does not begin with AVQ magic byte")
	ErrBadCodec  = errors.New("core: unknown codec")
	ErrTruncated = errors.New("core: block stream truncated")
	ErrChecksum  = errors.New("core: block checksum mismatch")
	ErrCorrupt   = errors.New("core: block stream corrupt")
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// EncodeBlock encodes the given run of tuples with the chosen codec,
// appending the block stream to dst and returning the extended slice.
//
// The tuples must be valid for the schema and sorted ascending in phi
// order (duplicates are permitted); difference codecs rely on the order and
// return an error when it is violated.
func EncodeBlock(c Codec, s *relation.Schema, tuples []relation.Tuple, dst []byte) ([]byte, error) {
	if !c.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrBadCodec, uint8(c))
	}
	start := len(dst)
	dst = append(dst, blockMagic, byte(c))
	dst = binary.AppendUvarint(dst, uint64(len(tuples)))
	var err error
	switch c {
	case CodecRaw:
		for _, t := range tuples {
			dst = s.EncodeTuple(dst, t)
		}
	case CodecAVQ:
		dst, err = encodeAVQ(s, tuples, dst)
	case CodecPacked:
		dst, err = encodePacked(s, tuples, dst)
	}
	if err != nil {
		return nil, err
	}
	sum := crc32.Checksum(dst[start:], crcTable)
	return binary.BigEndian.AppendUint32(dst, sum), nil
}

// DecodeBlockArena decodes a block stream produced by EncodeBlock. It
// verifies the checksum, then reconstructs the tuples in phi order, carving
// every one out of the arena instead of the heap. The returned tuples alias
// the arena's slab and are valid until its next Reset; callers retaining
// them longer must Clone(). A nil arena decodes into a fresh one (one slab
// for the whole block), whose tuples the caller owns outright.
func DecodeBlockArena(s *relation.Schema, buf []byte, a *Arena) ([]relation.Tuple, error) {
	l, a, err := openBlock(s, buf, a)
	if err != nil {
		return nil, err
	}
	return l.span(0, l.count, a)
}

// BlockInfo summarizes an encoded block without decoding its tuples.
type BlockInfo struct {
	Codec      Codec
	TupleCount int
	StreamSize int // total bytes including header and checksum

	// RepIndex is the position (in phi order) of the block's anchor tuple:
	// the median representative for CodecAVQ and CodecPacked, and 0 for
	// CodecRaw, which has no chain.
	RepIndex int
}

// Inspect validates the header and checksum of an encoded block and
// returns its summary. The representative index is read straight from the
// stream prefix, so no tuple is ever decoded.
func Inspect(buf []byte) (BlockInfo, error) {
	body, count, c, err := checkHeader(buf)
	if err != nil {
		return BlockInfo{}, err
	}
	info := BlockInfo{Codec: c, TupleCount: count, StreamSize: len(buf)}
	if count > 0 && c != CodecRaw {
		if info.RepIndex, _, err = readAnchorIndex(body, count); err != nil {
			return BlockInfo{}, err
		}
	}
	return info, nil
}

// checkHeader verifies magic, codec, count, and checksum, returning the
// payload body (header and checksum stripped).
func checkHeader(buf []byte) (body []byte, count int, c Codec, err error) {
	return readHeader(buf, true)
}

// readHeader is checkHeader that, with crc false, leaves the checksum
// unread: for a stream the caller has just encoded or verified.
func readHeader(buf []byte, crc bool) (body []byte, count int, c Codec, err error) {
	if len(buf) < 2+1+crcSize {
		return nil, 0, 0, ErrTruncated
	}
	if buf[0] != blockMagic {
		return nil, 0, 0, ErrBadMagic
	}
	c = Codec(buf[1])
	if !c.Valid() {
		return nil, 0, 0, fmt.Errorf("%w: %d", ErrBadCodec, buf[1])
	}
	payload := buf[: len(buf)-crcSize : len(buf)-crcSize]
	if crc {
		want := binary.BigEndian.Uint32(buf[len(buf)-crcSize:])
		if got := crc32.Checksum(payload, crcTable); got != want {
			return nil, 0, 0, fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, want)
		}
	}
	u, n := binary.Uvarint(payload[2:])
	if n <= 0 {
		return nil, 0, 0, fmt.Errorf("%w: bad tuple count", ErrCorrupt)
	}
	const maxBlockTuples = 1 << 24
	if u > maxBlockTuples {
		return nil, 0, 0, fmt.Errorf("%w: implausible tuple count %d", ErrCorrupt, u)
	}
	// Every tuple contributes at least one payload byte under the
	// byte-granular codecs (a count byte or a digit byte) and at least one
	// bit under the packed codec, so counts beyond those bounds are
	// corrupt; checking here keeps decoders from sizing buffers off an
	// untrusted count.
	body = payload[2+n:]
	bound := uint64(len(body))
	if c == CodecPacked {
		bound = uint64(len(body))*8 + 8
	}
	if u > 0 && u > bound {
		return nil, 0, 0, fmt.Errorf("%w: tuple count %d exceeds %d payload bytes", ErrCorrupt, u, len(body))
	}
	return body, int(u), c, nil
}
