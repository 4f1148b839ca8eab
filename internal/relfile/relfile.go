// Package relfile defines the on-disk interchange formats for relations:
//
//   - the plain format (.rel): a schema followed by fixed-width numeric
//     tuples, the paper's "table of numerical tuples" after attribute
//     encoding;
//   - the compressed format (.avq): a schema followed by coded blocks, the
//     physical layout of Section 3 with one stream per disk block.
//
// Both formats are self-describing and checksummed at the block level (the
// core codec's CRC) so the avqtool commands can compress, decompress,
// inspect, and verify files without side metadata.
package relfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Format magics. The trailing byte versions the format. Version 2 of the
// compressed format prefixes every block stream with its φ-fence (first
// tuple, last tuple, tuple count), so readers can prune blocks against a
// range predicate without decoding them and tables can restore fences
// without a rebuild scan.
var (
	magicPlain        = []byte("AVQREL1\n")
	magicCompressed   = []byte("AVQBLK1\n")
	magicCompressedV2 = []byte("AVQBLK2\n")
)

// Errors returned by readers.
var (
	ErrBadMagic  = errors.New("relfile: not a relation file")
	ErrTruncated = errors.New("relfile: truncated file")
)

// writeUvarint writes v as a uvarint.
func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

// readUvarint reads a uvarint from r.
func readUvarint(r *bufio.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err == io.EOF {
		return 0, ErrTruncated
	}
	return v, err
}

// writeSchema serializes the schema section: a length-prefixed
// relation.AppendBinary blob.
func writeSchema(w *bufio.Writer, s *relation.Schema) error {
	blob := s.AppendBinary(nil)
	if err := writeUvarint(w, uint64(len(blob))); err != nil {
		return err
	}
	_, err := w.Write(blob)
	return err
}

// readSchema parses the schema section.
func readSchema(r *bufio.Reader) (*relation.Schema, error) {
	l, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	const maxSchemaBlob = 1 << 24
	if l > maxSchemaBlob {
		return nil, fmt.Errorf("relfile: implausible schema size %d", l)
	}
	blob := make([]byte, l)
	if _, err := io.ReadFull(r, blob); err != nil {
		return nil, ErrTruncated
	}
	s, n, err := relation.DecodeSchemaBinary(blob)
	if err != nil {
		return nil, err
	}
	if n != int(l) {
		return nil, fmt.Errorf("relfile: %d trailing bytes in schema section", int(l)-n)
	}
	return s, nil
}

func expectMagic(r *bufio.Reader, magic []byte) error {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil {
		return ErrBadMagic
	}
	for i := range magic {
		if got[i] != magic[i] {
			return ErrBadMagic
		}
	}
	return nil
}

// WritePlain writes the schema and tuples in the plain format.
func WritePlain(w io.Writer, s *relation.Schema, tuples []relation.Tuple) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicPlain); err != nil {
		return err
	}
	if err := writeSchema(bw, s); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(len(tuples))); err != nil {
		return err
	}
	buf := make([]byte, 0, s.RowSize())
	for i, tu := range tuples {
		if err := s.ValidateTuple(tu); err != nil {
			return fmt.Errorf("relfile: tuple %d: %w", i, err)
		}
		buf = s.EncodeTuple(buf[:0], tu)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPlain reads a plain-format relation.
func ReadPlain(r io.Reader) (*relation.Schema, []relation.Tuple, error) {
	br := bufio.NewReader(r)
	if err := expectMagic(br, magicPlain); err != nil {
		return nil, nil, err
	}
	s, err := readSchema(br)
	if err != nil {
		return nil, nil, err
	}
	count, err := readUvarint(br)
	if err != nil {
		return nil, nil, err
	}
	const maxTuples = 1 << 31
	if count > maxTuples {
		return nil, nil, fmt.Errorf("relfile: implausible tuple count %d", count)
	}
	// Grow incrementally: the declared count is untrusted input, and
	// pre-allocating it would let a tiny corrupt file demand gigabytes.
	const initialCap = 1 << 12
	capHint := count
	if capHint > initialCap {
		capHint = initialCap
	}
	tuples := make([]relation.Tuple, 0, capHint)
	buf := make([]byte, s.RowSize())
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, nil, ErrTruncated
		}
		tu, err := s.DecodeTuple(buf)
		if err != nil {
			return nil, nil, err
		}
		if err := s.ValidateTuple(tu); err != nil {
			return nil, nil, fmt.Errorf("relfile: tuple %d: %w", i, err)
		}
		tuples = append(tuples, tu)
	}
	return s, tuples, nil
}

// BlockFence is the φ-fence of one coded block: its first and last tuples
// in phi order plus the tuple count. A version-2 file stores one per block
// so a reader can decide block relevance from the header alone.
type BlockFence struct {
	First, Last relation.Tuple
	Count       int
}

// CompressedInfo summarizes a compressed file.
type CompressedInfo struct {
	Schema    *relation.Schema
	Codec     core.Codec
	Version   int // compressed-format version: 1 or 2
	BlockSize int
	Blocks    int
	Tuples    int
	// StreamBytes is the total coded payload; BlockBytes is what the
	// relation would occupy in block-granular storage.
	StreamBytes int
	BlockBytes  int
	// Fences holds the per-block φ-fences (version 2 files only), and
	// Anchors the per-block representative ordinal, both populated by
	// InspectCompressed.
	Fences  []BlockFence
	Anchors []int
}

// WriteCompressed sorts the tuples into phi order (Section 3.2), packs them
// into blocks of at most blockSize coded bytes (Section 3.3-3.4), and
// writes the version-2 compressed format, in which each block stream is
// prefixed by its φ-fence. It returns the resulting layout info.
func WriteCompressed(w io.Writer, s *relation.Schema, tuples []relation.Tuple, codec core.Codec, blockSize int) (CompressedInfo, error) {
	info := CompressedInfo{Schema: s, Codec: codec, Version: 2, BlockSize: blockSize, Tuples: len(tuples)}
	if !codec.Valid() {
		return info, fmt.Errorf("relfile: %w: %d", core.ErrBadCodec, uint8(codec))
	}
	if blockSize <= s.RowSize() {
		return info, fmt.Errorf("relfile: block size %d cannot hold one %d-byte tuple", blockSize, s.RowSize())
	}
	sorted := make([]relation.Tuple, len(tuples))
	for i, tu := range tuples {
		if err := s.ValidateTuple(tu); err != nil {
			return info, fmt.Errorf("relfile: tuple %d: %w", i, err)
		}
		sorted[i] = tu
	}
	s.SortTuples(sorted)

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicCompressedV2); err != nil {
		return info, err
	}
	if err := writeSchema(bw, s); err != nil {
		return info, err
	}
	if err := writeUvarint(bw, uint64(blockSize)); err != nil {
		return info, err
	}
	if err := bw.WriteByte(byte(codec)); err != nil {
		return info, err
	}

	// Pack first so the block count can prefix the streams.
	runs, _, err := core.Pack(codec, s, sorted, blockSize)
	if err != nil {
		return info, fmt.Errorf("relfile: block size %d: %w", blockSize, err)
	}
	if err := writeUvarint(bw, uint64(len(runs))); err != nil {
		return info, err
	}
	buf := make([]byte, 0, s.RowSize())
	fences := make([]BlockFence, len(runs))
	var stream []byte
	for i, run := range runs {
		if stream, err = core.EncodeBlock(codec, s, run, stream[:0]); err != nil {
			return info, err
		}
		fences[i] = BlockFence{First: run[0].Clone(), Last: run[len(run)-1].Clone(), Count: len(run)}
		if err := writeFence(bw, s, fences[i], buf); err != nil {
			return info, err
		}
		if err := writeUvarint(bw, uint64(len(stream))); err != nil {
			return info, err
		}
		if _, err := bw.Write(stream); err != nil {
			return info, err
		}
		info.StreamBytes += len(stream)
	}
	info.Blocks = len(runs)
	info.BlockBytes = len(runs) * blockSize
	info.Fences = fences
	return info, bw.Flush()
}

// writeFence writes one φ-fence: count, then the first and last tuples in
// the schema's fixed-width encoding.
func writeFence(w *bufio.Writer, s *relation.Schema, f BlockFence, buf []byte) error {
	if err := writeUvarint(w, uint64(f.Count)); err != nil {
		return err
	}
	for _, tu := range []relation.Tuple{f.First, f.Last} {
		buf = s.EncodeTuple(buf[:0], tu)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// readFence reads one φ-fence.
func readFence(br *bufio.Reader, s *relation.Schema) (BlockFence, error) {
	count, err := readUvarint(br)
	if err != nil {
		return BlockFence{}, err
	}
	const maxTuples = 1 << 31
	if count == 0 || count > maxTuples {
		return BlockFence{}, fmt.Errorf("relfile: implausible fence tuple count %d", count)
	}
	f := BlockFence{Count: int(count)}
	buf := make([]byte, s.RowSize())
	for _, dst := range []*relation.Tuple{&f.First, &f.Last} {
		if _, err := io.ReadFull(br, buf); err != nil {
			return BlockFence{}, ErrTruncated
		}
		tu, err := s.DecodeTuple(buf)
		if err != nil {
			return BlockFence{}, err
		}
		*dst = tu
	}
	if s.Compare(f.First, f.Last) > 0 {
		return BlockFence{}, fmt.Errorf("relfile: fence out of phi order")
	}
	return f, nil
}

// readCompressedHeader parses everything before the block streams,
// accepting both compressed-format versions.
func readCompressedHeader(br *bufio.Reader) (CompressedInfo, error) {
	var info CompressedInfo
	got := make([]byte, len(magicCompressed))
	if _, err := io.ReadFull(br, got); err != nil {
		return info, ErrBadMagic
	}
	switch string(got) {
	case string(magicCompressed):
		info.Version = 1
	case string(magicCompressedV2):
		info.Version = 2
	default:
		return info, ErrBadMagic
	}
	s, err := readSchema(br)
	if err != nil {
		return info, err
	}
	blockSize, err := readUvarint(br)
	if err != nil {
		return info, err
	}
	codecByte, err := br.ReadByte()
	if err != nil {
		return info, ErrTruncated
	}
	codec := core.Codec(codecByte)
	if !codec.Valid() {
		return info, fmt.Errorf("relfile: %w: %d", core.ErrBadCodec, codecByte)
	}
	blocks, err := readUvarint(br)
	if err != nil {
		return info, err
	}
	const maxBlocks = 1 << 31
	if blocks > maxBlocks {
		return info, fmt.Errorf("relfile: implausible block count %d", blocks)
	}
	info.Schema = s
	info.BlockSize = int(blockSize)
	info.Codec = codec
	info.Blocks = int(blocks)
	return info, nil
}

// ReadCompressed decodes every block of a compressed file, returning the
// relation in phi order.
func ReadCompressed(r io.Reader) (*relation.Schema, []relation.Tuple, error) {
	br := bufio.NewReader(r)
	info, err := readCompressedHeader(br)
	if err != nil {
		return nil, nil, err
	}
	var tuples []relation.Tuple
	for b := 0; b < info.Blocks; b++ {
		var fence BlockFence
		if info.Version >= 2 {
			if fence, err = readFence(br, info.Schema); err != nil {
				return nil, nil, fmt.Errorf("relfile: block %d: %w", b, err)
			}
		}
		stream, err := readStream(br, info.BlockSize)
		if err != nil {
			return nil, nil, fmt.Errorf("relfile: block %d: %w", b, err)
		}
		blk, err := core.DecodeBlockArena(info.Schema, stream, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("relfile: block %d: %w", b, err)
		}
		if info.Version >= 2 {
			if err := checkFence(info.Schema, fence, blk); err != nil {
				return nil, nil, fmt.Errorf("relfile: block %d: %w", b, err)
			}
		}
		tuples = append(tuples, blk...)
	}
	return info.Schema, tuples, nil
}

// checkFence verifies a block's stored φ-fence against its decoded tuples.
func checkFence(s *relation.Schema, f BlockFence, blk []relation.Tuple) error {
	if f.Count != len(blk) {
		return fmt.Errorf("relfile: fence count %d, block holds %d tuples", f.Count, len(blk))
	}
	if len(blk) == 0 {
		return nil
	}
	if s.Compare(f.First, blk[0]) != 0 || s.Compare(f.Last, blk[len(blk)-1]) != 0 {
		return fmt.Errorf("relfile: fence disagrees with block contents")
	}
	return nil
}

// InspectCompressed validates every block's framing and checksum without
// materializing tuples, and returns the layout summary. On version-2 files
// it also reads every φ-fence, cross-checks each against the stream's
// tuple count and boundary tuples (decoded individually, not the whole
// block), and returns the fences and per-block anchor ordinals.
func InspectCompressed(r io.Reader) (CompressedInfo, error) {
	br := bufio.NewReader(r)
	info, err := readCompressedHeader(br)
	if err != nil {
		return info, err
	}
	for b := 0; b < info.Blocks; b++ {
		var fence BlockFence
		if info.Version >= 2 {
			if fence, err = readFence(br, info.Schema); err != nil {
				return info, fmt.Errorf("relfile: block %d: %w", b, err)
			}
		}
		stream, err := readStream(br, info.BlockSize)
		if err != nil {
			return info, fmt.Errorf("relfile: block %d: %w", b, err)
		}
		blockInfo, err := core.Inspect(stream)
		if err != nil {
			return info, fmt.Errorf("relfile: block %d: %w", b, err)
		}
		if blockInfo.Codec != info.Codec {
			return info, fmt.Errorf("relfile: block %d codec %v differs from file codec %v",
				b, blockInfo.Codec, info.Codec)
		}
		if info.Version >= 2 {
			if fence.Count != blockInfo.TupleCount {
				return info, fmt.Errorf("relfile: block %d fence count %d, stream holds %d tuples",
					b, fence.Count, blockInfo.TupleCount)
			}
			for _, probe := range []struct {
				idx  int
				want relation.Tuple
			}{{0, fence.First}, {fence.Count - 1, fence.Last}} {
				tu, err := core.DecodeTupleAtArena(info.Schema, stream, probe.idx, nil)
				if err != nil {
					return info, fmt.Errorf("relfile: block %d: %w", b, err)
				}
				if info.Schema.Compare(tu, probe.want) != 0 {
					return info, fmt.Errorf("relfile: block %d fence disagrees with tuple %d", b, probe.idx)
				}
			}
			info.Fences = append(info.Fences, fence)
		}
		info.Anchors = append(info.Anchors, blockInfo.RepIndex)
		info.Tuples += blockInfo.TupleCount
		info.StreamBytes += len(stream)
	}
	info.BlockBytes = info.Blocks * info.BlockSize
	return info, nil
}

// readStream reads one length-prefixed block stream.
func readStream(br *bufio.Reader, blockSize int) ([]byte, error) {
	l, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if int(l) > blockSize {
		return nil, fmt.Errorf("relfile: stream of %d bytes exceeds block size %d", l, blockSize)
	}
	stream := make([]byte, l)
	if _, err := io.ReadFull(br, stream); err != nil {
		return nil, ErrTruncated
	}
	return stream, nil
}

// SavePlain writes schema and tuples to path in the plain format through
// the storage layer's temp+rename path, so a crash or interrupt can
// never leave a torn or half-written .rel file at the destination.
func SavePlain(fs storage.FS, path string, s *relation.Schema, tuples []relation.Tuple) error {
	var buf bytes.Buffer
	if err := WritePlain(&buf, s, tuples); err != nil {
		return err
	}
	return storage.WriteFileAtomic(fs, path, buf.Bytes())
}

// SaveCSV is SavePlain for the CSV export format.
func SaveCSV(fs storage.FS, path string, s *relation.Schema, tuples []relation.Tuple) error {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s, tuples); err != nil {
		return err
	}
	return storage.WriteFileAtomic(fs, path, buf.Bytes())
}
