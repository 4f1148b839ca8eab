package core

import (
	"repro/internal/bitio"
	"repro/internal/relation"
)

// CodecPacked is the bit-packed extension of AVQ. The paper's count-byte
// scheme works at byte granularity: every digit occupies whole bytes and
// the zero run is counted in bytes. When domain sizes are not powers of
// 256 that wastes bits per digit (a size-200 domain uses 8 bits where
// log2(200) ~ 7.6, a size-64 domain wastes 2 of 8). The packed codec keeps
// the AVQ structure — median representative, chained adjacent differences —
// but stores each difference as:
//
//	leading-zero digit count, in ceil(log2(n+1)) bits
//	each remaining digit i, in ceil(log2 |A_i|) bits
//
// concatenated into one bit stream. This is the natural "further
// compression" step within the paper's framework and is evaluated in the
// ablation experiment. The per-attribute widths and their suffix sums are
// the schema's own tables (relation.Schema.BitWidths).

// leadingZeroDigits counts the leading all-zero attributes of diff.
func leadingZeroDigits(diff relation.Tuple) int {
	lz := 0
	for _, v := range diff {
		if v != 0 {
			break
		}
		lz++
	}
	return lz
}

// packedDiffBits returns the encoded size of one difference in bits.
func packedDiffBits(diff relation.Tuple, lzWidth uint, suffix []int) int {
	return int(lzWidth) + suffix[leadingZeroDigits(diff)]
}

// encodePacked writes the packed-AVQ payload: representative index and
// tuple (byte-aligned, as in CodecAVQ), then the bit stream of the same
// chained differences.
func encodePacked(s *relation.Schema, tuples []relation.Tuple, dst []byte) ([]byte, error) {
	widths, _ := s.BitWidths()
	lzWidth := bitio.BitsFor(uint64(s.NumAttrs()) + 1)
	w := bitio.NewWriter(nil)
	dst, err := encodeChain(s, tuples, dst, func(dst []byte, d relation.Tuple) []byte {
		writePackedDiff(w, d, widths, lzWidth)
		return dst
	})
	if err != nil {
		return nil, err
	}
	return append(dst, w.Bytes()...), nil
}

// writePackedDiff writes one difference's packed frame: its leading-zero
// digit count, then every digit past the run in its attribute's width.
func writePackedDiff(w *bitio.Writer, d relation.Tuple, widths []uint, lzWidth uint) {
	lz := leadingZeroDigits(d)
	w.WriteBits(uint64(lz), lzWidth)
	for i := lz; i < len(d); i++ {
		w.WriteBits(d[i], widths[i])
	}
}
