package core

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/ordinal"
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
// tuple (byte-aligned, as in CodecAVQ), then the bit stream of chained
// differences.
func encodePacked(s *relation.Schema, tuples []relation.Tuple, dst []byte) ([]byte, error) {
	u := len(tuples)
	if u == 0 {
		return dst, nil
	}
	mid := u / 2
	dst = appendUvarint(dst, uint64(mid))
	dst = s.EncodeTuple(dst, tuples[mid])

	n := s.NumAttrs()
	widths, _ := s.BitWidths()
	lzWidth := bitio.BitsFor(uint64(n) + 1)
	w := bitio.NewWriter(nil)
	diff := make(relation.Tuple, n)
	emit := func(d relation.Tuple) {
		lz := leadingZeroDigits(d)
		w.WriteBits(uint64(lz), lzWidth)
		for i := lz; i < n; i++ {
			w.WriteBits(d[i], widths[i])
		}
	}
	for i := 0; i < mid; i++ {
		if _, err := ordinal.Sub(s, diff, tuples[i+1], tuples[i]); err != nil {
			return nil, fmt.Errorf("core: packed encode tuple %d: block not phi-sorted: %w", i, err)
		}
		emit(diff)
	}
	for i := mid + 1; i < u; i++ {
		if _, err := ordinal.Sub(s, diff, tuples[i], tuples[i-1]); err != nil {
			return nil, fmt.Errorf("core: packed encode tuple %d: block not phi-sorted: %w", i, err)
		}
		emit(diff)
	}
	return append(dst, w.Bytes()...), nil
}
