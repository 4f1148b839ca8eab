package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ordinal"
	"repro/internal/relation"
)

// encodeAVQ writes the full AVQ payload: the index and bytes of the median
// representative tuple followed by chained differences (Sections 3.4 and
// Examples 3.2/3.3), each byte-RLE coded by appendDiff.
func encodeAVQ(s *relation.Schema, tuples []relation.Tuple, dst []byte) ([]byte, error) {
	scratch := make([]byte, 0, s.RowSize())
	return encodeChain(s, tuples, dst, func(dst []byte, diff relation.Tuple) []byte {
		return appendDiff(s, dst, diff, scratch)
	})
}

// encodeChain writes the payload the two difference codecs share: the
// median representative's index and tuple, then the u-1 chained
// differences through emit.
//
// For i < mid the stored difference is t[i+1] - t[i] (with t[mid] the
// representative); for i > mid it is t[i] - t[i-1]. Either way every stored
// value is the difference of phi-adjacent tuples in the block, which is
// what makes the leading-zero runs long — and the stream order is simply
// t[k] - t[k-1] for k = 1..u-1.
func encodeChain(s *relation.Schema, tuples []relation.Tuple, dst []byte, emit func([]byte, relation.Tuple) []byte) ([]byte, error) {
	u := len(tuples)
	if u == 0 {
		return dst, nil
	}
	mid := u / 2
	dst = binary.AppendUvarint(dst, uint64(mid))
	dst = s.EncodeTuple(dst, tuples[mid])
	diff := make(relation.Tuple, s.NumAttrs())
	for k := 1; k < u; k++ {
		if _, err := ordinal.Sub(s, diff, tuples[k], tuples[k-1]); err != nil {
			return nil, fmt.Errorf("core: encode tuple %d: block not phi-sorted: %w", k, err)
		}
		dst = emit(dst, diff)
	}
	return dst, nil
}
