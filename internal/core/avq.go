package core

import (
	"fmt"

	"repro/internal/ordinal"
	"repro/internal/relation"
)

// encodeAVQ writes the full AVQ payload: the index and bytes of the median
// representative tuple followed by chained differences (Sections 3.4 and
// Examples 3.2/3.3).
//
// For i < mid the stored difference is t[i+1] - t[i] (with t[mid] the
// representative); for i > mid it is t[i] - t[i-1]. Either way every stored
// value is the difference of phi-adjacent tuples in the block, which is
// what makes the leading-zero runs long.
func encodeAVQ(s *relation.Schema, tuples []relation.Tuple, dst []byte) ([]byte, error) {
	u := len(tuples)
	if u == 0 {
		return dst, nil
	}
	mid := u / 2
	dst = appendUvarint(dst, uint64(mid))
	dst = s.EncodeTuple(dst, tuples[mid])
	diff := make(relation.Tuple, s.NumAttrs())
	scratch := make([]byte, 0, s.RowSize())
	for i := 0; i < mid; i++ {
		if _, err := ordinal.Sub(s, diff, tuples[i+1], tuples[i]); err != nil {
			return nil, fmt.Errorf("core: avq encode tuple %d: block not phi-sorted: %w", i, err)
		}
		dst = appendDiff(s, dst, diff, scratch)
	}
	for i := mid + 1; i < u; i++ {
		if _, err := ordinal.Sub(s, diff, tuples[i], tuples[i-1]); err != nil {
			return nil, fmt.Errorf("core: avq encode tuple %d: block not phi-sorted: %w", i, err)
		}
		dst = appendDiff(s, dst, diff, scratch)
	}
	return dst, nil
}
