package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ordinal"
	"repro/internal/relation"
)

// appendUvarint and readUvarint wrap encoding/binary's varints with the
// package's error vocabulary.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func readUvarint(buf []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, 0, ErrTruncated
	}
	return v, pos + n, nil
}

// encodeRaw stores every tuple fixed-width with no compression: the paper's
// "No coding" baseline representation.
func encodeRaw(s *relation.Schema, tuples []relation.Tuple, dst []byte) ([]byte, error) {
	for _, t := range tuples {
		dst = s.EncodeTuple(dst, t)
	}
	return dst, nil
}

// encodeRepOnly is AVQ without the chained-subtraction optimization of
// Example 3.3: each tuple stores its direct distance from the median
// representative, as in Table (b) of Figure 3.3. Differences grow linearly
// with distance from the median, so leading-zero runs are shorter than full
// AVQ's; the evaluation's ablation quantifies the gap.
func encodeRepOnly(s *relation.Schema, tuples []relation.Tuple, dst []byte) ([]byte, error) {
	u := len(tuples)
	if u == 0 {
		return dst, nil
	}
	mid := u / 2
	rep := tuples[mid]
	dst = appendUvarint(dst, uint64(mid))
	dst = s.EncodeTuple(dst, rep)
	diff := make(relation.Tuple, s.NumAttrs())
	scratch := make([]byte, 0, s.RowSize())
	for i, t := range tuples {
		if i == mid {
			continue
		}
		var err error
		if i < mid {
			_, err = ordinal.Sub(s, diff, rep, t)
		} else {
			_, err = ordinal.Sub(s, diff, t, rep)
		}
		if err != nil {
			return nil, fmt.Errorf("core: rep-only encode tuple %d: block not phi-sorted: %w", i, err)
		}
		dst = appendDiff(s, dst, diff, scratch)
	}
	return dst, nil
}

// encodeDeltaChain anchors the chain at the first tuple of the block rather
// than the median: the ablation isolating the paper's median-representative
// choice. The stored differences are identical adjacent deltas, so the
// stream size matches AVQ's; what changes is the anchor and therefore the
// work to reach a tuple in the middle of the block.
func encodeDeltaChain(s *relation.Schema, tuples []relation.Tuple, dst []byte) ([]byte, error) {
	u := len(tuples)
	if u == 0 {
		return dst, nil
	}
	dst = s.EncodeTuple(dst, tuples[0])
	diff := make(relation.Tuple, s.NumAttrs())
	scratch := make([]byte, 0, s.RowSize())
	for i := 1; i < u; i++ {
		if _, err := ordinal.Sub(s, diff, tuples[i], tuples[i-1]); err != nil {
			return nil, fmt.Errorf("core: delta-chain encode tuple %d: block not phi-sorted: %w", i, err)
		}
		dst = appendDiff(s, dst, diff, scratch)
	}
	return dst, nil
}
