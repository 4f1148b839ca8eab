package relation

// TailPlan is the schema's fixed plan for parsing one byte-RLE difference
// frame (package core): a count byte lz and the t = RowSize-lz tail bytes
// that end the row, the bytes before them zero. It covers every frame
// whose tail lies in the split suffix and in the row's last 16 bytes, and
// reads those 16 bytes as one 128-bit big-endian number of two words:
// word 0 is the row's last 8 bytes, word 1 the 8 before them, so the byte
// p places from the row's end (row byte RowSize-1-p) is bits 8p..8p+7.
// The suffix ordinal is the dot product of the tail's bytes with
// per-byte weights and the radix check is two word-wide passes, so the
// parse has no loop over attributes. Every table is indexed by t as well,
// its entries zero at the bytes p >= t: the bytes past the tail belong to
// earlier frames and must read as zero.
//
// The plan is computed once in NewSchema, beside the split it reads, and
// is immutable.
type TailPlan struct {
	// MaxTail is the longest tail the plan covers, at most 16: RowSize
	// less the later of the suffix's first byte (AttrOffset(split)) and
	// RowSize-16.
	MaxTail int

	// Tails[t] is the plan of a tail of t bytes.
	Tails [17]TailBytes

	// The radix check takes two passes over the 128 bits ([pass][word]).
	// The suffix fields in the window alternate passes from the bottom, so
	// within a pass a field's guard bit, the bit just above it, belongs to
	// a field the pass masks off (TailBytes.Keep). A pass adds 256^w-1-max
	// to each field of width w and largest digit max (its visible bytes
	// and their largest value, for a field the window cuts off at the
	// top): the sum reaches the field's guard bit, or carries out of the
	// 128 bits for the window's top field, exactly when the digit exceeds
	// max.
	Add   [2][2]uint64 // 256^w-1-max at each field of the pass
	Guard [2][2]uint64 // the guard bit above each (none for the top field)
}

// TailBytes is TailPlan's table for one tail length t.
type TailBytes struct {
	// Weights[p] is the weight of the row byte p places from the end in
	// the suffix ordinal Σ d_i·w_i: w_i·256^q (mod 2^64) for the byte q
	// places above the bottom of attribute i's field, and zero for a byte
	// past the tail, outside the suffix or before the row. On a tail whose
	// digits are in radix the dot product is exact: the sum fits 64 bits.
	Weights [16]uint64
	// Keep[k] has the bits of the tail's bytes in the fields of pass k.
	Keep [2][2]uint64
}

// TailPlan returns the schema's byte-RLE tail plan. It is owned by the
// schema and must not be modified.
func (s *Schema) TailPlan() *TailPlan { return &s.tail }

// computeTailPlan derives the tail plan from the split and the field
// layout. It runs after computeSplit.
func (s *Schema) computeTailPlan() {
	p := &s.tail
	m, at := s.rowSize, s.split
	p.MaxTail = m - max(s.offsets[at], m-16)
	k := 0 // the pass of the field
	for i := len(s.radices) - 1; i >= at; i, k = i-1, k^1 {
		bottom := m - s.offsets[i] - s.widths[i] // places from the row's end of the field's last byte
		if bottom >= 16 {
			break
		}
		vis := min(s.widths[i], 16-bottom) // the field's bytes inside the window
		for q := range vis {
			b := bottom + q
			for t := b + 1; t <= 16; t++ {
				p.Tails[t].Weights[b] = s.weights[i] << (8 * q)
				p.Tails[t].Keep[k][b/8] |= 0xff << (8 * (b % 8))
			}
		}
		mask := ^uint64(0) >> (64 - 8*vis)
		or128(&p.Add[k], mask-min(s.radices[i]-1, mask), 8*bottom)
		or128(&p.Guard[k], 1, 8*(bottom+vis))
	}
}

// or128 ors v<<sh into the 128-bit number x (x[0] its low word); bits
// shifted past bit 127 are dropped.
func or128(x *[2]uint64, v uint64, sh int) {
	switch {
	case sh >= 128:
	case sh >= 64:
		x[1] |= v << (sh - 64)
	default:
		x[0] |= v << sh
		x[1] |= v >> 1 >> (63 - sh)
	}
}
