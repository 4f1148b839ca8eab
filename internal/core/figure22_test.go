package core

import (
	"math/big"
	"testing"

	"repro/internal/gen"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// TestFigure22Golden reproduces the paper's complete worked example
// (Figure 2.2) end to end:
//
//   - sorting Table (b) by phi yields exactly the ordinals of Table (c);
//   - partitioning into the figure's ten five-tuple blocks and AVQ-coding
//     each (median representative, chained differences) stores exactly the
//     fifty ordinals of Table (d);
//   - every block decodes losslessly.
//
// This validates the full Section 3 pipeline — attribute-encoded relation,
// tuple re-ordering, block partitioning, block coding — against all fifty
// published rows, not just the Example 3.2 block.
func TestFigure22Golden(t *testing.T) {
	s := gen.Figure22Schema()
	tuples := gen.Figure22Tuples()
	if len(tuples) != 50 {
		t.Fatalf("figure has %d tuples, want 50", len(tuples))
	}

	// Re-order (Section 3.2) and check Table (c)'s printed ordinals.
	s.SortTuples(tuples)
	wantSorted := gen.Figure22SortedOrdinals()
	for i, tu := range tuples {
		got := ordinal.Phi(s, tu)
		if got.Cmp(new(big.Int).SetUint64(wantSorted[i])) != 0 {
			t.Fatalf("sorted row %d: phi=%s, paper prints %d (tuple %v)",
				i+1, got, wantSorted[i], tu)
		}
	}

	// Partition (Section 3.3) and code (Section 3.4); check Table (d).
	wantCoded := gen.Figure22CodedOrdinals()
	u := gen.Figure22BlockTuples
	diff := make(relation.Tuple, s.NumAttrs())
	for b := 0; b < len(tuples)/u; b++ {
		block := tuples[b*u : (b+1)*u]
		mid := u / 2
		for i, tu := range block {
			row := b*u + i
			var stored *big.Int
			switch {
			case i == mid:
				stored = ordinal.Phi(s, tu)
			case i < mid:
				// Before the representative: difference from the successor
				// (Example 3.3's chained subtraction).
				if _, err := ordinal.Sub(s, diff, block[i+1], tu); err != nil {
					t.Fatalf("block %d row %d: %v", b+1, i, err)
				}
				stored = ordinal.Phi(s, diff)
			default:
				if _, err := ordinal.Sub(s, diff, tu, block[i-1]); err != nil {
					t.Fatalf("block %d row %d: %v", b+1, i, err)
				}
				stored = ordinal.Phi(s, diff)
			}
			if stored.Cmp(new(big.Int).SetUint64(wantCoded[row])) != 0 {
				t.Fatalf("coded row %d (block %d): stored ordinal %s, paper prints %d",
					row+1, b+1, stored, wantCoded[row])
			}
		}
		// And the actual codec agrees with itself: encode/decode the block.
		enc, err := EncodeBlock(CodecAVQ, s, block, nil)
		if err != nil {
			t.Fatalf("block %d: encode: %v", b+1, err)
		}
		got, err := DecodeBlockArena(s, enc, nil)
		if err != nil {
			t.Fatalf("block %d: decode: %v", b+1, err)
		}
		for i := range block {
			if s.Compare(got[i], block[i]) != 0 {
				t.Fatalf("block %d tuple %d: round trip mismatch", b+1, i)
			}
		}
	}
}

// TestFigure22StreamDiffs cross-checks at the byte level: the encoded
// stream's parsed differences equal the published Table (d) ordinals.
func TestFigure22StreamDiffs(t *testing.T) {
	s := gen.Figure22Schema()
	tuples := gen.Figure22Tuples()
	s.SortTuples(tuples)
	wantCoded := gen.Figure22CodedOrdinals()
	u := gen.Figure22BlockTuples
	for b := 0; b < len(tuples)/u; b++ {
		block := tuples[b*u : (b+1)*u]
		enc, err := EncodeBlock(CodecAVQ, s, block, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, count, c, err := checkHeader(enc)
		if err != nil || c != CodecAVQ || count != u {
			t.Fatalf("block %d header: count=%d codec=%v err=%v", b+1, count, c, err)
		}
		mid64, pos, err := readAnchorIndex(body, count)
		if err != nil || mid64 != u/2 {
			t.Fatalf("block %d: mid=%d err=%v", b+1, mid64, err)
		}
		m := s.RowSize()
		rep, err := s.DecodeTuple(body[pos : pos+m])
		if err != nil {
			t.Fatal(err)
		}
		repRow := b*u + u/2
		if got := ordinal.Phi(s, rep).Uint64(); got != wantCoded[repRow] {
			t.Fatalf("block %d: representative phi=%d, paper %d", b+1, got, wantCoded[repRow])
		}
		r := newDiffReader(s, false, body, pos+m, u-1)
		d := make(relation.Tuple, s.NumAttrs())
		var dphi [1]uint64
		// Stream order: diffs for rows before the representative, then after.
		var rows []int
		for i := 0; i < u; i++ {
			if i != u/2 {
				rows = append(rows, b*u+i)
			}
		}
		for _, row := range rows {
			// The employee schema is flat: it splits at 0, so a
			// difference's suffix ordinal is its φ.
			if err := r.split(dphi[:], nil, nil, d); err != nil {
				t.Fatalf("block %d row %d: %v", b+1, row+1, err)
			}
			if got := dphi[0]; got != wantCoded[row] {
				t.Fatalf("stream row %d: diff phi=%d, paper prints %d", row+1, got, wantCoded[row])
			}
		}
		if err := r.end(); err != nil {
			t.Fatalf("block %d: %v", b+1, err)
		}
	}
}
