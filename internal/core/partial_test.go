package core

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// TestDecodeTupleAtMatchesFullDecode: a one-tuple walk must return the
// encoder's input at every position, codec, and schema — the same answer
// the full decode is held to by the round-trip tests.
func TestDecodeTupleAtMatchesFullDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for iter := 0; iter < 60; iter++ {
		s := randomSchema(rng)
		block := randomSortedBlock(s, rng, 1+rng.Intn(100))
		for _, c := range Codecs() {
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				t.Fatal(err)
			}
			a := NewArena()
			for idx := range block {
				a.Reset()
				got, err := DecodeTupleAtArena(s, enc, idx, a)
				if err != nil {
					t.Fatalf("iter %d %v idx %d: %v", iter, c, idx, err)
				}
				if s.Compare(got, block[idx]) != 0 {
					t.Fatalf("iter %d %v idx %d: got %v want %v", iter, c, idx, got, block[idx])
				}
			}
		}
	}
}

func TestDecodeTupleAtBounds(t *testing.T) {
	s := employeeSchema(t)
	enc, err := EncodeBlock(CodecAVQ, s, fig33Block(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTupleAtArena(s, enc, -1, nil); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := DecodeTupleAtArena(s, enc, 5, nil); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestDecodeTupleAtCorruption(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(52))
	block := randomSortedBlock(s, rng, 40)
	enc, err := EncodeBlock(CodecAVQ, s, block, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		bad := append([]byte(nil), enc...)
		pos := rng.Intn(len(bad))
		bad[pos] ^= 0x10
		if bad[pos] == enc[pos] {
			continue
		}
		if _, err := DecodeTupleAtArena(s, bad, rng.Intn(40), nil); err == nil {
			t.Fatal("corrupted block partially decoded without error")
		}
	}
}

// TestDecodeTupleSpanMatchesFullDecode: span decode must return the
// encoder's input on every sub-range, codec, and schema, including spans
// that straddle the representative, spans wholly on either side of it, and
// empty spans.
func TestDecodeTupleSpanMatchesFullDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 40; iter++ {
		s := randomSchema(rng)
		block := randomSortedBlock(s, rng, 1+rng.Intn(80))
		for _, c := range Codecs() {
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				t.Fatal(err)
			}
			u := len(block)
			spans := [][2]int{{0, u}, {0, 0}, {u, u}, {0, u / 2}, {u / 2, u}, {0, u / 4}, {u - u/4, u}}
			for trial := 0; trial < 6; trial++ {
				from := rng.Intn(u + 1)
				to := from + rng.Intn(u+1-from)
				spans = append(spans, [2]int{from, to})
			}
			for _, sp := range spans {
				from, to := sp[0], sp[1]
				got, err := DecodeTupleSpanArena(s, enc, from, to, nil)
				if err != nil {
					t.Fatalf("iter %d %v span [%d,%d): %v", iter, c, from, to, err)
				}
				if len(got) != to-from {
					t.Fatalf("iter %d %v span [%d,%d): %d tuples", iter, c, from, to, len(got))
				}
				for i, tu := range got {
					if s.Compare(tu, block[from+i]) != 0 {
						t.Fatalf("iter %d %v span [%d,%d) pos %d: got %v want %v",
							iter, c, from, to, from+i, tu, block[from+i])
					}
				}
			}
		}
	}
}

func TestDecodeTupleSpanBounds(t *testing.T) {
	s := employeeSchema(t)
	enc, err := EncodeBlock(CodecAVQ, s, fig33Block(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range [][2]int{{-1, 2}, {0, 6}, {3, 2}} {
		if _, err := DecodeTupleSpanArena(s, enc, sp[0], sp[1], nil); err == nil {
			t.Fatalf("span [%d,%d) accepted", sp[0], sp[1])
		}
	}
}

// TestSearchBlockFindsBoundaries: binary search over encoded blocks must
// agree with a linear scan of the encoder's input for every codec.
func TestSearchBlockFindsBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for iter := 0; iter < 30; iter++ {
		s := randomSchema(rng)
		block := randomSortedBlock(s, rng, 1+rng.Intn(60))
		for _, c := range Codecs() {
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				t.Fatal(err)
			}
			full := block
			// Search for the first tuple with leading attribute >= v, for a
			// few pivot values including ones outside the block's range.
			for trial := 0; trial < 5; trial++ {
				v := full[rng.Intn(len(full))][0]
				if trial == 3 {
					v = 0
				}
				if trial == 4 {
					v = s.Domain(0).Size - 1
				}
				got, err := SearchBlockArena(s, enc, func(tu relation.Tuple) bool { return tu[0] >= v }, nil)
				if err != nil {
					t.Fatalf("iter %d %v: %v", iter, c, err)
				}
				want := len(full)
				for i, tu := range full {
					if tu[0] >= v {
						want = i
						break
					}
				}
				if got != want {
					t.Fatalf("iter %d %v v=%d: got %d want %d", iter, c, v, got, want)
				}
			}
		}
	}
}

// TestSearchBlockVerifiesChecksumOnce pins the once-per-call header check:
// the stream is verified when the search opens it, and the probes walk the
// already-verified payload. The predicate damages the CRC trailer — bytes
// no probe reads — after the first probe; a search that re-verified per
// probe would fail with ErrChecksum, and the damaged stream must of course
// be refused by the next call.
func TestSearchBlockVerifiesChecksumOnce(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(58))
	block := randomSortedBlock(s, rng, 64)
	pivot := block[50]
	for _, c := range Codecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			t.Fatal(err)
		}
		probes := 0
		pred := func(tu relation.Tuple) bool {
			if probes++; probes == 1 {
				enc[len(enc)-1] ^= 0xFF
			}
			return s.Compare(tu, pivot) >= 0
		}
		got, err := SearchBlockArena(s, enc, pred, nil)
		want := 50
		for want > 0 && s.Compare(block[want-1], pivot) == 0 {
			want--
		}
		if err != nil || got != want || probes < 2 {
			t.Fatalf("%v: search = %d, %v after %d probes; want %d", c, got, err, probes, want)
		}
		if _, err := SearchBlockArena(s, enc, pred, nil); !errors.Is(err, ErrChecksum) {
			t.Fatalf("%v: damaged stream searched again: err = %v", c, err)
		}
	}
}

// TestInspectReportsRepIndex: Inspect must report the anchor position
// without decoding — the median for the difference codecs, zero for raw.
func TestInspectReportsRepIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	s := randomSchema(rng)
	for _, u := range []int{1, 2, 5, 41} {
		block := randomSortedBlock(s, rng, u)
		for _, c := range Codecs() {
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				t.Fatal(err)
			}
			info, err := Inspect(enc)
			if err != nil {
				t.Fatal(err)
			}
			want := u / 2
			if c == CodecRaw {
				want = 0
			}
			if info.RepIndex != want {
				t.Fatalf("u=%d %v: RepIndex %d want %d", u, c, info.RepIndex, want)
			}
			anchor, err := DecodeTupleAtArena(s, enc, info.RepIndex, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.Compare(anchor, block[info.RepIndex]) != 0 {
				t.Fatalf("u=%d %v: anchor mismatch", u, c)
			}
		}
	}
}

// reanchor is the block's stream under codec c with its anchor moved to
// position idx and anchor tuple set to anchor (block[idx] for a valid
// stream). The stored differences are the same adjacent deltas whatever
// the anchor, so only the anchor index and tuple change, and the walker
// accepts any anchor below the tuple count. At idx 0 it is the
// first-tuple-anchor layout the decode-reach ablation measures against.
func reanchor(tb testing.TB, c Codec, s *relation.Schema, block []relation.Tuple, idx int, anchor relation.Tuple) []byte {
	tb.Helper()
	enc, err := EncodeBlock(c, s, block, nil)
	if err != nil {
		tb.Fatal(err)
	}
	_, n := binary.Uvarint(enc[2:])
	_, w := binary.Uvarint(enc[2+n:])
	out := binary.AppendUvarint(append([]byte(nil), enc[:2+n]...), uint64(idx))
	out = s.EncodeTuple(out, anchor)
	return rechecksum(append(out, enc[2+n+w+s.RowSize():len(enc)-crcSize]...))
}

// TestMedianAnchorHalvesChainWork demonstrates the paper's rationale for
// the median representative: the worst-case chain length to reach a tuple
// is halved relative to a first-tuple anchor. Both anchors decode the
// block's tail correctly; the benchmark BenchmarkPointAccess quantifies
// the cost gap.
func TestMedianAnchorHalvesChainWork(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(53))
	block := randomSortedBlock(s, rng, 200)
	avq, err := EncodeBlock(CodecAVQ, s, block, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := reanchor(t, CodecAVQ, s, block, 0, block[0])
	if info, err := Inspect(first); err != nil || info.RepIndex != 0 {
		t.Fatalf("first-anchor stream: %+v, %v", info, err)
	}
	if got, err := DecodeBlockArena(s, first, nil); err != nil || !sameTuples(s, got, block) {
		t.Fatalf("first-anchor stream decodes to %d tuples, %v", len(got), err)
	}
	last := len(block) - 1
	a, err := DecodeTupleAtArena(s, avq, last, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeTupleAtArena(s, first, last, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Compare(a, block[last]) != 0 || s.Compare(b, block[last]) != 0 {
		t.Fatal("partial decode at the block tail disagrees")
	}
}

// BenchmarkPointAccess measures the decode-reach ablation: accessing the
// last tuple of a block costs ~u/2 chain steps with the median anchor but
// ~u with a first-tuple anchor; the far side of the anchor pays only a
// framing skip; raw pays an offset.
func BenchmarkPointAccess(b *testing.B) {
	s := employeeSchema(b)
	rng := rand.New(rand.NewSource(54))
	block := randomSortedBlock(s, rng, 400)
	last := len(block) - 1
	names, streams := []string{"first-anchor"}, [][]byte{reanchor(b, CodecAVQ, s, block, 0, block[0])}
	for _, c := range Codecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			b.Fatal(err)
		}
		names, streams = append(names, c.String()), append(streams, enc)
	}
	for i, enc := range streams {
		b.Run(names[i], func(b *testing.B) {
			b.ReportAllocs()
			a := NewArena()
			for i := 0; i < b.N; i++ {
				a.Reset()
				if _, err := DecodeTupleAtArena(s, enc, last, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
