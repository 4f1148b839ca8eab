package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

func employeeSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Domain{Name: "dept", Size: 8},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "hours", Size: 64},
		relation.Domain{Name: "empno", Size: 64},
	)
}

// fig33Block is the block of Example 3.2 / Figure 3.3 (a), already in phi
// order, with the representative (3,08,36,39,35) in the middle.
func fig33Block() []relation.Tuple {
	return []relation.Tuple{
		{3, 8, 32, 25, 19},
		{3, 8, 32, 34, 12},
		{3, 8, 36, 39, 35},
		{3, 9, 24, 32, 0},
		{3, 9, 26, 27, 37},
	}
}

// TestAVQPaperStream verifies that the AVQ payload for the Figure 3.3 block
// is byte-for-byte the stream printed at the end of Section 3.4:
//
//	3 08 36 39 35 | 3 08 57 | 2 04 05 23 | 2 51 56 29 | 2 01 59 37
//
// (representative tuple, then count-byte-prefixed chained differences).
func TestAVQPaperStream(t *testing.T) {
	s := employeeSchema(t)
	enc, err := EncodeBlock(CodecAVQ, s, fig33Block(), nil)
	if err != nil {
		t.Fatalf("EncodeBlock: %v", err)
	}
	// Strip framing: magic, codec, count uvarint (5 -> 1 byte),
	// representative index uvarint (2 -> 1 byte) and the trailing CRC.
	payload := enc[4 : len(enc)-crcSize]
	want := []byte{
		3, 8, 36, 39, 35, // representative
		3, 8, 57, // 569 with 3 leading zero bytes
		2, 4, 5, 23, // 16727 with 2 leading zero bytes
		2, 51, 56, 29, // 212509
		2, 1, 59, 37, // 7909
	}
	if !bytes.Equal(payload, want) {
		t.Fatalf("payload = % d\nwant      = % d", payload, want)
	}
}

// TestAVQPaperInsertion reproduces Figure 4.6: inserting the tuple with
// ordinal 14812800 into the Figure 3.3 block yields recomputed differences
// 45 and 524 for the tuples before the (unchanged) representative.
//
// The paper writes the inserted tuple as (3,08,32,25,64), but employee
// number 64 is outside the stated |A5| = 64 domain (valid digits 0..63);
// in mixed radix that digit carries, so the canonical in-domain tuple with
// the same ordinal — and the same differences — is (3,08,32,26,0).
func TestAVQPaperInsertion(t *testing.T) {
	s := employeeSchema(t)
	block := fig33Block()
	ins := relation.Tuple{3, 8, 32, 26, 0}
	block = append(block[:1], append([]relation.Tuple{ins}, block[1:]...)...)
	if !s.TuplesSorted(block) {
		t.Fatal("insertion position wrong")
	}
	enc, err := EncodeBlock(CodecAVQ, s, block, nil)
	if err != nil {
		t.Fatalf("EncodeBlock: %v", err)
	}
	// u=6, mid=3: the representative is still (3,08,36,39,35).
	payload := enc[4 : len(enc)-crcSize]
	want := []byte{
		3, 8, 36, 39, 35, // representative unchanged (Fig 4.6)
		4, 45, // 45: difference new-tuple minus predecessor
		3, 8, 12, // 524
		2, 4, 5, 23, // 16727
		2, 51, 56, 29, // 212509
		2, 1, 59, 37, // 7909
	}
	if !bytes.Equal(payload, want) {
		t.Fatalf("payload = % d\nwant      = % d", payload, want)
	}
	got, err := DecodeBlockArena(s, enc, nil)
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	if len(got) != len(block) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(block))
	}
	for i := range block {
		if s.Compare(got[i], block[i]) != 0 {
			t.Fatalf("tuple %d: got %v want %v", i, got[i], block[i])
		}
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	s := employeeSchema(t)
	block := fig33Block()
	for _, c := range Codecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			t.Fatalf("%v: encode: %v", c, err)
		}
		got, err := DecodeBlockArena(s, enc, nil)
		if err != nil {
			t.Fatalf("%v: decode: %v", c, err)
		}
		if len(got) != len(block) {
			t.Fatalf("%v: decoded %d tuples, want %d", c, len(got), len(block))
		}
		for i := range block {
			if s.Compare(got[i], block[i]) != 0 {
				t.Fatalf("%v: tuple %d: got %v want %v", c, i, got[i], block[i])
			}
		}
	}
}

func TestRoundTripEdgeSizes(t *testing.T) {
	s := employeeSchema(t)
	full := fig33Block()
	for _, u := range []int{0, 1, 2, 3} {
		for _, c := range Codecs() {
			enc, err := EncodeBlock(c, s, full[:u], nil)
			if err != nil {
				t.Fatalf("%v u=%d: encode: %v", c, u, err)
			}
			got, err := DecodeBlockArena(s, enc, nil)
			if err != nil {
				t.Fatalf("%v u=%d: decode: %v", c, u, err)
			}
			if len(got) != u {
				t.Fatalf("%v u=%d: decoded %d tuples", c, u, len(got))
			}
		}
	}
}

func TestRoundTripDuplicates(t *testing.T) {
	s := employeeSchema(t)
	dup := relation.Tuple{3, 8, 36, 39, 35}
	block := []relation.Tuple{dup, dup.Clone(), dup.Clone(), {3, 9, 0, 0, 0}}
	for _, c := range Codecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			t.Fatalf("%v: encode: %v", c, err)
		}
		got, err := DecodeBlockArena(s, enc, nil)
		if err != nil {
			t.Fatalf("%v: decode: %v", c, err)
		}
		for i := range block {
			if s.Compare(got[i], block[i]) != 0 {
				t.Fatalf("%v: tuple %d mismatch", c, i)
			}
		}
	}
}

func TestEncodeRejectsUnsorted(t *testing.T) {
	s := employeeSchema(t)
	block := fig33Block()
	block[0], block[4] = block[4], block[0]
	for _, c := range []Codec{CodecAVQ, CodecPacked} {
		if _, err := EncodeBlock(c, s, block, nil); err == nil {
			t.Errorf("%v: encoded an unsorted block without error", c)
		}
	}
}

func TestEncodeRejectsBadCodec(t *testing.T) {
	s := employeeSchema(t)
	for _, c := range []Codec{2, 3, 99} {
		if _, err := EncodeBlock(c, s, fig33Block(), nil); !errors.Is(err, ErrBadCodec) {
			t.Fatalf("codec %d: err = %v, want ErrBadCodec", c, err)
		}
	}
}

// randomSortedBlock builds a phi-sorted run of n random tuples for s.
func randomSortedBlock(s *relation.Schema, rng *rand.Rand, n int) []relation.Tuple {
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tu := make(relation.Tuple, s.NumAttrs())
		for j := 0; j < s.NumAttrs(); j++ {
			tu[j] = uint64(rng.Int63n(int64(s.Domain(j).Size)))
		}
		tuples[i] = tu
	}
	s.SortTuples(tuples)
	return tuples
}

// randomSchema builds a random schema with 1..8 attributes of size 2..5000.
func randomSchema(rng *rand.Rand) *relation.Schema {
	n := 1 + rng.Intn(8)
	doms := make([]relation.Domain, n)
	for i := range doms {
		doms[i] = relation.Domain{
			Name: string(rune('a' + i)),
			Size: uint64(2 + rng.Intn(4999)),
		}
	}
	return relation.MustSchema(doms...)
}

// TestRoundTripRandomSchemas is the central lossless property (Theorem 2.1):
// for random schemas and random sorted blocks, decode(encode(x)) == x for
// every codec.
func TestRoundTripRandomSchemas(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 150; iter++ {
		s := randomSchema(rng)
		block := randomSortedBlock(s, rng, rng.Intn(200))
		for _, c := range Codecs() {
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				t.Fatalf("iter %d %v: encode: %v", iter, c, err)
			}
			got, err := DecodeBlockArena(s, enc, nil)
			if err != nil {
				t.Fatalf("iter %d %v: decode: %v", iter, c, err)
			}
			if len(got) != len(block) {
				t.Fatalf("iter %d %v: decoded %d tuples, want %d", iter, c, len(got), len(block))
			}
			for i := range block {
				if s.Compare(got[i], block[i]) != 0 {
					t.Fatalf("iter %d %v: tuple %d: got %v want %v", iter, c, i, got[i], block[i])
				}
			}
		}
	}
}

// TestAVQBeatsRawOnClusteredData checks the compression claim on data with
// the locality the paper's re-ordering creates.
func TestAVQBeatsRawOnClusteredData(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(5))
	block := randomSortedBlock(s, rng, 500)
	rawSize, err := EncodedSize(CodecRaw, s, block)
	if err != nil {
		t.Fatal(err)
	}
	avqSize, err := EncodedSize(CodecAVQ, s, block)
	if err != nil {
		t.Fatal(err)
	}
	if avqSize >= rawSize {
		t.Fatalf("AVQ (%d bytes) did not beat raw (%d bytes) on a sorted block", avqSize, rawSize)
	}
	t.Logf("raw=%d avq=%d reduction=%.1f%%", rawSize, avqSize, 100*(1-float64(avqSize)/float64(rawSize)))
}

func TestEncodedSizeMatchesEncodeBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 80; iter++ {
		s := randomSchema(rng)
		block := randomSortedBlock(s, rng, rng.Intn(300))
		for _, c := range Codecs() {
			want, err := EncodedSize(c, s, block)
			if err != nil {
				t.Fatalf("%v: EncodedSize: %v", c, err)
			}
			enc, err := EncodeBlock(c, s, block, nil)
			if err != nil {
				t.Fatalf("%v: EncodeBlock: %v", c, err)
			}
			if len(enc) != want {
				t.Fatalf("iter %d %v: EncodedSize=%d but stream is %d bytes (u=%d)",
					iter, c, want, len(enc), len(block))
			}
		}
	}
}

// checkMaxFit holds Pack's runs to the max-fit rule: they partition the
// input in order, each run's reported size is its EncodeBlock size and fits
// capacity, and no run could take the next tuple as well.
func checkMaxFit(t *testing.T, c Codec, s *relation.Schema, block []relation.Tuple, capacity int) {
	t.Helper()
	runs, sizes, err := Pack(c, s, block, capacity)
	if err != nil {
		t.Fatalf("%v: Pack: %v", c, err)
	}
	next := 0
	for i, run := range runs {
		enc, err := EncodeBlock(c, s, run, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(run) == 0 || &run[0] != &block[next] || len(enc) != sizes[i] || sizes[i] > capacity {
			t.Fatalf("%v run %d: %d tuples at %d, size %d (stream %d) for capacity %d",
				c, i, len(run), next, sizes[i], len(enc), capacity)
		}
		next += len(run)
		if next < len(block) {
			if size, err := EncodedSize(c, s, block[next-len(run):next+1]); err != nil || size <= capacity {
				t.Fatalf("%v run %d not maximal: one more tuple fits (%d bytes, %v)", c, i, size, err)
			}
		}
	}
	if next != len(block) {
		t.Fatalf("%v: runs cover %d of %d tuples", c, next, len(block))
	}
}

// TestMaxFit: the packer cuts maximal runs for every codec.
func TestMaxFit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 40; iter++ {
		s := randomSchema(rng)
		block := randomSortedBlock(s, rng, 100+rng.Intn(200))
		capacity := 512 + rng.Intn(4096)
		for _, c := range Codecs() {
			checkMaxFit(t, c, s, block, capacity)
		}
	}
}

func TestMaxFitEmptyAndTiny(t *testing.T) {
	s := employeeSchema(t)
	for _, c := range Codecs() {
		if runs, sizes, err := Pack(c, s, nil, 8192); err != nil || runs != nil || sizes != nil {
			t.Fatalf("%v: Pack(empty) = %v, %v, %v", c, runs, sizes, err)
		}
		// Nothing fits in 3 bytes.
		if _, _, err := Pack(c, s, fig33Block(), 3); !errors.Is(err, ErrTupleTooLarge) {
			t.Fatalf("%v: Pack(cap=3) err = %v, want ErrTupleTooLarge", c, err)
		}
	}
	if _, _, err := Pack(Codec(2), s, fig33Block(), 8192); !errors.Is(err, ErrBadCodec) {
		t.Fatalf("Pack(Codec(2)) err = %v, want ErrBadCodec", err)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	s := employeeSchema(t)
	rng := rand.New(rand.NewSource(31))
	block := randomSortedBlock(s, rng, 50)
	for _, c := range Codecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			bad := append([]byte(nil), enc...)
			bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
			if bytes.Equal(bad, enc) {
				continue
			}
			if _, err := DecodeBlockArena(s, bad, nil); err == nil {
				t.Fatalf("%v: single-bit corruption decoded without error", c)
			}
		}
	}
}

// TestTrailingPayloadRejectedByEveryShape is the regression test for the
// end-of-payload rule: a stream with one byte appended to its payload and
// the checksum recomputed is refused by every decode shape that consumes
// the block's last difference, for every codec — not only by the full
// decode.
func TestTrailingPayloadRejectedByEveryShape(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s := flatRandomSchema(rng)
	block := randomSortedBlock(s, rng, 50)
	count := len(block)
	for _, c := range Codecs() {
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			t.Fatal(err)
		}
		bad := rechecksum(append(enc[:len(enc)-crcSize:len(enc)-crcSize], 0))
		shapes := []struct {
			name string
			run  func([]byte) error
		}{
			{"full", func(b []byte) error { _, err := DecodeBlockArena(s, b, nil); return err }},
			{"span", func(b []byte) error { _, err := DecodeTupleSpanArena(s, b, count/2, count, nil); return err }},
			{"at", func(b []byte) error { _, err := DecodeTupleAtArena(s, b, count-1, nil); return err }},
			{"φ-slab", func(b []byte) error { _, err := DecodeBlockPhis(s, b, nil); return err }},
			{"φ-span", func(b []byte) error { _, _, err := PhiSpan(s, b, 0, math.MaxUint64, nil); return err }},
		}
		for _, sh := range shapes {
			if err := sh.run(enc); err != nil {
				t.Errorf("%v %s: intact stream refused: %v", c, sh.name, err)
			}
			if err := sh.run(bad); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%v %s: trailing payload byte: err = %v, want ErrCorrupt", c, sh.name, err)
			}
		}
	}
}

func TestDecodeDetectsTruncation(t *testing.T) {
	s := employeeSchema(t)
	enc, err := EncodeBlock(CodecAVQ, s, fig33Block(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeBlockArena(s, enc[:cut], nil); err == nil {
			t.Fatalf("truncation at %d bytes decoded without error", cut)
		}
	}
}

func TestDecodeRejectsBadMagicAndCodec(t *testing.T) {
	s := employeeSchema(t)
	enc, err := EncodeBlock(CodecAVQ, s, fig33Block(), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 0x00
	if _, err := DecodeBlockArena(s, bad, nil); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestRetiredCodecBytesRejected is the block-stream boundary of the codec
// byte: a well-checksummed stream naming codec 2, 3 (the retired rep-only
// and delta-chain layouts) or 9 is refused with ErrBadCodec by Inspect and
// by every decode shape.
func TestRetiredCodecBytesRejected(t *testing.T) {
	s := employeeSchema(t)
	enc, err := EncodeBlock(CodecAVQ, s, fig33Block(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []byte{2, 3, 9} {
		bad := append([]byte(nil), enc[:len(enc)-crcSize]...)
		bad[1] = b
		bad = rechecksum(bad)
		shapes := map[string]func() error{
			"inspect": func() error { _, err := Inspect(bad); return err },
			"full":    func() error { _, err := DecodeBlockArena(s, bad, nil); return err },
			"at":      func() error { _, err := DecodeTupleAtArena(s, bad, 0, nil); return err },
			"span":    func() error { _, err := DecodeTupleSpanArena(s, bad, 0, 1, nil); return err },
			"φ-slab":  func() error { _, err := DecodeBlockPhis(s, bad, nil); return err },
			"φ-span":  func() error { _, _, err := PhiSpan(s, bad, 0, math.MaxUint64, nil); return err },
		}
		for name, run := range shapes {
			if err := run(); !errors.Is(err, ErrBadCodec) {
				t.Errorf("codec byte %d, %s: err = %v, want ErrBadCodec", b, name, err)
			}
		}
	}
}

func TestInspect(t *testing.T) {
	s := employeeSchema(t)
	enc, err := EncodeBlock(CodecAVQ, s, fig33Block(), nil)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(enc)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if info.Codec != CodecAVQ || info.TupleCount != 5 || info.StreamSize != len(enc) {
		t.Fatalf("Inspect = %+v", info)
	}
}

func TestCodecString(t *testing.T) {
	want := map[Codec]string{CodecRaw: "raw", CodecAVQ: "avq", CodecPacked: "packed"}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), w)
		}
		if got, err := ParseCodec(w); got != c || err != nil {
			t.Errorf("ParseCodec(%q) = %v, %v", w, got, err)
		}
	}
	if len(Codecs()) != len(want) {
		t.Fatalf("Codecs() = %v", Codecs())
	}
	for _, c := range []Codec{2, 3, 42} {
		if c.Valid() {
			t.Fatalf("Codec(%d) claims valid", c)
		}
	}
	for _, name := range []string{"rep-only", "delta-chain", "Codec(2)", ""} {
		if _, err := ParseCodec(name); !errors.Is(err, ErrBadCodec) {
			t.Errorf("ParseCodec(%q) err = %v, want ErrBadCodec", name, err)
		}
	}
}

// TestChainedBeatsUnchained validates the benefit of Example 3.3 that the
// ablation experiment quantifies: the chained codec never produces a larger
// stream than the unchained one on sorted blocks, and usually a smaller one.
// The unchained size (Figure 3.3 (b): every tuple's distance from the
// median) is summed on the AVQ Sizer, whose pair cost is the byte-RLE size
// of any nonnegative difference.
func TestChainedBeatsUnchained(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	wins := 0
	for iter := 0; iter < 50; iter++ {
		s := randomSchema(rng)
		block := randomSortedBlock(s, rng, 200)
		chained, err := EncodedSize(CodecAVQ, s, block)
		if err != nil {
			t.Fatal(err)
		}
		z, mid, acc := NewSizer(CodecAVQ, s), len(block)/2, 0
		for i, tu := range block {
			if i == mid {
				continue
			}
			lo, hi := tu, block[mid]
			if i > mid {
				lo, hi = hi, lo
			}
			cost, err := z.PairCost(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			acc += cost
		}
		unchained := z.BlockSize(len(block), acc)
		if chained < unchained {
			wins++
		}
	}
	if wins < 35 {
		t.Fatalf("chained differencing beat unchained only %d/50 times", wins)
	}
}
