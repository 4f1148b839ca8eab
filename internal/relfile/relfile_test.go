package relfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

func testSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Domain{Name: "dept", Size: 8, Kind: relation.KindString},
		relation.Domain{Name: "job", Size: 16, Kind: relation.KindString},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "hours", Size: 64},
		relation.Domain{Name: "empno", Size: 70000},
	)
}

func randomTuples(t testing.TB, n int, seed int64) []relation.Tuple {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(70000)),
		}
	}
	return tuples
}

func TestPlainRoundTrip(t *testing.T) {
	s := testSchema(t)
	tuples := randomTuples(t, 500, 1)
	var buf bytes.Buffer
	if err := WritePlain(&buf, s, tuples); err != nil {
		t.Fatal(err)
	}
	s2, tuples2, err := ReadPlain(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(s2) {
		t.Fatalf("schema mismatch: %v vs %v", s, s2)
	}
	if s2.Domain(0).Kind != relation.KindString {
		t.Fatal("domain kind lost")
	}
	if len(tuples2) != len(tuples) {
		t.Fatalf("tuples = %d, want %d", len(tuples2), len(tuples))
	}
	for i := range tuples {
		if s.Compare(tuples[i], tuples2[i]) != 0 {
			t.Fatalf("tuple %d mismatch", i)
		}
	}
}

func TestPlainEmptyRelation(t *testing.T) {
	s := testSchema(t)
	var buf bytes.Buffer
	if err := WritePlain(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	_, tuples, err := ReadPlain(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 0 {
		t.Fatalf("tuples = %d", len(tuples))
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	s := testSchema(t)
	tuples := randomTuples(t, 2000, 2)
	for _, codec := range core.Codecs() {
		var buf bytes.Buffer
		info, err := WriteCompressed(&buf, s, tuples, codec, 1024)
		if err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		if info.Blocks <= 0 || info.Tuples != 2000 {
			t.Fatalf("%v: info = %+v", codec, info)
		}
		s2, tuples2, err := ReadCompressed(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: read: %v", codec, err)
		}
		if !s.Equal(s2) {
			t.Fatalf("%v: schema mismatch", codec)
		}
		if len(tuples2) != len(tuples) {
			t.Fatalf("%v: %d tuples, want %d", codec, len(tuples2), len(tuples))
		}
		// Output is in phi order; compare against the sorted input.
		want := make([]relation.Tuple, len(tuples))
		copy(want, tuples)
		s.SortTuples(want)
		for i := range want {
			if s.Compare(want[i], tuples2[i]) != 0 {
				t.Fatalf("%v: tuple %d mismatch", codec, i)
			}
		}
	}
}

func TestCompressedSmallerThanPlainForAVQ(t *testing.T) {
	s := testSchema(t)
	tuples := randomTuples(t, 5000, 3)
	var plain, compressed bytes.Buffer
	if err := WritePlain(&plain, s, tuples); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCompressed(&compressed, s, tuples, core.CodecAVQ, 8192); err != nil {
		t.Fatal(err)
	}
	if compressed.Len() >= plain.Len() {
		t.Fatalf("compressed %d bytes >= plain %d bytes", compressed.Len(), plain.Len())
	}
}

func TestInspectCompressed(t *testing.T) {
	s := testSchema(t)
	tuples := randomTuples(t, 1000, 4)
	var buf bytes.Buffer
	wrote, err := WriteCompressed(&buf, s, tuples, core.CodecAVQ, 2048)
	if err != nil {
		t.Fatal(err)
	}
	info, err := InspectCompressed(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Blocks != wrote.Blocks || info.Tuples != 1000 || info.Codec != core.CodecAVQ {
		t.Fatalf("info = %+v, wrote = %+v", info, wrote)
	}
	if info.StreamBytes != wrote.StreamBytes {
		t.Fatalf("stream bytes %d != %d", info.StreamBytes, wrote.StreamBytes)
	}
}

// writeCompressedV1 emits the legacy fence-less format so the readers'
// backward compatibility stays under test.
func writeCompressedV1(t *testing.T, s *relation.Schema, tuples []relation.Tuple, codec core.Codec, blockSize int) []byte {
	t.Helper()
	sorted := make([]relation.Tuple, len(tuples))
	copy(sorted, tuples)
	s.SortTuples(sorted)
	var raw bytes.Buffer
	bw := bufio.NewWriter(&raw)
	if _, err := bw.Write(magicCompressed); err != nil {
		t.Fatal(err)
	}
	if err := writeSchema(bw, s); err != nil {
		t.Fatal(err)
	}
	if err := writeUvarint(bw, uint64(blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteByte(byte(codec)); err != nil {
		t.Fatal(err)
	}
	runs, _, err := core.Pack(codec, s, sorted, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeUvarint(bw, uint64(len(runs))); err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		stream, err := core.EncodeBlock(codec, s, run, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeUvarint(bw, uint64(len(stream))); err != nil {
			t.Fatal(err)
		}
		if _, err := bw.Write(stream); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}

func TestCompressedV1BackwardCompat(t *testing.T) {
	s := testSchema(t)
	tuples := randomTuples(t, 800, 11)
	data := writeCompressedV1(t, s, tuples, core.CodecAVQ, 1024)
	info, err := InspectCompressed(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Tuples != len(tuples) {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Fences) != 0 {
		t.Fatalf("v1 file produced %d fences", len(info.Fences))
	}
	_, got, err := ReadCompressed(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]relation.Tuple, len(tuples))
	copy(want, tuples)
	s.SortTuples(want)
	for i := range want {
		if s.Compare(want[i], got[i]) != 0 {
			t.Fatalf("tuple %d mismatch", i)
		}
	}
}

func TestCompressedFences(t *testing.T) {
	s := testSchema(t)
	tuples := randomTuples(t, 1500, 12)
	var buf bytes.Buffer
	wrote, err := WriteCompressed(&buf, s, tuples, core.CodecAVQ, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if wrote.Version != 2 || len(wrote.Fences) != wrote.Blocks {
		t.Fatalf("wrote = %+v", wrote)
	}
	info, err := InspectCompressed(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || len(info.Fences) != info.Blocks || len(info.Anchors) != info.Blocks {
		t.Fatalf("info = %+v", info)
	}
	total := 0
	for i, f := range info.Fences {
		total += f.Count
		if s.Compare(f.First, f.Last) > 0 {
			t.Fatalf("fence %d out of phi order", i)
		}
		if i > 0 && s.Compare(info.Fences[i-1].Last, f.First) > 0 {
			t.Fatalf("fence %d overlaps predecessor", i)
		}
		if info.Anchors[i] < 0 || info.Anchors[i] >= f.Count {
			t.Fatalf("anchor %d = %d out of [0,%d)", i, info.Anchors[i], f.Count)
		}
	}
	if total != len(tuples) {
		t.Fatalf("fences cover %d tuples, want %d", total, len(tuples))
	}
	// A fence that disagrees with its block must be rejected. The first
	// fence starts right after magic+schema+blocksize+codec+blockcount;
	// corrupt its count byte.
	uvLen := func(v uint64) int {
		var b [binary.MaxVarintLen64]byte
		return binary.PutUvarint(b[:], v)
	}
	blob := s.AppendBinary(nil)
	hdr := len(magicCompressed) + uvLen(uint64(len(blob))) + len(blob) +
		uvLen(1024) + 1 + uvLen(uint64(info.Blocks))
	bad := append([]byte(nil), buf.Bytes()...)
	bad[hdr] ^= 0x01
	if _, err := InspectCompressed(bytes.NewReader(bad)); err == nil {
		t.Fatal("tampered fence count accepted by inspect")
	}
	if _, _, err := ReadCompressed(bytes.NewReader(bad)); err == nil {
		t.Fatal("tampered fence count accepted by read")
	}
}

func TestCorruptionDetected(t *testing.T) {
	s := testSchema(t)
	tuples := randomTuples(t, 300, 5)
	var buf bytes.Buffer
	if _, err := WriteCompressed(&buf, s, tuples, core.CodecAVQ, 1024); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	rng := rand.New(rand.NewSource(6))
	detected := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		bad := append([]byte(nil), data...)
		// Corrupt within the block payload region (past the header).
		pos := len(bad)/4 + rng.Intn(len(bad)/2)
		bad[pos] ^= 0xFF
		if _, _, err := ReadCompressed(bytes.NewReader(bad)); err != nil {
			detected++
		}
	}
	if detected < trials*9/10 {
		t.Fatalf("only %d/%d corruptions detected", detected, trials)
	}
}

func TestTruncationDetected(t *testing.T) {
	s := testSchema(t)
	tuples := randomTuples(t, 300, 7)
	var buf bytes.Buffer
	if _, err := WriteCompressed(&buf, s, tuples, core.CodecAVQ, 1024); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 3, 10, len(data) / 2, len(data) - 1} {
		if _, _, err := ReadCompressed(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, _, err := ReadPlain(bytes.NewReader([]byte("NOTAFILE"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("plain bad magic err = %v", err)
	}
	if _, err := InspectCompressed(bytes.NewReader([]byte("NOTAFILE"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("compressed bad magic err = %v", err)
	}
	// A plain file is not a compressed file and vice versa.
	s := testSchema(t)
	var plain bytes.Buffer
	if err := WritePlain(&plain, s, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCompressed(bytes.NewReader(plain.Bytes())); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("cross-format read err = %v", err)
	}
}

func TestWriteCompressedValidation(t *testing.T) {
	s := testSchema(t)
	var buf bytes.Buffer
	if _, err := WriteCompressed(&buf, s, nil, core.Codec(99), 1024); err == nil {
		t.Fatal("bad codec accepted")
	}
	if _, err := WriteCompressed(&buf, s, nil, core.CodecAVQ, 4); err == nil {
		t.Fatal("block smaller than a tuple accepted")
	}
	bad := []relation.Tuple{{99, 0, 0, 0, 0}}
	if _, err := WriteCompressed(&buf, s, bad, core.CodecAVQ, 1024); err == nil {
		t.Fatal("out-of-domain tuple accepted")
	}
	if err := WritePlain(&buf, s, bad); err == nil {
		t.Fatal("plain writer accepted out-of-domain tuple")
	}
}

// TestBadCodecByteRejected is the relfile header's boundary of the codec
// byte: the writer refuses codec 2, 3 (the retired rep-only and
// delta-chain layouts) and 9, and both readers refuse a header naming
// them, each with core.ErrBadCodec.
func TestBadCodecByteRejected(t *testing.T) {
	s := testSchema(t)
	const blockSize = 1024
	var buf bytes.Buffer
	if _, err := WriteCompressed(&buf, s, randomTuples(t, 200, 12), core.CodecAVQ, blockSize); err != nil {
		t.Fatal(err)
	}
	blob := s.AppendBinary(nil)
	at := len(magicCompressedV2) + len(binary.AppendUvarint(nil, uint64(len(blob)))) + len(blob) +
		len(binary.AppendUvarint(nil, blockSize))
	if buf.Bytes()[at] != byte(core.CodecAVQ) {
		t.Fatalf("header byte %d is %d, not the codec", at, buf.Bytes()[at])
	}
	for _, c := range []core.Codec{2, 3, 9} {
		if _, err := WriteCompressed(io.Discard, s, nil, c, blockSize); !errors.Is(err, core.ErrBadCodec) {
			t.Errorf("write codec %d: err = %v, want core.ErrBadCodec", c, err)
		}
		data := bytes.Clone(buf.Bytes())
		data[at] = byte(c)
		if _, _, err := ReadCompressed(bytes.NewReader(data)); !errors.Is(err, core.ErrBadCodec) {
			t.Errorf("read codec %d: err = %v, want core.ErrBadCodec", c, err)
		}
		if _, err := InspectCompressed(bytes.NewReader(data)); !errors.Is(err, core.ErrBadCodec) {
			t.Errorf("inspect codec %d: err = %v, want core.ErrBadCodec", c, err)
		}
	}
}
