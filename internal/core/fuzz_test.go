package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// FuzzDecodeBlock drives every decode shape with arbitrary bytes, both as
// given and with the trailing four bytes replaced by a valid checksum (so
// the fuzzer reaches the payload parsers instead of dying at the CRC),
// under schemas on both sides of the split-ordinal form: a small
// three-attribute one, wordShapes' eight (among them the end-to-end
// ledger's flat8 and wide38, fields straddling the two words of a row's
// last 16 bytes, radices 256^w and 256^w-1, and suffixes wider than 16
// bytes), and splitSchemas' three (a suffix of one attribute, a suffix of
// 63 one-byte fields, a flat 20-byte row), each seeded with blocks of its
// own. Properties: no panics; every shape
// accepts/rejects and decodes exactly as the naive reference decoder does
// (checkShapesAgainstReference); and anything that decodes to a sorted
// block re-encodes to a stream that decodes to the same tuples (decode is
// a retraction of encode).
func FuzzDecodeBlock(f *testing.F) {
	s := relation.MustSchema(
		relation.Domain{Name: "a", Size: 8},
		relation.Domain{Name: "b", Size: 300},
		relation.Domain{Name: "c", Size: 64},
	)
	// Seeds #0-#4 are one block per codec byte 0-4; bytes 2 and 3, the
	// retired rep-only and delta-chain layouts, carry an AVQ payload that
	// every shape must now refuse with ErrBadCodec.
	rng := rand.New(rand.NewSource(1))
	for b := Codec(0); b <= CodecPacked; b++ {
		block := randomSortedBlock(s, rng, 20)
		c := b
		if !c.Valid() {
			c = CodecAVQ
		}
		enc, err := EncodeBlock(c, s, block, nil)
		if err != nil {
			f.Fatal(err)
		}
		enc[1] = byte(b)
		f.Add(rechecksum(enc[:len(enc)-crcSize]))
	}
	f.Add([]byte{})
	f.Add([]byte{0xA7, 0x01, 0x00})
	schemas := []*relation.Schema{s}
	for _, c := range wordShapes(f) {
		block := c.run
		if block == nil {
			block = clusteredBlock(c.s, rng, 30, c.cluster)
		}
		enc, err := EncodeBlock(CodecAVQ, c.s, block, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		schemas = append(schemas, c.s)
	}
	for _, c := range splitSchemas() {
		enc, err := EncodeBlock(CodecAVQ, c.s, clusteredBlock(c.s, rng, 30, c.attrs), nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		schemas = append(schemas, c.s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range schemas {
			checkDecodeBlock(t, s, data)
		}
	})
}

// checkDecodeBlock is FuzzDecodeBlock's check of one input under one
// schema.
func checkDecodeBlock(t *testing.T, s *relation.Schema, data []byte) {
	if len(data) >= 2+1+crcSize && data[0] == blockMagic && !Codec(data[1]).Valid() {
		if _, err := DecodeBlockArena(s, data, nil); !errors.Is(err, ErrBadCodec) {
			t.Fatalf("codec byte %d: err = %v, want ErrBadCodec", data[1], err)
		}
	}
	checkShapesAgainstReference(t, s, data)
	if len(data) >= crcSize {
		data = rechecksum(data[:len(data)-crcSize])
		checkShapesAgainstReference(t, s, data)
	}
	tuples, err := DecodeBlockArena(s, data, nil)
	if err != nil {
		return
	}
	for _, tu := range tuples {
		if err := s.ValidateTuple(tu); err != nil {
			t.Fatalf("decode produced invalid tuple %v: %v", tu, err)
		}
	}
	// Re-encode and compare (the tuples are sorted by construction of any
	// successfully decoded chained stream; a raw block may decode unsorted
	// tuples, so only check when sorted).
	if !s.TuplesSorted(tuples) {
		return
	}
	info, err := Inspect(data)
	if err != nil {
		t.Fatalf("decoded but Inspect failed: %v", err)
	}
	enc, err := EncodeBlock(info.Codec, s, tuples, nil)
	if err != nil {
		t.Fatalf("re-encode failed: %v", err)
	}
	back, err := DecodeBlockArena(s, enc, nil)
	if err != nil {
		t.Fatalf("re-encoded stream does not decode: %v", err)
	}
	if !sameTuples(s, back, tuples) {
		t.Fatalf("round trip changed the block: %v -> %v", tuples, back)
	}
}

// FuzzEditBlock cuts arbitrary digit material into a block and an edit —
// a sorted run of inserts, or a delete when the cut leaves none — and
// asserts that EditBlock's stream is EncodeBlock's stream of the edited
// run (checkEdit) under every codec, on a flat schema (φ slab) and one past
// 64 bits (tuple slab). data[0] picks the codec, data[1] the cut.
func FuzzEditBlock(f *testing.F) {
	flat := relation.MustSchema(
		relation.Domain{Name: "a", Size: 16},
		relation.Domain{Name: "b", Size: 1000},
		relation.Domain{Name: "c", Size: 64},
	)
	wide := relation.MustSchema(
		relation.Domain{Name: "a", Size: 16},
		relation.Domain{Name: "b", Size: 1000},
		relation.Domain{Name: "c", Size: 1 << 40},
		relation.Domain{Name: "d", Size: 1 << 40},
	)
	rng := rand.New(rand.NewSource(9))
	for c := range 3 {
		seed := make([]byte, 2+rng.Intn(120))
		rng.Read(seed)
		seed[0] = byte(c)
		f.Add(seed)
	}
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		c := Codecs()[int(data[0])%len(Codecs())]
		for _, s := range []*relation.Schema{flat, wide} {
			var tuples []relation.Tuple
			for rest := data[2:]; len(rest) >= 2*s.NumAttrs() && len(tuples) < 64; rest = rest[2*s.NumAttrs():] {
				tu := make(relation.Tuple, s.NumAttrs())
				for i := range tu {
					tu[i] = (uint64(rest[2*i])<<8 | uint64(rest[2*i+1])) % s.Domain(i).Size
				}
				tuples = append(tuples, tu)
			}
			if len(tuples) == 0 {
				continue
			}
			cut := 1 + int(data[1])%len(tuples)
			block, ins := tuples[:cut], tuples[cut:]
			s.SortTuples(block)
			s.SortTuples(ins)
			e := Edit{Insert: ins}
			if len(ins) == 0 {
				e.Delete = int(data[1]) % len(block)
			}
			checkEdit(t, c, s, block, e)
		}
	})
}

// FuzzEncodeArbitraryTuples feeds arbitrary digit material through the
// sort-encode-decode pipeline.
func FuzzEncodeArbitraryTuples(f *testing.F) {
	s := relation.MustSchema(
		relation.Domain{Name: "a", Size: 16},
		relation.Domain{Name: "b", Size: 1000},
	)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tuples []relation.Tuple
		for i := 0; i+3 <= len(data) && len(tuples) < 64; i += 3 {
			tuples = append(tuples, relation.Tuple{
				uint64(data[i]) % 16,
				(uint64(data[i+1])<<8 | uint64(data[i+2])) % 1000,
			})
		}
		s.SortTuples(tuples)
		for _, c := range Codecs() {
			enc, err := EncodeBlock(c, s, tuples, nil)
			if err != nil {
				t.Fatalf("%v: encode: %v", c, err)
			}
			got, err := DecodeBlockArena(s, enc, nil)
			if err != nil {
				t.Fatalf("%v: decode: %v", c, err)
			}
			if len(got) != len(tuples) {
				t.Fatalf("%v: count changed", c)
			}
			for i := range got {
				if s.Compare(got[i], tuples[i]) != 0 {
					t.Fatalf("%v: tuple %d changed", c, i)
				}
			}
		}
	})
}
