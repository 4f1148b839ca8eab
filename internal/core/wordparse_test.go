package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/relation"
)

// ledgerRelation generates n φ-sorted tuples shaped like the end-to-end
// benchmark's named relation (gen.BenchShapeSpec).
func ledgerRelation(tb testing.TB, name string, n int) (*relation.Schema, []relation.Tuple) {
	tb.Helper()
	spec, err := gen.BenchShapeSpec(name, n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	s, tuples, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	s.SortTuples(tuples)
	return s, tuples
}

// rleFrame is one byte-RLE difference: its count byte and tail.
type rleFrame struct {
	lz   int
	tail []byte
}

// rleFrames splits a valid AVQ stream into the payload bytes ahead of its
// first difference (header, anchor index, anchor row) and its count-1
// difference frames.
func rleFrames(t *testing.T, s *relation.Schema, enc []byte) (prefix []byte, frames []rleFrame) {
	t.Helper()
	count, n := binary.Uvarint(enc[2:])
	pos := 2 + n
	_, n = binary.Uvarint(enc[pos:])
	pos += n + s.RowSize()
	prefix = enc[:pos]
	for k := uint64(1); k < count; k++ {
		lz := int(enc[pos])
		end := pos + 1 + s.RowSize() - lz
		frames = append(frames, rleFrame{lz, enc[pos+1 : end]})
		pos = end
	}
	if pos != len(enc)-crcSize {
		t.Fatalf("rleFrames: %d bytes left over", len(enc)-crcSize-pos)
	}
	return prefix, frames
}

// joinFrames reassembles a stream from rleFrames' parts with a fresh CRC.
func joinFrames(prefix []byte, frames []rleFrame) []byte {
	out := append([]byte(nil), prefix...)
	for _, f := range frames {
		out = append(append(out, byte(f.lz)), f.tail...)
	}
	return rechecksum(out)
}

// reframe re-codes frame f with count byte lz <= f.lz: the zero bytes
// between lz and f.lz move into the tail. The stream is still one the
// reference accepts, just not the one the encoder writes.
func reframe(f rleFrame, lz int) rleFrame {
	return rleFrame{lz, append(make([]byte, f.lz-lz), f.tail...)}
}

// TestWordParsesAgainstReference holds the word-at-a-time difference
// parse (split's one-word tails, its per-field word loads for longer
// ones and for frames that reach the prefix, and the byte path taken at
// the start of a body) to the reference decoder, through every decode
// shape. The schemas reach every branch:
//
//   - flat8: 14-byte rows, radix-257 digits, attribute 2 straddling the
//     8-byte word boundary (bytes 5-6 of the row);
//   - the employee schema: 5-byte rows, where the first differences of a
//     block sit within 8 bytes of the body's start;
//   - seventeen radix-2 attributes: a flat row wider than 16 bytes;
//   - wide38: a split schema, whose frames reach the prefix.
//
// Each gets duplicate tuples (lz == RowSize), lz == 0 both natural and
// re-framed, two-tuple blocks whose one difference directly follows the
// anchor row, an out-of-radix first attribute past the zero run, and
// random byte mutations, all re-checksummed so they reach the parsers.
func TestWordParsesAgainstReference(t *testing.T) {
	flat8, _ := ledgerRelation(t, "flat8", 1)
	wide38, wide38Run := ledgerRelation(t, "wide38", 400)
	_, flat8Run := ledgerRelation(t, "flat8", 400)
	bits := make([]relation.Domain, 17)
	for i := range bits {
		bits[i] = relation.Domain{Name: string(rune('a' + i)), Size: 2}
	}
	cases := []struct {
		name string
		s    *relation.Schema
		run  []relation.Tuple // a ledger-shaped sorted run, if any
	}{
		{"flat8", flat8, flat8Run[:40]},
		{"employee", employeeSchema(t), nil},
		{"bits17", relation.MustSchema(bits...), nil},
		{"wide38", wide38, wide38Run[:40]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.s
			rng := rand.New(rand.NewSource(int64(s.RowSize())))
			lo, hi := make(relation.Tuple, s.NumAttrs()), make(relation.Tuple, s.NumAttrs())
			for i := range hi {
				hi[i] = s.Domain(i).Size - 1
			}
			lo1 := lo.Clone()
			lo1[len(lo1)-1] = 1
			random := randomSortedBlock(s, rng, 30)
			blocks := [][]relation.Tuple{
				random,
				{random[0], random[0], random[0], random[1], random[1]}, // duplicates: lz == RowSize
				{lo, hi},                // one difference with lz == 0, right after the anchor row
				{lo, lo1},               // a one-byte difference right after the anchor row
				{random[3], random[4]},  // one difference right after the anchor row
				{lo, lo, random[2], hi}, // both ends of the space around a duplicate
			}
			if c.run != nil {
				blocks = append(blocks, c.run)
			}
			if s == flat8 {
				// Differences of 256 and 1 in attribute 2, whose field is row
				// bytes 5-6 and straddles the 8-byte word boundary of a
				// 14-byte row: a two-word tail (lz 5) and a one-word one
				// (lz 6), then one in attribute 3 and a duplicate.
				a := random[5].Clone()
				a[2], a[3] = 0, 0
				b, e := a.Clone(), a.Clone()
				b[2], e[2], e[3] = 256, 256, 1
				blocks = append(blocks, []relation.Tuple{a, b, e, e})
			}
			for _, block := range blocks {
				for _, codec := range Codecs() {
					enc, err := EncodeBlock(codec, s, block, nil)
					if err != nil {
						t.Fatal(err)
					}
					checkShapesAgainstReference(t, s, enc)
					for m := 0; m < 4; m++ {
						bad := append([]byte(nil), enc[:len(enc)-crcSize]...)
						bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
						checkShapesAgainstReference(t, s, rechecksum(bad))
					}
					if codec == CodecRaw || codec == CodecPacked {
						continue
					}
					prefix, frames := rleFrames(t, s, enc)
					for _, k := range []int{0, len(frames) / 2, len(frames) - 1} {
						if k < 0 {
							continue
						}
						f := frames[k]
						mutated := func(g rleFrame) []byte {
							fs := append([]rleFrame(nil), frames...)
							fs[k] = g
							return joinFrames(prefix, fs)
						}
						// The same difference framed with lz == 0.
						checkShapesAgainstReference(t, s, mutated(reframe(f, 0)))
						if f.lz == s.RowSize() {
							continue
						}
						// The first attribute past the zero run, set to all
						// ones from its first byte: outside its radix.
						attr := s.AttrAtByte(f.lz)
						g := reframe(f, s.AttrOffset(attr))
						for j := 0; j < s.AttrWidth(attr); j++ {
							g.tail[j] = 0xFF
						}
						bad := mutated(g)
						if _, err := refDecode(s, bad); err == nil && s.Domain(attr).Size < 1<<(8*s.AttrWidth(attr)) {
							t.Fatalf("frame %d: out-of-radix attribute %d accepted by the reference", k, attr)
						}
						checkShapesAgainstReference(t, s, bad)
					}
				}
			}
		})
	}
}
