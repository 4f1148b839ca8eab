package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
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

// wordShape is one schema of the word-parse tests: with a ledger-shaped
// sorted run when it has one, and the number of leading attributes its
// clustered blocks step through (clusteredBlock), which keeps most of
// their differences in the schema's split suffix.
type wordShape struct {
	name    string
	s       *relation.Schema
	run     []relation.Tuple
	cluster int
}

// wordShapes are the schemas the word-at-a-time difference parse is held
// to the reference on (relation.TailPlan reads a frame's tail as the
// row's last 16 bytes, two big-endian words):
//
//   - flat8: 14-byte rows, radix-257 digits, attribute 2 straddling the
//     two words (row bytes 5-6);
//   - wide38: a split schema (at 11), 25 % of whose frames reach the
//     prefix;
//   - employee: 5-byte rows, where a block's first differences sit within
//     16 bytes of the body's start;
//   - bits17: seventeen radix-2 attributes, a suffix wider than 16 bytes;
//   - straddle24: a split schema whose 9-byte suffix has a 3-byte field
//     of radix 256^3-1 straddling the two words, radices 255, 65535, 64,
//     2 and 1 below it;
//   - pow: a flat 9-byte row of radices 2, 8, 64, 256, 65536 and 2^24, the
//     ones equal to 256^w admitting every byte pattern;
//   - straddle64: an 8-byte field of radix 2^62+1 straddling the two words
//     of a split suffix;
//   - cut19: a flat 19-byte row whose 16-byte window cuts a 3-byte field
//     of radix 2^20 off at the top.
func wordShapes(tb testing.TB) []wordShape {
	tb.Helper()
	flat8, flat8Run := ledgerRelation(tb, "flat8", 400)
	wide38, wide38Run := ledgerRelation(tb, "wide38", 400)
	schema := func(sizes ...uint64) *relation.Schema {
		d := make([]relation.Domain, len(sizes))
		for i, size := range sizes {
			d[i] = relation.Domain{Name: fmt.Sprintf("a%d", i), Size: size}
		}
		return relation.MustSchema(d...)
	}
	bits17 := make([]uint64, 17)
	for i := range bits17 {
		bits17[i] = 2
	}
	cut19 := []uint64{2, 2, 1 << 20}
	for range 14 {
		cut19 = append(cut19, 2)
	}
	return []wordShape{
		{"flat8", flat8, flat8Run[:40], 1},
		{"wide38", wide38, wide38Run[:40], 11},
		{"employee", employeeSchema(tb), nil, 1},
		{"bits17", schema(bits17...), nil, 2},
		{"straddle24", schema(2, 8, 256, 1<<16, 1<<24-1, 64, 255, 1<<16-1, 2, 1), nil, 4},
		{"pow", schema(2, 8, 64, 256, 1<<16, 1<<24), nil, 2},
		{"straddle64", schema(3, 1<<62+1, 3), nil, 1},
		{"cut19", schema(cut19...), nil, 2},
	}
}

// TestWordParsesAgainstReference holds the word-at-a-time difference
// parse (split's window over the row's last 16 bytes, and long's field
// at a time parse of the frames that reach the prefix, have longer tails
// or lie near the body's start) to the reference decoder, through every
// decode shape, on each of wordShapes. Each gets duplicate tuples (lz ==
// RowSize), lz == 0 both natural and re-framed, two-tuple blocks whose
// one difference directly follows the anchor row, clustered blocks whose
// differences stay in the suffix, an out-of-radix first attribute past
// the zero run, and random byte mutations, all re-checksummed so they
// reach the parsers.
func TestWordParsesAgainstReference(t *testing.T) {
	for _, c := range wordShapes(t) {
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
				clusteredBlock(s, rng, 30, c.cluster),
			}
			if c.run != nil {
				blocks = append(blocks, c.run)
			}
			if c.name == "flat8" {
				// Differences of 256 and 1 in attribute 2, whose field is row
				// bytes 5-6 and straddles the two words of a 14-byte row: a
				// two-word tail (lz 5) and a one-word one (lz 6), then one in
				// attribute 3 and a duplicate.
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

// TestOutOfRadixDigitNamed sets every digit of every difference frame of
// a block, one at a time, to its radix and to all 0xff bytes (re-framing
// the difference first when the digit lies in its zero run), on each of
// wordShapes. Where that value is outside the radix, every shape that
// parses the frame must fail with ErrCorrupt naming that digit, its value
// and its radix: the word-wide check turns a frame it rejects over to
// long, whose digit-by-digit error is the one the parse has always
// given. Where it is inside (radix 256^w), the stream is held to the
// reference like any other.
func TestOutOfRadixDigitNamed(t *testing.T) {
	for _, c := range wordShapes(t) {
		t.Run(c.name, func(t *testing.T) {
			s := c.s
			block := c.run
			if block == nil {
				block = clusteredBlock(s, rand.New(rand.NewSource(int64(s.RowSize()))), 24, c.cluster)
			}
			enc, err := EncodeBlock(CodecAVQ, s, block, nil)
			if err != nil {
				t.Fatal(err)
			}
			info, err := Inspect(enc)
			if err != nil {
				t.Fatal(err)
			}
			_, flat := s.FlatSpace()
			prefix, frames := rleFrames(t, s, enc)
			for k, f := range frames {
				pos := k // the position whose difference frame k is
				if k >= info.RepIndex {
					pos++
				}
				for i := range s.NumAttrs() {
					w, radix := s.AttrWidth(i), s.Domain(i).Size
					g := reframe(f, min(f.lz, s.AttrOffset(i)))
					for _, v := range []uint64{radix, math.MaxUint64 >> (64 - 8*w)} {
						if v>>1>>(8*w-1) != 0 {
							continue // radix 256^w: no field holds it
						}
						tail := append([]byte(nil), g.tail...)
						field := tail[s.AttrOffset(i)-g.lz:][:w]
						for b := range field {
							field[b] = byte(v >> (8 * (w - 1 - b)))
						}
						fs := append([]rleFrame(nil), frames...)
						fs[k] = rleFrame{g.lz, tail}
						data := joinFrames(prefix, fs)
						if v < radix {
							checkShapesAgainstReference(t, s, data)
							continue
						}
						want := fmt.Sprintf("digit %d value %d outside radix %d", i, v, radix)
						a := NewArena()
						errs := map[string]error{}
						_, errs["full"] = DecodeBlockArena(s, data, a)
						_, errs["span"] = DecodeTupleSpanArena(s, data, 0, len(block), a)
						_, errs["point"] = DecodeTupleAtArena(s, data, pos, a)
						if flat {
							_, errs["φ slab"] = DecodeBlockPhis(s, data, a)
							_, _, errs["φ span"] = PhiSpan(s, data, 0, math.MaxUint64, a)
							_, errs["φ span slab"] = PhiSpanSlab(s, data, 0, math.MaxUint64, nil, a)
						}
						for shape, err := range errs {
							if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
								t.Fatalf("frame %d, attribute %d set to %d: %s err = %v, want ErrCorrupt with %q", k, i, v, shape, err, want)
							}
						}
					}
				}
			}
		})
	}
}

// decodeBenchShape is one sorted relation of BenchmarkDecodeBlockPhis.
type decodeBenchShape struct {
	name   string
	s      *relation.Schema
	tuples []relation.Tuple
}

// decodeBenchShapes are BenchmarkDecodeBlockPhis's relations:
//
//   - flat8 and wide38: the end-to-end ledger's relations at its 1M-tuple
//     density (gen.BenchShapeSpec), 50k tuples each;
//   - wide31: 31 random attributes of 4 values, a flat 31-byte row whose
//     differences all have tails over 16 bytes, so long parses them.
func decodeBenchShapes(b *testing.B) []decodeBenchShape {
	b.Helper()
	var shapes []decodeBenchShape
	for _, name := range []string{"flat8", "wide38"} {
		s, tuples := ledgerRelation(b, name, 50_000)
		shapes = append(shapes, decodeBenchShape{name, s, tuples})
	}
	sizes := make([]uint64, 31)
	for i := range sizes {
		sizes[i] = 4
	}
	s, tuples, err := gen.Spec{Tuples: 50_000, Seed: 1, DomainSizes: sizes}.Build()
	if err != nil {
		b.Fatal(err)
	}
	s.SortTuples(tuples)
	return append(shapes, decodeBenchShape{"wide31", s, tuples})
}

// pageBlocks cuts sorted tuples into 8 KiB pages' worth of c-coded blocks
// (Pack at a page's stream capacity, the page less its 4-byte length
// prefix) the way a bulk load cuts them, and returns them with their
// total coded bytes.
func pageBlocks(tb testing.TB, c Codec, s *relation.Schema, tuples []relation.Tuple) (blocks [][]byte, bytes int) {
	tb.Helper()
	runs, _, err := Pack(c, s, tuples, 8192-4)
	if err != nil {
		tb.Fatal(err)
	}
	for _, run := range runs {
		enc, err := EncodeBlock(c, s, run, nil)
		if err != nil {
			tb.Fatal(err)
		}
		blocks = append(blocks, enc)
		bytes += len(enc)
	}
	return blocks, bytes
}

// decodeBlocks decodes every block the way the table's reads do: the φ
// slab (DecodeBlockPhis) on a flat schema, tuples (DecodeBlockArena) on a
// split one, whose space exceeds 64 bits.
func decodeBlocks(s *relation.Schema, blocks [][]byte, a *Arena) error {
	_, flat := s.FlatSpace()
	for _, blk := range blocks {
		a.Reset()
		var err error
		if flat {
			_, err = DecodeBlockPhis(s, blk, a)
		} else {
			_, err = DecodeBlockArena(s, blk, a)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkDecodeBlockPhis times whole-relation passes of the block decode
// (decodeBlocks) over decodeBenchShapes' page-sized blocks, per codec, and
// reports ns/tuple and coded MB/s. Each shape's memmove sub-benchmark
// copies its AVQ blocks' coded bytes once per op: the roofline a
// byte-oriented decode cannot beat.
func BenchmarkDecodeBlockPhis(b *testing.B) {
	for _, sh := range decodeBenchShapes(b) {
		b.Run(sh.name, func(b *testing.B) {
			for _, c := range Codecs() {
				blocks, bytes := pageBlocks(b, c, sh.s, sh.tuples)
				b.Run(c.String(), func(b *testing.B) {
					a := NewArena()
					b.SetBytes(int64(bytes))
					b.ReportAllocs()
					for range b.N {
						if err := decodeBlocks(sh.s, blocks, a); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sh.tuples)), "ns/tuple")
				})
			}
			_, bytes := pageBlocks(b, CodecAVQ, sh.s, sh.tuples)
			b.Run("memmove", func(b *testing.B) {
				src, dst := make([]byte, bytes), make([]byte, bytes)
				b.SetBytes(int64(bytes))
				for range b.N {
					copy(dst, src)
				}
			})
		})
	}
}

// TestPageBlockDecodesAllocateNothing: a steady-state decode of
// page-sized blocks of the ledger's relations, for every codec, allocates
// nothing, on the shape the table's reads take (decodeBlocks) and, on the
// flat relation, as tuples too.
func TestPageBlockDecodesAllocateNothing(t *testing.T) {
	for _, name := range []string{"flat8", "wide38"} {
		s, tuples := ledgerRelation(t, name, 20_000)
		_, flat := s.FlatSpace()
		for _, c := range Codecs() {
			blocks, _ := pageBlocks(t, c, s, tuples)
			a := NewArena()
			decode := func(shape string, f func() error) {
				if err := f(); err != nil { // warm the arena
					t.Fatal(err)
				}
				var err error
				if n := testing.AllocsPerRun(3, func() { err = f() }); err != nil || n != 0 {
					t.Errorf("%s/%v: %s decode of %d blocks allocates %.1f objects per pass (err %v), want 0", name, c, shape, len(blocks), n, err)
				}
			}
			decode("read-path", func() error { return decodeBlocks(s, blocks, a) })
			if flat {
				decode("tuple", func() error {
					for _, blk := range blocks {
						a.Reset()
						if _, err := DecodeBlockArena(s, blk, a); err != nil {
							return err
						}
					}
					return nil
				})
			}
		}
	}
}
