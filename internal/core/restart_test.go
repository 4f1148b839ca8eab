package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relation"
)

// checkRestartShapes is the "span from a restart" decode shape: with the
// block's restart directory derived from want, the reference decode of
// data, every walk that starts at a restart — a tuple span, a φ span
// (flat schemas) and an attribute-0 span — decodes exactly what the
// reference and the anchor walk do, and a walk started from, or checked
// against, a corrupted entry fails instead of returning rows.
func checkRestartShapes(t *testing.T, s *relation.Schema, data []byte, want []relation.Tuple) {
	t.Helper()
	dir, err := BlockRestarts(s, data, want)
	if err != nil {
		t.Fatalf("restart directory of an accepted block: %v", err)
	}
	if dir == nil {
		return // raw, packed, or fewer than two tuples: no directory
	}
	u := len(want)
	a := NewArena()
	span := func(d *Restarts, from, to int) ([]relation.Tuple, error) {
		a.Reset()
		l, a, err := openBlock(s, data, a)
		if err == nil {
			err = l.restart(d)
		}
		if err != nil {
			return nil, err
		}
		return l.span(from, to, a)
	}
	for _, r := range [][2]int{{0, u}, {0, 1}, {u - 1, u}, {u / 2, u/2 + 1}, {u / 3, u - u/3}, {min(31, u-1), min(33, u)}, {min(32, u-1), u}} {
		got, err := span(dir, r[0], r[1])
		if err != nil || !sameTuples(s, got, want[r[0]:r[1]]) {
			t.Fatalf("span [%d,%d) from a restart = %v, %v; reference %v", r[0], r[1], got, err, want[r[0]:r[1]])
		}
	}

	// Attribute-0 and φ spans from the restarts against the anchor walk.
	for _, b := range [][2]uint64{{0, math.MaxUint64}, {want[u/2][0], want[u/2][0]}, {want[0][0] + 1, want[u-1][0]}, {want[u-1][0] + 1, math.MaxUint64}} {
		a.Reset()
		got, err := DecodeAttr0SpanArena(s, data, b[0], b[1], dir, a)
		ref, rerr := DecodeAttr0SpanArena(s, data, b[0], b[1], nil, NewArena())
		if err != nil || rerr != nil || !sameTuples(s, got, ref) {
			t.Fatalf("attribute-0 span [%d,%d] from a restart = %v, %v; anchor walk %v, %v", b[0], b[1], got, err, ref, rerr)
		}
	}
	if space, flat := s.FlatSpace(); flat {
		w, _ := s.FlatWeights()
		mid := want[u/2][0] * w[0]
		for _, b := range [][2]uint64{{0, space - 1}, {mid, mid + w[0] - 1}, {space / 3, space / 2}, {mid + 1, mid}} {
			a.Reset()
			got, err := PhiSpanSlab(s, data, b[0], b[1], dir, a)
			ref, rerr := PhiSpanSlab(s, data, b[0], b[1], nil, NewArena())
			if err != nil || rerr != nil || !slices.Equal(got, ref) {
				t.Fatalf("φ span [%d,%d] from a restart = %v, %v; anchor walk %v, %v", b[0], b[1], got, err, ref, rerr)
			}
		}
	}

	// A corrupted entry: the walk that starts at it, and the walk that
	// checks it, both fail.
	n, width := restartCount(u), dir.at+2
	for e := range n {
		for word := range width {
			bad := &Restarts{count: dir.count, at: dir.at, ents: slices.Clone(dir.ents)}
			if word == 0 {
				bad.ents[e*width]++
			} else {
				bad.ents[e*width+word] ^= 1
			}
			if e < n-1 {
				from := dir.pos(e)
				if got, err := span(bad, from, from+1); err == nil {
					t.Fatalf("walk from restart %d with word %d corrupted returned %v", e, word, got)
				}
			}
			if e > 0 {
				from := dir.pos(e - 1)
				if got, err := span(bad, from, from+1); err == nil {
					t.Fatalf("walk checking restart %d with word %d corrupted returned %v", e, word, got)
				}
			}
		}
	}
}

// TestRestartWalksMatchReference runs the restart shapes on sorted byte-RLE
// blocks of sizes on each side of the restart spacing,
// under flat schemas, the three split schemas and the ledger's flat8 and
// wide38, with the anchor at the median, at 0 and at the last tuple.
func TestRestartWalksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type rel struct {
		s     *relation.Schema
		block func(n int) []relation.Tuple
	}
	var rels []rel
	for range 3 {
		s := flatRandomSchema(rng)
		rels = append(rels, rel{s, func(n int) []relation.Tuple { return randomSortedBlock(s, rng, n) }})
	}
	for _, c := range splitSchemas() {
		rels = append(rels, rel{c.s, func(n int) []relation.Tuple { return clusteredBlock(c.s, rng, n, c.attrs) }})
	}
	for _, name := range []string{"flat8", "wide38"} {
		s, tuples := ledgerRelation(t, name, 2000)
		rels = append(rels, rel{s, func(n int) []relation.Tuple {
			at := rng.Intn(len(tuples) - n)
			return tuples[at : at+n]
		}})
	}
	for _, r := range rels {
		for _, n := range []int{2, 3, 31, 32, 33, 64, 65, 97, 300} {
			block := r.block(n)
			for _, anchor := range []int{-1, 0, n - 1} {
				var data []byte
				if anchor < 0 {
					data = mustEncode(t, CodecAVQ, r.s, block)
				} else {
					data = reanchor(t, CodecAVQ, r.s, block, anchor, block[anchor])
				}
				checkShapesAgainstReference(t, r.s, data)
			}
		}
	}
}

// TestEditRestartsMatchBlockRestarts: the directory an edit builds from the
// slab and the edit is the one BlockRestarts builds from the edited run,
// for inserts spread over the block and deletes at both ends, on a flat
// (φ slab) and a split (tuple slab) relation; a packed block gets none
// either way.
func TestEditRestartsMatchBlockRestarts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range []string{"flat8", "wide38"} {
		s, tuples := ledgerRelation(t, name, 3000)
		for _, c := range []Codec{CodecAVQ, CodecPacked} {
			block := tuples[1000:1200]
			stream := mustEncode(t, c, s, block)
			sl, err := DecodeBlockSlab(s, stream, nil)
			if err != nil {
				t.Fatal(err)
			}
			ins := slices.Clone(tuples[900:1300:1300])
			rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
			ins = ins[:40]
			s.SortTuples(ins)
			for _, e := range []Edit{{Insert: ins}, {Insert: ins[:1]}, {Delete: 0}, {Delete: len(block) - 1}, {Delete: 64}} {
				out, fits, err := EditBlock(s, stream, sl, e, 1<<20, nil)
				if err != nil || !fits {
					t.Fatalf("%s %v: edit: %v, fits %v", name, c, err, fits)
				}
				got, err := EditRestarts(s, out, sl, e)
				if err != nil {
					t.Fatal(err)
				}
				want, err := BlockRestarts(s, out, e.Apply(s, block))
				if err != nil {
					t.Fatal(err)
				}
				if (got == nil) != (c == CodecPacked) || (want == nil) != (c == CodecPacked) {
					t.Fatalf("%s %v: edit directory %v, block directory %v", name, c, got != nil, want != nil)
				}
				if got != nil && (got.count != want.count || !slices.Equal(got.ents, want.ents)) {
					t.Fatalf("%s %v edit %+v: directory differs from the edited run's", name, c, e)
				}
			}
		}
	}
}

// TestRestartRefusesAnotherBlocksDirectory: a directory whose block has a
// different tuple count, or is of another codec, is refused, not walked.
func TestRestartRefusesAnotherBlocksDirectory(t *testing.T) {
	s, tuples := ledgerRelation(t, "flat8", 1000)
	other, err := BlockRestarts(s, mustEncode(t, CodecAVQ, s, tuples[:100]), tuples[:100])
	if err != nil {
		t.Fatal(err)
	}
	data := mustEncode(t, CodecAVQ, s, tuples[:101])
	if _, err := PhiSpanSlab(s, data, 0, math.MaxUint64, other, nil); err == nil {
		t.Fatal("a 100-tuple block's directory walked a 101-tuple block")
	}
	packed := mustEncode(t, CodecPacked, s, tuples[:100])
	if _, err := PhiSpanSlab(s, packed, 0, math.MaxUint64, other, nil); err == nil {
		t.Fatal("a byte-RLE block's directory walked a packed block")
	}
}

// BenchmarkPointSpan is the per-layer twin of the ledger's point_hot
// select: the flat partial decode of one 10-value attribute-0 span (about
// a hundred rows) in a flat8-shaped 8 KiB block of about 1,289 tuples, by
// PhiSpanSlab with the block's restart directory and, for comparison, from
// its anchor. It reports µs per point; spans rotate over the block.
func BenchmarkPointSpan(b *testing.B) {
	s, tuples := ledgerRelation(b, "flat8", 20000)
	runs, _, err := Pack(CodecAVQ, s, tuples, 8192-4)
	if err != nil {
		b.Fatal(err)
	}
	block := runs[len(runs)/2]
	stream, err := EncodeBlock(CodecAVQ, s, block, nil)
	if err != nil {
		b.Fatal(err)
	}
	dir, err := BlockRestarts(s, stream, block)
	if err != nil {
		b.Fatal(err)
	}
	w, _ := s.FlatWeights()
	lo0, hi0 := block[0][0], block[len(block)-1][0]
	b.Logf("block of %d tuples, attribute 0 in [%d, %d], directory %d B", len(block), lo0, hi0, dir.Bytes())
	for _, c := range []struct {
		name string
		dir  *Restarts
	}{{"restart", dir}, {"anchor", nil}} {
		b.Run(c.name, func(b *testing.B) {
			a := NewArena()
			rows := 0
			for i := range b.N {
				lo := lo0 + uint64(i)%max(hi0-lo0-9, 1)
				a.Reset()
				phis, err := PhiSpanSlab(s, stream, lo*w[0], (lo+10)*w[0]-1, c.dir, a)
				if err != nil {
					b.Fatal(err)
				}
				rows += len(phis)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/point")
			b.ReportMetric(float64(rows)/float64(b.N), "rows/point")
		})
	}
}
