package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// checkEdit is the EditBlock oracle: applied to block's stream and slab,
// edit e must append exactly EncodeBlock(e.Apply(block)) — fitting a
// capacity of that stream's length and no less — and leave dst's prefix
// alone. It returns the edited run.
func checkEdit(t *testing.T, c Codec, s *relation.Schema, block []relation.Tuple, e Edit) []relation.Tuple {
	t.Helper()
	enc, err := EncodeBlock(c, s, block, nil)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := DecodeBlockSlab(s, enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	edited := e.Apply(s, block)
	want, err := EncodeBlock(c, s, edited, nil)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("dst")
	got, fits, err := EditBlock(s, enc, sl, e, len(want), prefix)
	if err != nil || !fits {
		t.Fatalf("%v: EditBlock: fits=%v err=%v", c, fits, err)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%v: edited stream differs from EncodeBlock of the edited run:\n got %x\nwant %x", c, got[len(prefix):], want)
	}
	if out, fits, err := EditBlock(s, enc, sl, e, len(want)-1, prefix); err != nil || fits || len(out) != len(prefix) {
		t.Fatalf("%v: a %d-byte stream fit %d bytes of capacity (err %v)", c, len(want), len(want)-1, err)
	}
	return edited
}

// pred returns the tuple one below tu in φ order; tu must not be the zero
// tuple.
func pred(t *testing.T, s *relation.Schema, tu relation.Tuple) relation.Tuple {
	t.Helper()
	one := make(relation.Tuple, s.NumAttrs())
	one[len(one)-1] = 1
	out, err := ordinal.Sub(s, make(relation.Tuple, s.NumAttrs()), tu, one)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// editRelation is one relation of the EditBlock differential.
type editRelation struct {
	s      *relation.Schema
	tuples []relation.Tuple // φ-sorted
}

// editRelations are the EditBlock differential's relations: the ledger's
// flat8 (φ slab, byte-RLE word parse) and wide38 (tuple slab), a Fig 5.7
// relation, and one made of long duplicate runs.
func editRelations(t *testing.T) map[string]editRelation {
	t.Helper()
	rels := map[string]editRelation{}
	for _, name := range []string{"flat8", "wide38"} {
		s, tuples := ledgerRelation(t, name, 400)
		rels[name] = editRelation{s, tuples}
	}
	s, tuples, err := gen.Fig57Spec(400, true, gen.VarianceLarge, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	s.SortTuples(tuples)
	rels["fig5.7"] = editRelation{s, tuples}
	dup := relation.MustSchema(
		relation.Domain{Name: "a", Size: 8},
		relation.Domain{Name: "b", Size: 300},
		relation.Domain{Name: "c", Size: 64},
	)
	rng := rand.New(rand.NewSource(4))
	var runs []relation.Tuple
	for len(runs) < 400 {
		tu := relation.Tuple{uint64(rng.Intn(8)), uint64(rng.Intn(300)), uint64(rng.Intn(64))}
		for range 1 + rng.Intn(6) {
			runs = append(runs, tu.Clone())
		}
	}
	dup.SortTuples(runs)
	rels["duplicates"] = editRelation{dup, runs}
	return rels
}

// TestEditBlockDifferential: for every codec on every relation, inserts at
// 0, before, at and after the anchor and at the end, a duplicate insert, a
// run of inserts sharing gaps, edits of a 1-tuple block, and deletes of the
// first, last and anchor tuple and of a duplicate down to its last copy
// each produce exactly EncodeBlock's stream of the edited run.
func TestEditBlockDifferential(t *testing.T) {
	for name, rel := range editRelations(t) {
		s := rel.s
		block := rel.tuples[100:161] // 61 tuples: anchor 30
		u, mid := len(block), len(block)/2
		for _, c := range Codecs() {
			t.Run(fmt.Sprintf("%s/%v", name, c), func(t *testing.T) {
				sl, err := DecodeBlockSlab(s, mustEncode(t, c, s, block), nil)
				if err != nil {
					t.Fatal(err)
				}
				type insertCase struct {
					name string
					x    relation.Tuple
					at   int // the position the insert must take; -1 when duplicates decide
				}
				cases := []insertCase{
					{"at 0", pred(t, s, block[0]), 0},
					{"before the anchor", pred(t, s, block[mid-1]), mid - 1},
					{"at the anchor", pred(t, s, block[mid]), mid},
					{"after the anchor", pred(t, s, block[mid+1]), mid + 1},
					{"at the end", succ(t, s, block[u-1]), u},
					{"duplicate", block[mid].Clone(), -1},
				}
				for _, tc := range cases {
					at := sl.Search(s, tc.x)
					if tc.at >= 0 && name != "duplicates" && at != tc.at {
						t.Fatalf("insert %s lands at %d, want %d", tc.name, at, tc.at)
					}
					checkEdit(t, c, s, block, Edit{Insert: []relation.Tuple{tc.x}})
				}
				// A run of inserts, several sharing a gap, some duplicates.
				rng := rand.New(rand.NewSource(int64(len(name))))
				run := []relation.Tuple{pred(t, s, block[0]), succ(t, s, block[u-1])}
				for range 12 {
					run = append(run, block[rng.Intn(u)].Clone(), pred(t, s, block[1+rng.Intn(u-1)]))
				}
				s.SortTuples(run)
				checkEdit(t, c, s, block, Edit{Insert: run})

				for _, d := range []int{0, u - 1, mid, mid - 1, mid + 1} {
					checkEdit(t, c, s, block, Edit{Delete: d})
				}

				one := block[mid : mid+1]
				for _, x := range []relation.Tuple{pred(t, s, one[0]), one[0].Clone(), succ(t, s, one[0])} {
					checkEdit(t, c, s, one, Edit{Insert: []relation.Tuple{x}})
				}
				checkEdit(t, c, s, one, Edit{Insert: []relation.Tuple{pred(t, s, one[0]), one[0].Clone(), succ(t, s, one[0])}})
				checkEdit(t, c, s, one, Edit{Delete: 0})

				// Delete copies of the block's most repeated tuple, always the
				// first one, down to the only remaining copy.
				cur := block
				for {
					at, copies := mostRepeated(s, cur)
					cur = checkEdit(t, c, s, cur, Edit{Delete: at})
					if copies == 1 {
						break
					}
				}
			})
		}
	}
}

// mustEncode is EncodeBlock for tests.
func mustEncode(t *testing.T, c Codec, s *relation.Schema, block []relation.Tuple) []byte {
	t.Helper()
	enc, err := EncodeBlock(c, s, block, nil)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// succ returns the tuple one above tu in φ order.
func succ(t *testing.T, s *relation.Schema, tu relation.Tuple) relation.Tuple {
	t.Helper()
	out, err := ordinal.Succ(s, make(relation.Tuple, s.NumAttrs()), tu)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// mostRepeated returns the first position of the longest run of equal
// tuples in a sorted block, and the run's length.
func mostRepeated(s *relation.Schema, block []relation.Tuple) (at, n int) {
	for i := 0; i < len(block); {
		j := i + 1
		for j < len(block) && s.Compare(block[j], block[i]) == 0 {
			j++
		}
		if j-i > n {
			at, n = i, j-i
		}
		i = j
	}
	return at, n
}

// TestEditBlockChains chains 400 random edits per codec over random
// schemas, flat and not, each edit applied to the previous one's stream.
func TestEditBlockChains(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 20; iter++ {
		s := randomSchema(rng)
		if iter%2 == 1 {
			// Widen past 64 bits so the tuple slab is exercised too.
			doms := s.Domains()
			doms = append(doms, relation.Domain{Name: "wide", Size: 1 << 40}, relation.Domain{Name: "wider", Size: 1 << 40})
			s = relation.MustSchema(doms...)
		}
		for _, c := range Codecs() {
			block := randomSortedBlock(s, rng, 1+rng.Intn(40))
			for range 20 {
				var e Edit
				if len(block) > 1 && rng.Intn(3) == 0 {
					e.Delete = rng.Intn(len(block))
				} else {
					e.Insert = randomSortedBlock(s, rng, 1+rng.Intn(3))
					if rng.Intn(2) == 0 {
						e.Insert[0] = block[rng.Intn(len(block))].Clone()
						s.SortTuples(e.Insert)
					}
				}
				block = checkEdit(t, c, s, block, e)
			}
		}
	}
}

// TestEditBlockRejects: an edit that names no tuple, inserts out of order
// or outside the schema, or comes with the wrong slab is refused.
func TestEditBlockRejects(t *testing.T) {
	s := employeeSchema(t)
	block := fig33Block()
	for _, c := range Codecs() {
		enc := mustEncode(t, c, s, block)
		sl, err := DecodeBlockSlab(s, enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, e := range map[string]Edit{
			"delete past the end": {Delete: len(block)},
			"negative delete":     {Delete: -1},
			"unsorted inserts":    {Insert: []relation.Tuple{block[3], block[1]}},
			"tuple off the space": {Insert: []relation.Tuple{{3, 8, 64, 0, 0}}},
		} {
			if _, _, err := EditBlock(s, enc, sl, e, 1<<20, nil); err == nil {
				t.Errorf("%v: %s accepted", c, name)
			}
		}
		short := Slab{Tuples: block[:2]}
		if _, _, err := EditBlock(s, enc, short, Edit{Delete: 0}, 1<<20, nil); err == nil {
			t.Errorf("%v: a slab of the wrong length accepted", c)
		}
		bad := bytes.Clone(enc)
		bad[len(bad)/2] ^= 0x40
		if _, _, err := EditBlock(s, bad, sl, Edit{Delete: 0}, 1<<20, nil); err == nil {
			t.Errorf("%v: a corrupt stream accepted", c)
		}
	}
}

// TestSlabFindAndMaterialize: both slab kinds locate, materialize and copy
// out the same tuples, and never find a tuple outside the schema whose φ
// aliases a stored one.
func TestSlabFindAndMaterialize(t *testing.T) {
	s := employeeSchema(t)
	block := fig33Block()
	enc := mustEncode(t, CodecAVQ, s, block)
	phis, err := DecodeBlockSlab(s, enc, nil)
	if err != nil || phis.Phis == nil {
		t.Fatalf("flat schema decoded to %+v, %v; want a φ slab", phis, err)
	}
	slabs := []Slab{phis, {Tuples: block}}
	for _, sl := range slabs {
		got := sl.Materialize(s, NewArena())
		if !sameTuples(s, got, block) {
			t.Fatalf("materialized %v, want %v", got, block)
		}
		for i, tu := range block {
			if sl.Find(s, tu) != i || s.Compare(sl.At(s, i), tu) != 0 {
				t.Fatalf("Find/At disagree at %d", i)
			}
		}
		// {3, 8, 32, 24, 83} has φ of {3, 8, 32, 25, 19}: empno 83 is off its 64-value domain.
		if at := sl.Find(s, relation.Tuple{3, 8, 32, 24, 83}); at != -1 {
			t.Fatalf("an off-space tuple aliasing block[0] found at %d", at)
		}
	}
}
