package blockstore

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

// naiveHome is the reference block locate the fence search is checked
// against: a linear walk for the last block whose First is <= t, block 0
// when t precedes everything, -1 when there are no blocks.
func naiveHome(sn *Snapshot, t relation.Tuple) int {
	at := -1
	for i := 0; i < sn.NumBlocks(); i++ {
		if sn.Schema().Compare(sn.Fence(i).First, t) > 0 {
			break
		}
		at = i
	}
	if at < 0 && sn.NumBlocks() > 0 {
		at = 0
	}
	return at
}

// naiveSeek is the linear reference for the manifest's seek: the first
// block whose Last is >= t.
func naiveSeek(sn *Snapshot, t relation.Tuple) int {
	for i := 0; i < sn.NumBlocks(); i++ {
		if sn.Schema().Compare(sn.Fence(i).Last, t) >= 0 {
			return i
		}
	}
	return sn.NumBlocks()
}

// TestStoreModel drives random Insert / Delete / MergeRun traffic, three
// tenths of it duplicates of tuples already stored (plus one hot tuple, so
// runs of equal tuples grow across block boundaries), against a sorted
// slice. Every mutation's home block is compared with the linear
// references above, and the whole store with the oracle every 250 steps —
// Check's canonical-stream rule among them, so every edited page is proved
// equal to a re-encode. It runs every codec on the flat test schema (φ
// slabs, no run tuples) and on one widened past 64 bits (tuple slabs, run
// tuples on, as a table with secondary indexes has them).
func TestStoreModel(t *testing.T) {
	for _, codec := range core.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			for _, wide := range []bool{false, true} {
				t.Run(fmt.Sprintf("wide=%v", wide), func(t *testing.T) {
					testStoreModel(t, codec, wide)
				})
			}
		})
	}
}

// testStoreModel is one TestStoreModel configuration.
func testStoreModel(t *testing.T, codec core.Codec, wide bool) {
	sch := testSchema(t)
	if wide {
		sch = relation.MustSchema(append(sch.Domains(), relation.Domain{Name: "wide", Size: 1 << 40})...)
	}
	s := newSchemaStore(t, sch, codec, 256)
	s.SetRunTuples(wide)
	rng := rand.New(rand.NewSource(23))
	var oracle []relation.Tuple // φ-sorted
	hot := relation.Tuple{3, 8, 36, 36, 2048}
	if wide {
		hot = append(hot, 1<<39)
	}
	pick := func() relation.Tuple {
		switch r := rng.Intn(10); {
		case r < 2 && len(oracle) > 0:
			return oracle[rng.Intn(len(oracle))].Clone()
		case r < 3:
			return hot.Clone()
		}
		tu := relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
		}
		if wide {
			tu = append(tu, uint64(rng.Int63n(1<<40)))
		}
		return tu
	}
	lowerBound := func(tu relation.Tuple) int {
		return sort.Search(len(oracle), func(i int) bool { return sch.Compare(oracle[i], tu) >= 0 })
	}
	// locate checks both fence searches against their references and
	// returns the page the store should rewrite for an insert of tu.
	locate := func(step int, tu relation.Tuple) (home int) {
		sn := s.Snapshot()
		defer sn.Release()
		home = sn.Home(tu)
		if want := naiveHome(sn, tu); home != want {
			t.Fatalf("step %d: Home(%v) = %d, linear reference %d", step, tu, home, want)
		}
		if got, want := sn.m.seek(sn.Schema(), tu), naiveSeek(sn, tu); got != want {
			t.Fatalf("step %d: seek(%v) = %d, linear reference %d", step, tu, got, want)
		}
		return home
	}
	checkInsert := func(step int, res MutationResult, home int, blocksBefore []storage.PageID) {
		if home < 0 {
			if res.Old.Page != storage.InvalidPage || res.Old.Tuples != nil {
				t.Fatalf("step %d: insert into empty store replaced page %d", step, res.Old.Page)
			}
			return
		}
		if res.Old.Page != blocksBefore[home] {
			t.Fatalf("step %d: insert rewrote page %d, home block %d is page %d", step, res.Old.Page, home, blocksBefore[home])
		}
		if got := len(res.Old.Tuples) > 0; got != wide {
			t.Fatalf("step %d: mutation handed back tuples %v with run tuples %v", step, got, wide)
		}
	}
	sharedFirsts := 0 // most blocks seen sharing one first tuple
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // Insert
			tu := pick()
			home, before := locate(step, tu), s.Blocks()
			res, err := s.Insert(tu)
			if err != nil {
				t.Fatalf("step %d insert %v: %v", step, tu, err)
			}
			checkInsert(step, res, home, before)
			oracle = slices.Insert(oracle, lowerBound(tu), tu)
		case op < 8: // Delete
			tu := pick()
			at := lowerBound(tu)
			present := at < len(oracle) && sch.Compare(oracle[at], tu) == 0
			if ok, err := s.Contains(tu); err != nil || ok != present {
				t.Fatalf("step %d: Contains(%v) = %v, %v; oracle says %v", step, tu, ok, err, present)
			}
			_, found, err := s.Delete(tu)
			if err != nil || found != present {
				t.Fatalf("step %d: Delete(%v) = %v, %v; oracle says %v", step, tu, found, err, present)
			}
			if present {
				oracle = slices.Delete(oracle, at, at+1)
			}
		default: // sorted-run merge
			batch := make([]relation.Tuple, 1+rng.Intn(40))
			for i := range batch {
				batch[i] = pick()
			}
			sch.SortTuples(batch)
			for rest := batch; len(rest) > 0; {
				home, before := locate(step, rest[0]), s.Blocks()
				res, n, err := s.MergeRun(rest)
				if err != nil || n < 1 || n > len(rest) {
					t.Fatalf("step %d: MergeRun consumed %d of %d: %v", step, n, len(rest), err)
				}
				checkInsert(step, res, home, before)
				rest = rest[n:]
			}
			for _, tu := range batch {
				oracle = slices.Insert(oracle, lowerBound(tu), tu)
			}
		}
		if step%250 != 249 {
			continue
		}
		if err := s.Check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		sn := s.Snapshot()
		var got []relation.Tuple
		run := 0
		for i := 0; i < sn.NumBlocks(); i++ {
			ts, err := sn.ReadBlock(i)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, ts...)
			if i > 0 && sch.Compare(sn.Fence(i).First, sn.Fence(i-1).First) == 0 {
				run++
			} else {
				run = 1
			}
			sharedFirsts = max(sharedFirsts, run)
		}
		sn.Release()
		if len(got) != len(oracle) {
			t.Fatalf("step %d: store holds %d tuples, oracle %d", step, len(got), len(oracle))
		}
		for i := range got {
			if sch.Compare(got[i], oracle[i]) != 0 {
				t.Fatalf("step %d: tuple %d = %v, oracle %v", step, i, got[i], oracle[i])
			}
		}
	}
	if sharedFirsts < 2 {
		t.Fatalf("no run of equal tuples ever crossed a block boundary (max %d blocks sharing a first tuple); the model is not exercising duplicates", sharedFirsts)
	}
	if s.LiveSnapshots() != 0 {
		t.Fatalf("%d snapshots leaked", s.LiveSnapshots())
	}
}
