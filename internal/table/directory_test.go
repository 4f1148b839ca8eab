package table

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/relation"
)

// blocksSharingFirst returns how many blocks have tu as their first tuple.
func blocksSharingFirst(tb *Table, tu relation.Tuple) int {
	sn := tb.snapshot()
	defer sn.Release()
	n := 0
	for i := 0; i < sn.NumBlocks(); i++ {
		if tb.schema.Compare(sn.Fence(i).First, tu) == 0 {
			n++
		}
	}
	return n
}

// TestDuplicateRunSpansBlocks: relations are bags, so a run of equal
// tuples may outgrow a block and leave several blocks with the same first
// tuple. The block directory must keep every one of them — a unique-keyed
// primary index silently dropped all but one, after which Check failed,
// Contains lied and deletes found a fraction of the copies. Built both by
// repeated InsertContext and by BulkLoadContext, with neighbours of the
// duplicated tuple inserted in between.
func TestDuplicateRunSpansBlocks(t *testing.T) {
	ctx := context.Background()
	schema := relation.MustSchema(
		relation.Domain{Name: "region", Size: 16},
		relation.Domain{Name: "store", Size: 128},
		relation.Domain{Name: "units", Size: 1000},
	)
	dup := relation.Tuple{3, 8, 36}
	const copies = 3000
	neighbour := func(rng *rand.Rand) relation.Tuple {
		// Around dup on both sides, sometimes under dup's own prefix, never
		// dup itself.
		nb := relation.Tuple{uint64(2 + rng.Intn(3)), uint64(6 + rng.Intn(5)), uint64(rng.Intn(1000))}
		if schema.Compare(nb, dup) == 0 {
			nb[2]++
		}
		return nb
	}
	build := map[string]func(t *testing.T, tb *Table) (neighbours int){
		"insert": func(t *testing.T, tb *Table) int {
			rng := rand.New(rand.NewSource(7))
			neighbours := 0
			for i := 0; i < copies; i++ {
				if err := tb.InsertContext(ctx, dup); err != nil {
					t.Fatalf("insert copy %d: %v", i, err)
				}
				if i%15 == 0 {
					if err := tb.InsertContext(ctx, neighbour(rng)); err != nil {
						t.Fatalf("insert neighbour at %d: %v", i, err)
					}
					neighbours++
				}
				if i%100 == 99 {
					if err := tb.Check(); err != nil {
						t.Fatalf("after %d copies: %v", i+1, err)
					}
				}
			}
			return neighbours
		},
		"bulkload": func(t *testing.T, tb *Table) int {
			rng := rand.New(rand.NewSource(8))
			const neighbours = 200
			tuples := make([]relation.Tuple, 0, copies+neighbours)
			for i := 0; i < copies; i++ {
				tuples = append(tuples, dup.Clone())
			}
			for i := 0; i < neighbours; i++ {
				tuples = append(tuples, neighbour(rng))
			}
			if err := tb.BulkLoadContext(ctx, tuples); err != nil {
				t.Fatal(err)
			}
			return neighbours
		},
	}
	for name, fill := range build {
		t.Run(name, func(t *testing.T) {
			tb := createTable(t, schema, WithPageSize(256), WithSecondaryAttrs(1))
			neighbours := fill(t, tb)
			if n := blocksSharingFirst(tb, dup); n < 3 {
				t.Fatalf("only %d blocks start with the duplicated tuple; the run must span >= 3", n)
			}
			if err := tb.Check(); err != nil {
				t.Fatal(err)
			}
			if tb.Len() != copies+neighbours {
				t.Fatalf("Len = %d, want %d", tb.Len(), copies+neighbours)
			}
			if ok, err := tb.Contains(dup); err != nil || !ok {
				t.Fatalf("Contains(dup) = %v, %v", ok, err)
			}
			// Interleave more neighbours with the deletes, then count what
			// the deletes found: every copy, no more.
			rng := rand.New(rand.NewSource(9))
			found := 0
			for i := 0; ; i++ {
				ok, err := tb.DeleteContext(ctx, dup)
				if err != nil {
					t.Fatalf("delete %d: %v", i, err)
				}
				if !ok {
					break
				}
				found++
				if i%40 == 0 {
					if err := tb.InsertContext(ctx, neighbour(rng)); err != nil {
						t.Fatal(err)
					}
					neighbours++
				}
				if i%100 == 99 {
					if err := tb.Check(); err != nil {
						t.Fatalf("after %d deletes: %v", i+1, err)
					}
				}
			}
			if found != copies {
				t.Fatalf("deletes found %d copies of %d", found, copies)
			}
			if ok, err := tb.Contains(dup); err != nil || ok {
				t.Fatalf("Contains(dup) after deleting every copy = %v, %v", ok, err)
			}
			if tb.Len() != neighbours {
				t.Fatalf("Len = %d after deletes, want the %d neighbours", tb.Len(), neighbours)
			}
			if err := tb.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMutationDecodesBlockOnce: the store finds the home block on its
// fence array and hands the table the tuples it decoded, so a single-tuple
// insert or delete costs one block decode — with or without secondary
// indexes to maintain, whether it edits the coded block in place or, its
// block full, splits it from the tuples of that same decode.
func TestMutationDecodesBlockOnce(t *testing.T) {
	ctx := context.Background()
	for _, secondaries := range [][]int{nil, {1, 4}} {
		reg := obs.NewRegistry()
		tb := createTable(t, testSchema(t), WithPageSize(512), WithSecondaryAttrs(secondaries...), WithObs(reg))
		tuples := randomTuples(t, 2000, 91)
		if err := tb.BulkLoadContext(ctx, tuples); err != nil {
			t.Fatal(err)
		}
		decodes, edits, encodes := reg.Counter("store.decodes"), reg.Counter("store.edits"), reg.Counter("store.encodes")
		// mutate runs one mutation and reports whether it edited the block
		// (rather than re-encoding it), having checked that it decoded
		// exactly one.
		mutate := func(what string, fn func() error) (edited bool) {
			t.Helper()
			d, e, c := decodes.Value(), edits.Value(), encodes.Value()
			if err := fn(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if got := decodes.Value() - d; got != 1 {
				t.Errorf("secondaries %v: %s decoded %d blocks, want 1", secondaries, what, got)
			}
			edited = edits.Value()-e == 1 && encodes.Value() == c
			if !edited && (edits.Value() != e || encodes.Value()-c < 2) {
				t.Errorf("secondaries %v: %s made %d edits and %d encodes: neither an edit nor a split", secondaries, what, edits.Value()-e, encodes.Value()-c)
			}
			return edited
		}

		// Bulk-loaded blocks are packed full, so an insert into one splits
		// it (re-encoding both halves), and the next insert into a half
		// edits it.
		tu := relation.Tuple{4, 7, 30, 30, 2000}
		if mutate("insert into a full block", func() error { return tb.InsertContext(ctx, tu) }) {
			t.Errorf("secondaries %v: an insert into a full bulk-loaded block did not split", secondaries)
		}
		tu2 := relation.Tuple{4, 7, 30, 30, 2001}
		if !mutate("insert with slack", func() error { return tb.InsertContext(ctx, tu2) }) {
			t.Errorf("secondaries %v: an insert into a freshly split block did not edit it", secondaries)
		}
		for _, del := range []relation.Tuple{tu, tu2} {
			if !mutate("delete", func() error {
				if ok, err := tb.DeleteContext(ctx, del); err != nil || !ok {
					return fmt.Errorf("found %v, %v", ok, err)
				}
				return nil
			}) {
				t.Errorf("secondaries %v: a delete did not edit its block", secondaries)
			}
		}
		if err := tb.Check(); err != nil {
			t.Fatal(err)
		}
	}
}
