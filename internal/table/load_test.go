package table

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/relation"
)

func TestBulkLoadNamesLowestInvalidTuple(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	n := 4 * minLoadChunk
	tuples := randomTuples(t, n, 7)
	// The last worker meets its bad tuples at the end of its range, the
	// first worker at the end of its own: the first worker's is the lower
	// index, whichever worker finishes first.
	tuples[n-2] = relation.Tuple{0, 99, 0, 0, 0}
	tuples[n-1] = relation.Tuple{0, 0, 0, 0, 9999}
	low := n/runtime.GOMAXPROCS(0) - 1
	tuples[low] = relation.Tuple{9, 0, 0, 0, 0}
	tb := newTable(t, core.CodecAVQ, nil)
	err := tb.BulkLoadContext(context.Background(), tuples)
	if !errors.Is(err, relation.ErrDomainRange) {
		t.Fatalf("bulk load error = %v, want relation.ErrDomainRange", err)
	}
	if want := fmt.Sprintf("tuple %d: ", low); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "attribute 0") {
		t.Fatalf("bulk load error = %q, want it to name %q and attribute 0", err, want)
	}
}

func TestBulkLoadFailureLeavesTableUnchanged(t *testing.T) {
	tuples := randomTuples(t, 3*minLoadChunk, 8)
	bad := slices.Clone(tuples)
	bad[len(bad)/2] = relation.Tuple{0, 0, 64, 0, 0}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, load := range map[string]func(*Table) error{
		"invalid":   func(tb *Table) error { return tb.BulkLoadContext(context.Background(), bad) },
		"cancelled": func(tb *Table) error { return tb.BulkLoadContext(cancelled, tuples) },
	} {
		tb := newTable(t, core.CodecAVQ, []int{1})
		if err := load(tb); err == nil {
			t.Fatalf("%s: bulk load succeeded", name)
		}
		if tb.Len() != 0 {
			t.Errorf("%s: Len = %d after a failed load, want 0", name, tb.Len())
		}
	}

	// An invalid input fails before the store sees it, so the table takes
	// the good load after it.
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.BulkLoadContext(context.Background(), bad); err == nil {
		t.Fatal("invalid bulk load succeeded")
	}
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadPagesIndependentOfSort pins the table's load to the pages a
// reference sort gives: every block stream and the store statistics of a
// shuffled load through the table equal those of the stably sorted input
// loaded straight into a store.
func TestBulkLoadPagesIndependentOfSort(t *testing.T) {
	for _, shape := range []string{"flat8", "wide38"} {
		spec, err := gen.BenchShapeSpec(shape, 60000, 5)
		if err != nil {
			t.Fatal(err)
		}
		schema, tuples, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		rand.New(rand.NewSource(5)).Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })

		got := createTable(t, schema)
		if err := got.BulkLoadContext(context.Background(), tuples); err != nil {
			t.Fatal(err)
		}
		ref := createTable(t, schema)
		sorted := slices.Clone(tuples)
		slices.SortStableFunc(sorted, schema.Compare)
		if _, err := ref.store.BulkLoadContext(context.Background(), sorted); err != nil {
			t.Fatal(err)
		}

		gotStats, err := got.StoreStats()
		if err != nil {
			t.Fatal(err)
		}
		refStats, err := ref.store.ComputeStats()
		if err != nil {
			t.Fatal(err)
		}
		if gotStats != refStats {
			t.Fatalf("%s: stats %+v, reference %+v", shape, gotStats, refStats)
		}
		if gotStats.Blocks < 2 {
			t.Fatalf("%s: %d blocks; the comparison needs several", shape, gotStats.Blocks)
		}
		compareStreams(t, shape, got.store, ref.store)
	}
}

// compareStreams fails unless both stores hold the same block streams in
// the same order.
func compareStreams(t *testing.T, shape string, got, ref *blockstore.Store) {
	t.Helper()
	gs, rs := got.Snapshot(), ref.Snapshot()
	defer gs.Release()
	defer rs.Release()
	for i := range got.NumBlocks() {
		g, err := gs.ReadStream(i)
		if err != nil {
			t.Fatal(err)
		}
		r, err := rs.ReadStream(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, r) {
			t.Fatalf("%s: block %d stream differs from the reference load", shape, i)
		}
	}
}

// TestBulkLoadStreamsUnchanged pins the bytes a bulk load writes: the
// SHA-256 over every block stream, in block order, of a seed-1 20k-tuple
// flat8 load and of a wide38 one. The digests are those the loader gave
// when it copied tuples into its slab in input order, before sorting; the
// φ-ordered slab must not change a byte. The test then changes every
// input tuple and checks the table does not see it.
func TestBulkLoadStreamsUnchanged(t *testing.T) {
	want := map[string]string{
		"flat8":  "30c79b9893a9292a04215b36e9f78b195cd1a255f3c61592e8551020512ad547",
		"wide38": "6d5008a36a138990af044087e1cad3c773c8c25dd75d5d2cb7e50e465896001d",
	}
	for _, shape := range []string{"flat8", "wide38"} {
		spec, err := gen.BenchShapeSpec(shape, 20000, 1)
		if err != nil {
			t.Fatal(err)
		}
		schema, tuples, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		tb := createTable(t, schema)
		if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
			t.Fatal(err)
		}
		sum := streamsDigest(t, tb.store)
		if sum != want[shape] {
			t.Errorf("%s: block streams hash to %s, want %s", shape, sum, want[shape])
		}
		for _, tu := range tuples {
			clear(tu)
		}
		if got := streamsDigest(t, tb.store); got != sum {
			t.Errorf("%s: changing the input after the load changed the table", shape)
		}
		if err := tb.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// streamsDigest hashes every block stream of s in block order.
func streamsDigest(t *testing.T, s *blockstore.Store) string {
	t.Helper()
	snap := s.Snapshot()
	defer snap.Release()
	h := sha256.New()
	for i := range s.NumBlocks() {
		stream, err := snap.ReadStream(i)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(stream)
	}
	return hex.EncodeToString(h.Sum(nil))
}
