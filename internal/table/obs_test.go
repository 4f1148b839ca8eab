package table

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
)

// TestFunctionalOptions checks the With* options land in the resolved
// configuration, a later option overriding an earlier one.
func TestFunctionalOptions(t *testing.T) {
	reg := obs.NewRegistry()
	tb := createTable(t, testSchema(t),
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithPoolFrames(32),
		WithSecondaryAttrs(1, 2),
		WithPoolFrames(64),
		WithObs(reg),
	)
	o := tb.opts
	if o.Codec != core.CodecAVQ || o.PageSize != 512 || o.PoolFrames != 64 || o.Obs != reg {
		t.Fatalf("options not applied: %+v", o)
	}
	if len(o.SecondaryAttrs) != 2 || o.SecondaryAttrs[0] != 1 || o.SecondaryAttrs[1] != 2 {
		t.Fatalf("secondary attrs not applied: %v", o.SecondaryAttrs)
	}
}

// TestObsWiring drives a load and queries through an instrumented table
// and checks every layer reported: pool, store, executor, index probes,
// and op spans.
func TestObsWiring(t *testing.T) {
	reg := obs.NewRegistry()
	tb := createTable(t, testSchema(t),
		WithCodec(core.CodecAVQ), WithPageSize(512), WithSecondaryAttrs(1), WithObs(reg))
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 3000, 41)); err != nil {
		t.Fatal(err)
	}
	// Run the first query cold so pool misses are exercised too.
	if err := tb.DropCache(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.SelectRangeContext(context.Background(), 0, 2, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.SelectRangeContext(context.Background(), 1, 3, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Contains(relation.Tuple{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, name := range []string{
		"pool.misses", "store.encodes", "store.decodes", "store.snapshots",
		"exec.blocks_read", "exec.rows", "index.btree_probes",
	} {
		if counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, counters[name])
		}
	}
	hists := map[string]int64{}
	for _, h := range snap.Histograms {
		hists[h.Name] = h.Count
	}
	if hists["op.bulkload"] != 1 {
		t.Errorf("op.bulkload count = %d, want 1", hists["op.bulkload"])
	}
	if hists["op.select"] != 2 {
		t.Errorf("op.select count = %d, want 2", hists["op.select"])
	}
	if hists["store.encode"] <= 0 {
		t.Errorf("store.encode count = %d, want > 0", hists["store.encode"])
	}
	// All snapshots taken by the queries must be released again.
	var live int64 = -1
	for _, g := range snap.Gauges {
		if g.Name == "store.snapshots_live" {
			live = g.Value
		}
	}
	if live != 0 {
		t.Errorf("store.snapshots_live = %d, want 0", live)
	}
}

// TestScanContextCancelMidFlight cancels a multi-block scan from inside
// the emit callback and checks the executor stops before the next block
// decode, releases the snapshot, and leaks no pins.
func TestScanContextCancelMidFlight(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	if err := tb.BulkLoadContext(context.Background(), randomTuples(t, 5000, 43)); err != nil {
		t.Fatal(err)
	}
	if tb.NumBlocks() < 4 {
		t.Fatalf("need a multi-block table, got %d blocks", tb.NumBlocks())
	}
	ctx, cancel := context.WithCancel(context.Background())
	rows := 0
	err := tb.ScanContext(ctx, func(relation.Tuple) bool {
		rows++
		if rows == 1 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("scan error = %v, want context.Canceled", err)
	}
	if rows >= tb.Len() {
		t.Fatalf("scan emitted all %d rows despite cancellation", rows)
	}
	if got := tb.pool.PinnedFrames(); got != 0 {
		t.Fatalf("%d frames still pinned after cancelled scan", got)
	}
	if err := tb.store.Check(); err != nil {
		t.Fatalf("store check after cancelled scan: %v", err)
	}
	// The table remains fully usable.
	if _, _, err := tb.SelectRangeContext(context.Background(), 0, 0, 7); err != nil {
		t.Fatalf("select after cancelled scan: %v", err)
	}
}

// TestInsertDomainRangeSentinel checks schema violations surface the
// relation.ErrDomainRange sentinel through the table layer.
func TestInsertDomainRangeSentinel(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	err := tb.InsertContext(context.Background(), relation.Tuple{99, 0, 0, 0, 0}) // dept domain is 8
	if !errors.Is(err, relation.ErrDomainRange) {
		t.Fatalf("insert error = %v, want relation.ErrDomainRange", err)
	}
	if err := tb.BulkLoadContext(context.Background(), []relation.Tuple{{0, 0, 0, 0, 0}, {0, 99, 0, 0, 0}}); !errors.Is(err, relation.ErrDomainRange) {
		t.Fatalf("bulk load error = %v, want relation.ErrDomainRange", err)
	}
	// Zero options: Create with no configuration at all still works.
	createTable(t, testSchema(t))
}

// TestSyncContextVariants smoke-tests the lock-taking ctx methods,
// including cancellation propagating out of a read.
func TestSyncContextVariants(t *testing.T) {
	s := newTable(t, core.CodecAVQ, nil)
	ctx := context.Background()
	if err := s.InsertBatchContext(ctx, randomTuples(t, 2000, 46)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SelectRangeContext(ctx, 0, 0, 3); err != nil {
		t.Fatal(err)
	}
	if n, _, err := s.CountRangeContext(ctx, 0, 0, 7); err != nil || n != s.Len() {
		t.Fatalf("count = %d err = %v, want %d", n, err, s.Len())
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.ScanContext(cancelled, func(relation.Tuple) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("scan error = %v, want context.Canceled", err)
	}
	if err := s.InsertContext(cancelled, relation.Tuple{0, 0, 0, 0, 0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("insert error = %v, want context.Canceled", err)
	}
}

// TestReadSpanAllocs: a read on a table with a registry allocates no more
// than the same read without one plus its span. The span's slow-op detail
// is formatted only for an op slow enough to be logged, so a fast read
// pays for no string and no boxed counts.
func TestReadSpanAllocs(t *testing.T) {
	tuples := randomTuples(t, 2000, 44)
	allocs := func(reg *obs.Registry) float64 {
		tb := createTable(t, testSchema(t), WithPageSize(512), WithObs(reg))
		if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
			t.Fatal(err)
		}
		count := func() {
			if _, _, err := tb.CountRangeContext(context.Background(), 0, 2, 5); err != nil {
				t.Fatal(err)
			}
		}
		count() // warm the pool and the arena
		return testing.AllocsPerRun(50, count)
	}
	off, on := allocs(nil), allocs(obs.NewRegistry())
	if on > off+1 {
		t.Errorf("CountRange allocates %.0f objects with a registry, %.0f without; want at most one more (the span)", on, off)
	}
}
