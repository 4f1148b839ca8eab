package blockstore

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

// TestErrCorruptBlock checks that every corruption detection path wraps
// the ErrCorruptBlock sentinel, so callers dispatch with errors.Is without
// string matching. The warm input reads the victim through every shape
// first: a block is only ever served from its coded page, so a read that
// just succeeded cannot mask the corruption that follows it.
func TestErrCorruptBlock(t *testing.T) {
	for _, warm := range []bool{false, true} {
		s, pager, pool := pipelineStore(t, core.CodecAVQ, 512, 64, 1)
		if _, err := s.BulkLoadContext(context.Background(), pipelineTuples(t, 2000, 7)); err != nil {
			t.Fatal(err)
		}
		at := s.NumBlocks() / 2
		homed := s.man.Load().fence(at).First.Clone()
		shapes := func() map[string]error {
			errs := map[string]error{}
			// The mutators re-code the block onto a fresh page, so they go
			// first: the reads then warm the page the corruption hits.
			_, _, errs["MergeRun"] = s.MergeRun([]relation.Tuple{homed})
			_, _, errs["Delete"] = s.Delete(homed)
			sn := s.Snapshot()
			_, errs["ReadBlockArena"] = sn.ReadBlockArena(at, core.NewArena())
			_, _, errs["ReadPhis"] = sn.ReadPhis(at, core.NewArena(), nil)
			sn.Release()
			return errs
		}
		if warm {
			for shape, err := range shapes() {
				if err != nil {
					t.Fatalf("warm-up %s: %v", shape, err)
				}
			}
		}
		if err := pool.Flush(); err != nil {
			t.Fatal(err)
		}
		victim := s.Blocks()[at]
		buf := make([]byte, pager.PageSize())
		if err := pager.Read(victim, buf); err != nil {
			t.Fatal(err)
		}
		buf[lenPrefix+8] ^= 0xFF
		if err := pager.Write(victim, buf); err != nil {
			t.Fatal(err)
		}
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		for shape, err := range shapes() {
			if !errors.Is(err, ErrCorruptBlock) || !errors.Is(err, core.ErrChecksum) {
				t.Errorf("warm=%v: %s error = %v, want ErrCorruptBlock wrapping core.ErrChecksum", warm, shape, err)
			}
		}
		_, err := s.decodeBlock(victim, nil)
		if err == nil {
			t.Fatalf("warm=%v: decode of corrupted block succeeded", warm)
		}
		if !errors.Is(err, ErrCorruptBlock) {
			t.Fatalf("warm=%v: decode error = %v, want ErrCorruptBlock", warm, err)
		}
		// The underlying cause stays reachable through the same chain.
		if !errors.Is(err, core.ErrChecksum) {
			t.Fatalf("warm=%v: decode error = %v, want core.ErrChecksum in the chain", warm, err)
		}
		if err := s.Check(); !errors.Is(err, ErrCorruptBlock) {
			t.Fatalf("warm=%v: Check error = %v, want ErrCorruptBlock", warm, err)
		}
	}
}

// TestErrCorruptBlockHeader covers the header-length corruption path,
// which fails before the codec ever sees the stream.
func TestErrCorruptBlockHeader(t *testing.T) {
	s, pager, pool := pipelineStore(t, core.CodecAVQ, 512, 64, 1)
	if _, err := s.BulkLoadContext(context.Background(), pipelineTuples(t, 500, 8)); err != nil {
		t.Fatal(err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	victim := s.Blocks()[0]
	buf := make([]byte, pager.PageSize())
	if err := pager.Read(victim, buf); err != nil {
		t.Fatal(err)
	}
	buf[0], buf[1], buf[2], buf[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if err := pager.Write(victim, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := s.decodeBlock(victim, nil); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("header-corrupt decode error = %v, want ErrCorruptBlock", err)
	}
	sn := s.Snapshot()
	defer sn.Release()
	if _, err := sn.ReadStream(0); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("header-corrupt ReadStream error = %v, want ErrCorruptBlock", err)
	}
}

// TestErrSnapshotStale checks that a released snapshot refuses reads with
// the sentinel instead of touching possibly recycled pages.
func TestErrSnapshotStale(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	if _, err := s.BulkLoadContext(context.Background(), randomTuples(t, 500, 9)); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if _, err := sn.ReadBlock(0); err != nil {
		t.Fatalf("live snapshot read: %v", err)
	}
	sn.Release()
	if _, err := sn.ReadBlock(0); !errors.Is(err, ErrSnapshotStale) {
		t.Fatalf("stale ReadBlock error = %v, want ErrSnapshotStale", err)
	}
	if _, err := sn.ReadStream(0); !errors.Is(err, ErrSnapshotStale) {
		t.Fatalf("stale ReadStream error = %v, want ErrSnapshotStale", err)
	}
}

// TestBulkLoadContextCancelled checks that a cancelled context stops a
// bulk load between blocks without corrupting the committed prefix.
func TestBulkLoadContextCancelled(t *testing.T) {
	s, _, pool := pipelineStore(t, core.CodecAVQ, 512, 64, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.BulkLoadContext(ctx, pipelineTuples(t, 2000, 10)); !errors.Is(err, context.Canceled) {
		t.Fatalf("bulk load error = %v, want context.Canceled", err)
	}
	if got := pool.PinnedFrames(); got != 0 {
		t.Fatalf("%d frames still pinned after cancelled bulk load", got)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("store check after cancelled bulk load: %v", err)
	}
}

// TestScanBlocksContextCancelled checks mid-scan cancellation: the scan
// stops at a block boundary, holds no pins, and the store stays readable.
func TestScanBlocksContextCancelled(t *testing.T) {
	for _, conc := range []int{1, 4} {
		s, _, pool := pipelineStore(t, core.CodecAVQ, 512, 64, conc)
		if _, err := s.BulkLoadContext(context.Background(), pipelineTuples(t, 4000, 11)); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := s.ScanBlocksContext(ctx, func(storage.PageID, []relation.Tuple) bool {
			seen++
			if seen == 2 {
				cancel()
			}
			return true
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("conc=%d: scan error = %v, want context.Canceled", conc, err)
		}
		if seen >= s.NumBlocks() {
			t.Fatalf("conc=%d: scan visited all %d blocks despite cancellation", conc, seen)
		}
		if got := pool.PinnedFrames(); got != 0 {
			t.Fatalf("conc=%d: %d frames still pinned after cancelled scan", conc, got)
		}
		if err := s.Check(); err != nil {
			t.Fatalf("conc=%d: store check after cancelled scan: %v", conc, err)
		}
	}
}
