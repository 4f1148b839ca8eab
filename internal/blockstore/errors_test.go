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
// string matching.
func TestErrCorruptBlock(t *testing.T) {
	s, pager, pool := pipelineStore(t, core.CodecAVQ, 512, 64, Config{})
	tuples := pipelineTuples(t, 2000, 7)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	victim := s.Blocks()[len(s.Blocks())/2]
	buf := make([]byte, pager.PageSize())
	if err := pager.Read(victim, buf); err != nil {
		t.Fatal(err)
	}
	buf[lenPrefix+8] ^= 0xFF
	if err := pager.Write(victim, buf); err != nil {
		t.Fatal(err)
	}
	_, err := s.decodeBlockCached(victim)
	if err == nil {
		t.Fatal("decode of corrupted block succeeded")
	}
	if !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("decode error = %v, want ErrCorruptBlock", err)
	}
	// The underlying cause stays reachable through the same chain.
	if !errors.Is(err, core.ErrChecksum) {
		t.Fatalf("decode error = %v, want core.ErrChecksum in the chain", err)
	}
	if err := s.Check(); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("Check error = %v, want ErrCorruptBlock", err)
	}
}

// TestErrCorruptBlockHeader covers the header-length corruption path,
// which fails before the codec ever sees the stream.
func TestErrCorruptBlockHeader(t *testing.T) {
	s, pager, pool := pipelineStore(t, core.CodecAVQ, 512, 64, Config{})
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
	if _, err := s.decodeBlockCached(victim); !errors.Is(err, ErrCorruptBlock) {
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
	if _, _, err := sn.ReadBlock(0); err != nil {
		t.Fatalf("live snapshot read: %v", err)
	}
	sn.Release()
	if _, _, err := sn.ReadBlock(0); !errors.Is(err, ErrSnapshotStale) {
		t.Fatalf("stale ReadBlock error = %v, want ErrSnapshotStale", err)
	}
	if _, err := sn.ReadStream(0); !errors.Is(err, ErrSnapshotStale) {
		t.Fatalf("stale ReadStream error = %v, want ErrSnapshotStale", err)
	}
}

// TestBulkLoadContextCancelled checks that a cancelled context stops a
// serial bulk load between blocks without corrupting the committed prefix.
func TestBulkLoadContextCancelled(t *testing.T) {
	s, _, pool := pipelineStore(t, core.CodecAVQ, 512, 64, Config{})
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
		s, _, pool := pipelineStore(t, core.CodecAVQ, 512, 64, Config{Concurrency: conc})
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
