package blockstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/buffer"
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
			_, errs["ReadPhis"] = sn.ReadPhis(at, core.NewArena())
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

// pageReads reads block at of s through every Store entry point that
// reads a page — the three snapshot reads, both checkers, both scans,
// Contains, Restore into a second store over the same pool, and an Insert
// and a Delete homed in the block — and returns each one's error. After
// every call it requires that no frame is pinned and no snapshot is live,
// so an error path that forgets its unpin or its release fails here.
func pageReads(t *testing.T, s *Store, at int) map[string]error {
	t.Helper()
	ctx := context.Background()
	homed := s.man.Load().fence(at).First.Clone()
	snap := func(read func(sn *Snapshot) error) func() error {
		return func() error {
			sn := s.Snapshot()
			defer sn.Release()
			return read(sn)
		}
	}
	reads := []struct {
		name string
		read func() error
	}{
		{"ReadStreamInto", snap(func(sn *Snapshot) error { _, err := sn.ReadStreamInto(at, nil); return err })},
		{"ReadBlockArena", snap(func(sn *Snapshot) error { _, err := sn.ReadBlockArena(at, core.NewArena()); return err })},
		{"ReadPhis", snap(func(sn *Snapshot) error { _, err := sn.ReadPhis(at, core.NewArena()); return err })},
		{"Check", s.Check},
		{"CheckInvariants", s.CheckInvariants},
		{"ComputeStats", func() error { _, err := s.ComputeStats(); return err }},
		{"ScanBlocksContext", func() error {
			return s.ScanBlocksContext(ctx, func(storage.PageID, []relation.Tuple) bool { return true })
		}},
		{"Contains", func() error { _, err := s.Contains(homed); return err }},
		{"Restore", func() error {
			dst := poolStore(t, s.schema, s.codec, s.pool)
			return dst.Restore(ctx, s.Blocks(), func(storage.PageID, []relation.Tuple) {})
		}},
		{"Insert", func() error { _, err := s.Insert(homed); return err }},
		{"Delete", func() error { _, _, err := s.Delete(homed); return err }},
	}
	errs := map[string]error{}
	for _, r := range reads {
		errs[r.name] = r.read()
		if n := s.pool.PinnedFrames(); n != 0 {
			t.Errorf("%s left %d frames pinned", r.name, n)
		}
		if n := s.LiveSnapshots(); n != 0 {
			t.Errorf("%s left %d snapshots live", r.name, n)
		}
	}
	return errs
}

// TestErrCorruptBlockHeader covers the header-length corruption path,
// which fails before the codec ever sees the stream: one block's length
// prefix is set past the page capacity and the block is read through
// every entry point (pageReads). Each must fail with ErrCorruptBlock and
// give back its pin, on a cold pool and on one where the page is already
// resident.
func TestErrCorruptBlockHeader(t *testing.T) {
	for _, warm := range []bool{false, true} {
		s, pager, pool := pipelineStore(t, core.CodecAVQ, 512, 64, 4)
		if _, err := s.BulkLoadContext(context.Background(), pipelineTuples(t, 2000, 12)); err != nil {
			t.Fatal(err)
		}
		if err := pool.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		at := s.NumBlocks() / 2
		victim := s.Blocks()[at]
		buf := make([]byte, pager.PageSize())
		if err := pager.Read(victim, buf); err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(buf[:lenPrefix], uint32(s.capacity()+1))
		if err := pager.Write(victim, buf); err != nil {
			t.Fatal(err)
		}
		if warm {
			if err := s.CheckInvariants(); !errors.Is(err, ErrCorruptBlock) {
				t.Fatalf("warm-up CheckInvariants error = %v, want ErrCorruptBlock", err)
			}
		}
		for name, err := range pageReads(t, s, at) {
			if !errors.Is(err, ErrCorruptBlock) {
				t.Errorf("warm=%v: %s error = %v, want ErrCorruptBlock", warm, name, err)
			}
		}
	}
}

// TestPagerReadFailure fails every page read under a store whose pool
// holds none of its pages: every entry point must return the pager's
// error, naming the page it read, and give back its pin (pageReads), and
// once reads work again the store must check clean, with no failed read
// cached in the pool.
func TestPagerReadFailure(t *testing.T) {
	mem, err := storage.NewMemPager(512)
	if err != nil {
		t.Fatal(err)
	}
	fp := &faultPager{Pager: mem}
	pool, err := buffer.New(fp, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := poolStore(t, pipelineSchema(t), core.CodecAVQ, pool)
	tuples := pipelineTuples(t, 2000, 13)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	fp.failReads.Store(true)
	at := s.NumBlocks() / 2
	for name, err := range pageReads(t, s, at) {
		if !errors.Is(err, errInjectedRead) {
			t.Errorf("%s error = %v, want the pager's read error", name, err)
			continue
		}
		// The error names the page whose read failed: the block's own for
		// the reads of one block, some block's for the whole-store ones.
		ids := s.Blocks()
		if strings.HasPrefix(name, "Read") {
			ids = ids[at : at+1]
		}
		if !slices.ContainsFunc(ids, func(id storage.PageID) bool {
			return strings.Contains(err.Error(), fmt.Sprintf("read page %d: ", id))
		}) {
			t.Errorf("%s error = %v, want it to name the page read (one of %v)", name, err, ids)
		}
	}
	fp.failReads.Store(false)
	if err := s.Check(); err != nil {
		t.Fatalf("Check after reads recovered: %v", err)
	}
	st, err := s.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tuples != len(tuples) {
		t.Fatalf("store holds %d tuples after the failed reads, want %d", st.Tuples, len(tuples))
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
