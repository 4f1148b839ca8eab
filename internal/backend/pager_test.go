package backend_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/table"
)

func newPager(t *testing.T, store backend.Store, prefix string, pageSize int) *backend.Pager {
	t.Helper()
	p, err := backend.NewPager(store, prefix, pageSize)
	if err != nil {
		t.Fatalf("NewPager: %v", err)
	}
	return p
}

func TestPagerBasics(t *testing.T) {
	store := backend.NewMemoryStore()
	defer store.Close()
	p := newPager(t, store, "t", 64)

	if p.PageSize() != 64 || p.NumPages() != 0 {
		t.Fatalf("fresh pager: size %d pages %d", p.PageSize(), p.NumPages())
	}
	id0, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id1, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id0 != 0 || id1 != 1 || p.NumPages() != 2 {
		t.Fatalf("ids %d,%d pages %d", id0, id1, p.NumPages())
	}

	// A fresh page reads back zeroed.
	buf := make([]byte, 64)
	if err := p.Read(id0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 64)) {
		t.Fatal("fresh page not zeroed")
	}

	page := bytes.Repeat([]byte{0xAB}, 64)
	if err := p.Write(id1, page); err != nil {
		t.Fatal(err)
	}
	if err := p.Read(id1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page) {
		t.Fatal("page round-trip mismatch")
	}

	// Size and bounds checks.
	if err := p.Write(id1, page[:10]); !errors.Is(err, storage.ErrBadPageSize) {
		t.Fatalf("short write = %v", err)
	}
	if err := p.Read(9, buf); !errors.Is(err, storage.ErrPageOutOfRange) {
		t.Fatalf("out-of-range read = %v", err)
	}

	// Free deletes the object immediately (non-deferred) and the id is
	// reused by the next Allocate.
	if err := p.Free(id0); err != nil {
		t.Fatal(err)
	}
	if err := p.Read(id0, buf); !errors.Is(err, storage.ErrPageFreed) {
		t.Fatalf("read freed = %v", err)
	}
	if err := p.Free(id0); !errors.Is(err, storage.ErrPageFreed) {
		t.Fatalf("double free = %v", err)
	}
	keys, _ := store.List(context.Background(), "t/pages/")
	if len(keys) != 1 {
		t.Fatalf("objects after free: %v", keys)
	}
	re, err := p.Allocate()
	if err != nil || re != id0 {
		t.Fatalf("reuse = %d, %v; want %d", re, err, id0)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("allocate after close = %v", err)
	}
}

func TestPagerDeferredFree(t *testing.T) {
	store := backend.NewMemoryStore()
	defer store.Close()
	p := newPager(t, store, "t", 32)
	p.SetDeferredFree(true)

	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Free(id); err != nil {
		t.Fatal(err)
	}
	// Unreadable immediately, but the object survives until release —
	// a crashed checkpoint may still need it.
	buf := make([]byte, 32)
	if err := p.Read(id, buf); !errors.Is(err, storage.ErrPageFreed) {
		t.Fatalf("read deferred-freed = %v", err)
	}
	keys, _ := store.List(context.Background(), "")
	if len(keys) != 1 {
		t.Fatalf("deferred free deleted the object: %v", keys)
	}
	p.ReleasePending()
	keys, _ = store.List(context.Background(), "")
	if len(keys) != 0 {
		t.Fatalf("release kept objects: %v", keys)
	}
	// Now reusable.
	re, err := p.Allocate()
	if err != nil || re != id {
		t.Fatalf("reuse after release = %d, %v", re, err)
	}
}

func TestPagerReopenRecoversHighWaterMark(t *testing.T) {
	store := backend.NewMemoryStore()
	defer store.Close()
	p := newPager(t, store, "region", 32)
	page := bytes.Repeat([]byte{7}, 32)
	for i := 0; i < 5; i++ {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id, page); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := newPager(t, store, "region", 32)
	if p2.NumPages() != 5 {
		t.Fatalf("reopened NumPages = %d, want 5", p2.NumPages())
	}
	buf := make([]byte, 32)
	if err := p2.Read(3, buf); err != nil || !bytes.Equal(buf, page) {
		t.Fatalf("reopened read = %v", err)
	}

	// A foreign object under the page prefix is a hard error, not a
	// silently skipped key.
	if err := store.WriteBlock(context.Background(), "region/pages/bogus", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := backend.NewPager(store, "region", 32); err == nil {
		t.Fatal("NewPager accepted foreign object under pages/")
	}
}

// TestTableOverBackendPager drives the real table through a backend
// pager: create, load, checkpoint, reattach with a fresh pager over the
// same store, and query — the full injected-pager path the shard layer's
// object kind uses.
func TestTableOverBackendPager(t *testing.T) {
	store := backend.NewMemoryStore()
	defer store.Close()
	schema := relation.MustSchema(
		relation.Domain{Name: "dept", Size: 8},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "empno", Size: 4096},
	)
	rng := rand.New(rand.NewSource(99))
	tuples := make([]relation.Tuple, 700)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
		}
	}
	anchor := filepath.Join(t.TempDir(), "shard-0000")

	tb, err := table.Create(schema,
		table.WithCodec(core.CodecAVQ),
		table.WithPageSize(512),
		table.WithPath(anchor),
		table.WithPager(newPager(t, store, "shard-0000", 512)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	wantLen, wantBlocks := tb.Len(), tb.NumBlocks()
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := table.Open(anchor,
		table.WithPageSize(512),
		table.WithPath(anchor),
		table.WithPager(newPager(t, store, "shard-0000", 512)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Len() != wantLen || got.NumBlocks() != wantBlocks {
		t.Fatalf("reopened len/blocks = %d/%d, want %d/%d", got.Len(), got.NumBlocks(), wantLen, wantBlocks)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rows, _, err := got.SelectRangeContext(context.Background(), 0, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, tu := range tuples {
		if tu[0] >= 2 && tu[0] <= 5 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("reopened query matched %d, want %d", len(rows), want)
	}

	// Mutate, checkpoint, reattach again: deferred frees must release
	// only after the durable catalog, and the state must round-trip.
	extra := relation.Tuple{3, 3, 3, 3}
	if err := got.InsertContext(context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	if err := got.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := table.Open(anchor,
		table.WithPageSize(512),
		table.WithPath(anchor),
		table.WithPager(newPager(t, store, "shard-0000", 512)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	ok, err := again.Contains(extra)
	if err != nil || !ok {
		t.Fatalf("inserted tuple after second reopen: %v, %v", ok, err)
	}
}

// blockingStore is a Store whose ReadBlockInto of one key waits until the
// test releases it.
type blockingStore struct {
	backend.Store
	key     string
	entered chan struct{}
	release chan struct{}
}

func (s *blockingStore) ReadBlockInto(ctx context.Context, key string, dst []byte) (int64, error) {
	if key == s.key {
		s.entered <- struct{}{}
		<-s.release
	}
	return s.Store.ReadBlockInto(ctx, key, dst)
}

// TestPagerReadsOverlap: a page read waiting on the object store does not
// hold the pager, so a read of another page completes beside it.
func TestPagerReadsOverlap(t *testing.T) {
	mem := backend.NewMemoryStore()
	defer mem.Close()
	store := &blockingStore{Store: mem, key: "t/pages/0000000000", entered: make(chan struct{}), release: make(chan struct{})}
	p := newPager(t, store, "t", 32)
	for i := 0; i < 2; i++ {
		if _, err := p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Write(1, bytes.Repeat([]byte{5}, 32)); err != nil {
		t.Fatal(err)
	}

	slow := make(chan error, 1)
	go func() { slow <- p.Read(0, make([]byte, 32)) }()
	<-store.entered
	defer func() {
		close(store.release)
		if err := <-slow; err != nil {
			t.Error(err)
		}
	}()

	fast := make(chan error, 1)
	buf := make([]byte, 32)
	go func() { fast <- p.Read(1, buf) }()
	select {
	case err := <-fast:
		if err != nil || buf[0] != 5 {
			t.Fatalf("read beside a blocked read: %v, byte %d", err, buf[0])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a page read waited for another page's object read")
	}
}

// TestPagerReadAllocs: a read of a page whose object handle is cached
// allocates only its key; the object lands straight in the caller's
// buffer.
func TestPagerReadAllocs(t *testing.T) {
	store, err := backend.NewObjectStore(nil, filepath.Join(t.TempDir(), "bucket"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	p := newPager(t, store, "shard-0000", 8192)
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{7}, 8192)
	if err := p.Write(id, page); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8192)
	if err := p.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := p.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(buf, page) {
		t.Fatal("page read back wrong")
	}
	if allocs > 1 {
		t.Fatalf("Pager.Read of a cached page makes %.1f allocations, want <= 1", allocs)
	}
	t.Logf("Pager.Read: %.1f allocations per op", allocs)
}
