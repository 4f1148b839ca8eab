package backend_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
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
	// Writes land in the background: Sync before looking at the store.
	if err := p.Sync(); err != nil {
		t.Fatal(err)
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
	// Allocate writes no object; the page's first Write, once synced, does.
	if err := p.Write(id, bytes.Repeat([]byte{3}, 32)); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
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
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id, bytes.Repeat([]byte{byte(4 + i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	// Both pages on the store, so neither read is served from memory.
	if err := p.Sync(); err != nil {
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
	// Measure the object read, not a copy of the write in flight.
	if err := p.Sync(); err != nil {
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

// gatedStore is a Store whose writes announce themselves on started
// and then wait until the test closes gate; with fail set they then fail.
type gatedStore struct {
	backend.Store
	started chan string
	gate    chan struct{}
	fail    error
}

// newGatedStore's started channel holds more announcements than any test
// starts writes, so a write never blocks announcing itself.
func newGatedStore() *gatedStore {
	return &gatedStore{Store: backend.NewMemoryStore(), started: make(chan string, 4*backend.MaxInFlight), gate: make(chan struct{})}
}

func (s *gatedStore) WriteBlock(ctx context.Context, key string, data []byte) error {
	s.started <- key
	<-s.gate
	if s.fail != nil {
		return s.fail
	}
	return s.Store.WriteBlock(ctx, key, data)
}

// returnsWithin runs fn and reports whether it returned within d; when it
// did not, the caller must unblock it and may then wait on the channel.
func returnsWithin(d time.Duration, fn func() error) (bool, chan error) {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		done <- err
		return true, done
	case <-time.After(d):
		return false, done
	}
}

func objects(t *testing.T, store backend.Store) []string {
	t.Helper()
	keys, err := store.List(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestPagerFreshPageReadsZeros: Allocate writes no object; the page reads
// as zeros from memory until written. Reopened, a page that was never
// written is a missing object and reads as an error.
func TestPagerFreshPageReadsZeros(t *testing.T) {
	store := backend.NewMemoryStore()
	defer store.Close()
	p := newPager(t, store, "t", 32)
	for i := 0; i < 2; i++ {
		if _, err := p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if keys := objects(t, store); len(keys) != 0 {
		t.Fatalf("Allocate wrote objects: %v", keys)
	}
	buf := bytes.Repeat([]byte{0xEE}, 32)
	if err := p.Read(0, buf); err != nil || !bytes.Equal(buf, make([]byte, 32)) {
		t.Fatalf("fresh page read = %v, %x; want zeros", err, buf)
	}
	if err := p.Write(1, bytes.Repeat([]byte{1}, 32)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if keys := objects(t, store); len(keys) != 1 {
		t.Fatalf("objects after one write: %v", keys)
	}
	again := newPager(t, store, "t", 32)
	if again.NumPages() != 2 {
		t.Fatalf("reopened NumPages = %d, want 2", again.NumPages())
	}
	if err := again.Read(0, buf); !errors.Is(err, backend.ErrNotFound) {
		t.Fatalf("reopened read of a never-written page = %v, want ErrNotFound", err)
	}
}

// TestPagerInFlightReadsNewBytes: a read of a page whose write has not
// returned sees the bytes written, from the pager's copy, and a caller
// reusing its buffer after Write changes nothing.
func TestPagerInFlightReadsNewBytes(t *testing.T) {
	store := newGatedStore()
	p := newPager(t, store, "t", 32)
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{9}, 32)
	if err := p.Write(id, page); err != nil {
		t.Fatal(err)
	}
	<-store.started
	clear(page)
	buf := make([]byte, 32)
	if err := p.Read(id, buf); err != nil || !bytes.Equal(buf, bytes.Repeat([]byte{9}, 32)) {
		t.Fatalf("in-flight read = %v, %x", err, buf)
	}
	if keys := objects(t, store.Store); len(keys) != 0 {
		t.Fatalf("object landed before its write was let through: %v", keys)
	}
	close(store.gate)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := store.ReadBlock(context.Background(), "t/pages/0000000000")
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{9}, 32)) {
		t.Fatalf("object after Sync = %v, %x", err, got)
	}
}

// TestPagerWriteOrdering: a rewrite of a page waits for its write in
// flight, so the last write wins; a free, or a release of a deferred
// free, waits too, so a late write never brings a deleted object back.
func TestPagerWriteOrdering(t *testing.T) {
	const wait = 50 * time.Millisecond
	t.Run("rewrite", func(t *testing.T) {
		store := newGatedStore()
		p := newPager(t, store, "t", 32)
		id, _ := p.Allocate()
		if err := p.Write(id, bytes.Repeat([]byte{1}, 32)); err != nil {
			t.Fatal(err)
		}
		<-store.started
		returned, done := returnsWithin(wait, func() error { return p.Write(id, bytes.Repeat([]byte{2}, 32)) })
		if returned {
			t.Fatal("a rewrite did not wait for the page's write in flight")
		}
		close(store.gate)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
		got, err := store.ReadBlock(context.Background(), "t/pages/0000000000")
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{2}, 32)) {
			t.Fatalf("object after two writes = %v, %x; want the second", err, got)
		}
	})
	for _, deferred := range []bool{false, true} {
		t.Run(fmt.Sprintf("free/deferred=%v", deferred), func(t *testing.T) {
			store := newGatedStore()
			p := newPager(t, store, "t", 32)
			p.SetDeferredFree(deferred)
			id, _ := p.Allocate()
			if err := p.Write(id, bytes.Repeat([]byte{1}, 32)); err != nil {
				t.Fatal(err)
			}
			<-store.started
			free := func() error { return p.Free(id) }
			if deferred {
				if err := p.Free(id); err != nil {
					t.Fatal(err)
				}
				free = func() error { p.ReleasePending(); return nil }
			}
			returned, done := returnsWithin(wait, free)
			if returned {
				t.Fatal("deleting a page's object did not wait for its write in flight")
			}
			close(store.gate)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if keys := objects(t, store.Store); len(keys) != 0 {
				t.Fatalf("objects after the free: %v", keys)
			}
			re, err := p.Allocate()
			buf := bytes.Repeat([]byte{0xEE}, 32)
			if err != nil || re != id {
				t.Fatalf("reuse = %d, %v; want %d", re, err, id)
			}
			if err := p.Read(re, buf); err != nil || !bytes.Equal(buf, make([]byte, 32)) {
				t.Fatalf("reused page read = %v, %x; want zeros", err, buf)
			}
		})
	}
}

// TestPagerWriteFailureIsSticky: a failed object write surfaces at Sync,
// and every later Read, Write, Allocate, Sync and Close returns it.
func TestPagerWriteFailureIsSticky(t *testing.T) {
	injected := errors.New("injected PUT failure")
	store := newGatedStore()
	store.fail = injected
	close(store.gate)
	p := newPager(t, store, "t", 32)
	id, _ := p.Allocate()
	if err := p.Write(id, bytes.Repeat([]byte{1}, 32)); err != nil {
		t.Fatalf("Write = %v; a write's failure surfaces at Sync", err)
	}
	if err := p.Sync(); !errors.Is(err, injected) {
		t.Fatalf("Sync = %v, want the injected failure", err)
	}
	store.fail = nil // the store recovers; the pager stays poisoned
	if err := p.Write(id, bytes.Repeat([]byte{2}, 32)); !errors.Is(err, injected) {
		t.Fatalf("Write after a failure = %v", err)
	}
	if err := p.Read(id, make([]byte, 32)); !errors.Is(err, injected) {
		t.Fatalf("Read after a failure = %v", err)
	}
	if _, err := p.Allocate(); !errors.Is(err, injected) {
		t.Fatalf("Allocate after a failure = %v", err)
	}
	if err := p.Sync(); !errors.Is(err, injected) {
		t.Fatalf("second Sync after a failure = %v", err)
	}
	if err := p.Close(); !errors.Is(err, injected) {
		t.Fatalf("Close after a failure = %v", err)
	}
}

// TestPagerCloseDrains: Close waits for every write in flight, then
// refuses further operations.
func TestPagerCloseDrains(t *testing.T) {
	store := newGatedStore()
	p := newPager(t, store, "t", 32)
	id, _ := p.Allocate()
	if err := p.Write(id, bytes.Repeat([]byte{1}, 32)); err != nil {
		t.Fatal(err)
	}
	<-store.started
	returned, done := returnsWithin(50*time.Millisecond, p.Close)
	if returned {
		t.Fatal("Close did not wait for a write in flight")
	}
	close(store.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if keys := objects(t, store.Store); len(keys) != 1 {
		t.Fatalf("objects after Close: %v", keys)
	}
	if err := p.Write(id, make([]byte, 32)); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("Write after Close = %v", err)
	}
}

// TestPagerBoundsWritesInFlight: at most MaxInFlight writes run at once;
// the next Write waits for a slot.
func TestPagerBoundsWritesInFlight(t *testing.T) {
	store := newGatedStore()
	p := newPager(t, store, "t", 32)
	for i := 0; i <= backend.MaxInFlight; i++ {
		if _, err := p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < backend.MaxInFlight; i++ {
		if err := p.Write(storage.PageID(i), bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	returned, done := returnsWithin(50*time.Millisecond, func() error {
		return p.Write(storage.PageID(backend.MaxInFlight), make([]byte, 32))
	})
	if returned {
		t.Fatalf("Write past %d in flight did not wait", backend.MaxInFlight)
	}
	if n := len(store.started); n != backend.MaxInFlight {
		t.Fatalf("%d writes started, want %d", n, backend.MaxInFlight)
	}
	close(store.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if keys := objects(t, store.Store); len(keys) != backend.MaxInFlight+1 {
		t.Fatalf("%d objects, want %d", len(keys), backend.MaxInFlight+1)
	}
}

// stressPage is page id's content for writer w's seq-th write: a stamp
// repeated over the page, so a torn or foreign page shows.
func stressPage(id storage.PageID, w, seq, size int) []byte {
	stamp := fmt.Sprintf("%d/%d/%d|", id, w, seq)
	return bytes.Repeat([]byte(stamp), size/len(stamp)+1)[:size]
}

// TestPagerStress runs writers, readers and a freer on one small set of
// overlapping page ids on every store kind. A read returns zeros (a fresh
// page), a whole page some writer wrote to that id, or a freed or missing
// page error; never a torn or foreign page. After a final Sync every live
// page written since its last free reads back its last write.
func TestPagerStress(t *testing.T) {
	const (
		ids      = 8
		size     = 256
		writes   = 150
		nWriters = 3
		nReaders = 3
	)
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			store, _ := fx.open(t, &countingFS{FS: storage.OSFS{}})
			defer store.Close()
			p := newPager(t, store, "t", size)
			for i := 0; i < ids; i++ {
				if _, err := p.Allocate(); err != nil {
					t.Fatal(err)
				}
			}
			// last[id] is the page id's last write; a free clears it. The
			// lock orders each operation with its record, so last is exact.
			var mu sync.Mutex
			last := make([][]byte, ids)
			ok := func(err error) bool {
				return err == nil || errors.Is(err, storage.ErrPageFreed) || errors.Is(err, backend.ErrNotFound)
			}
			errs := make(chan error, nWriters+nReaders+1)
			var work, readers sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < nWriters; w++ {
				work.Add(1)
				go func() {
					defer work.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for seq := 0; seq < writes; seq++ {
						id := storage.PageID(rng.Intn(ids))
						page := stressPage(id, w, seq, size)
						mu.Lock()
						err := p.Write(id, page)
						if err == nil {
							last[id] = page
						}
						mu.Unlock()
						if !ok(err) {
							errs <- fmt.Errorf("write %d: %w", id, err)
							return
						}
					}
				}()
			}
			work.Add(1)
			go func() {
				defer work.Done()
				rng := rand.New(rand.NewSource(77))
				for i := 0; i < writes/3; i++ {
					id := storage.PageID(rng.Intn(ids))
					mu.Lock()
					err := p.Free(id)
					if err == nil {
						last[id] = nil
						var re storage.PageID
						if re, err = p.Allocate(); err == nil && re != id {
							err = fmt.Errorf("reallocated %d, want %d", re, id)
						}
					}
					mu.Unlock()
					if err != nil {
						errs <- fmt.Errorf("free %d: %w", id, err)
						return
					}
					runtime.Gosched()
				}
			}()
			for r := 0; r < nReaders; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					buf := make([]byte, size)
					for {
						select {
						case <-stop:
							return
						default:
						}
						id := storage.PageID(rng.Intn(ids))
						err := p.Read(id, buf)
						if !ok(err) {
							errs <- fmt.Errorf("read %d: %w", id, err)
							return
						}
						if err != nil || bytes.Equal(buf, make([]byte, size)) {
							continue
						}
						var gotID storage.PageID
						var w, seq int
						if _, serr := fmt.Sscanf(string(buf), "%d/%d/%d|", &gotID, &w, &seq); serr != nil || gotID != id || !bytes.Equal(buf, stressPage(id, w, seq, size)) {
							errs <- fmt.Errorf("read %d: torn or foreign page %.24q", id, buf)
							return
						}
					}
				}()
			}
			work.Wait()
			close(stop)
			readers.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if err := p.Sync(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, size)
			for id := range last {
				want := last[id]
				if want == nil {
					want = make([]byte, size)
				}
				if err := p.Read(storage.PageID(id), buf); err != nil || !bytes.Equal(buf, want) {
					t.Errorf("page %d after Sync = %v, %.24q; want %.24q", id, err, buf, want)
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
