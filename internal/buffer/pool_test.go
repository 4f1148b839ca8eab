package buffer

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/storage"
)

func newPool(t *testing.T, capacity int) (*Pool, storage.Pager) {
	t.Helper()
	pager, err := storage.NewMemPager(128)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := New(pager, nil, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return pool, pager
}

func allocPages(t *testing.T, pool *Pool, n int) []storage.PageID {
	t.Helper()
	ids := make([]storage.PageID, n)
	for i := range ids {
		f, err := pool.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = f.ID()
		if err := pool.Unpin(f); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

func TestGetMissAndHit(t *testing.T) {
	pool, _ := newPool(t, 4)
	ids := allocPages(t, pool, 1)
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()

	f, err := pool.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f)
	f, err = pool.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f)

	st := pool.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss 1 hit", st)
	}
}

func TestDirtyWriteBackOnEviction(t *testing.T) {
	pool, pager := newPool(t, 2)
	ids := allocPages(t, pool, 3)
	pool.ResetStats()

	f, err := pool.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data(), bytes.Repeat([]byte{0xCC}, 128))
	f.MarkDirty()
	pool.Unpin(f)

	// Fill the pool past capacity so ids[0] is evicted.
	for _, id := range ids[1:] {
		f, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f)
	}
	st := pool.Stats()
	if st.Evictions == 0 {
		t.Fatal("no eviction happened")
	}
	if st.Flushes != 1 {
		t.Fatalf("flushes = %d, want 1 (dirty eviction)", st.Flushes)
	}
	// The pager must hold the new data.
	buf := make([]byte, 128)
	if err := pager.Read(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xCC {
		t.Fatal("dirty page not written back")
	}
}

func TestAllFramesPinned(t *testing.T) {
	pool, _ := newPool(t, 2)
	ids := allocPages(t, pool, 3)
	f0, err := pool.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	f1, err := pool.Get(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(ids[2]); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("Get with all pinned err = %v", err)
	}
	pool.Unpin(f0)
	if _, err := pool.Get(ids[2]); err != nil {
		t.Fatalf("Get after unpin: %v", err)
	}
	pool.Unpin(f1)
}

func TestDoubleUnpin(t *testing.T) {
	pool, _ := newPool(t, 2)
	ids := allocPages(t, pool, 1)
	f, err := pool.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(f); err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(f); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("double unpin err = %v", err)
	}
}

func TestPinCountNesting(t *testing.T) {
	pool, _ := newPool(t, 1)
	ids := allocPages(t, pool, 2)
	f1, _ := pool.Get(ids[0])
	f2, _ := pool.Get(ids[0]) // second pin on the same frame
	if f1 != f2 {
		t.Fatal("same page produced two frames")
	}
	pool.Unpin(f1)
	// Still pinned once: a Get of another page must fail (capacity 1).
	if _, err := pool.Get(ids[1]); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("expected ErrPoolFull, got %v", err)
	}
	pool.Unpin(f2)
	if _, err := pool.Get(ids[1]); err != nil {
		t.Fatalf("after final unpin: %v", err)
	}
}

func TestFlushAndDropAll(t *testing.T) {
	pool, pager := newPool(t, 4)
	ids := allocPages(t, pool, 2)
	f, _ := pool.Get(ids[1])
	f.Data()[5] = 42
	f.MarkDirty()
	pool.Unpin(f)
	pool.ResetStats()

	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := pager.Read(ids[1], buf); err != nil {
		t.Fatal(err)
	}
	if buf[5] != 42 {
		t.Fatal("Flush did not write back")
	}
	if st := pool.Stats(); st.Flushes != 1 {
		t.Fatalf("flushes = %d, want 1", st.Flushes)
	}

	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	f, err := pool.Get(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f)
	if st := pool.Stats(); st.Misses != 1 {
		t.Fatalf("after DropAll, Get should miss: %+v", st)
	}
}

func TestDropAllRefusesPinned(t *testing.T) {
	pool, _ := newPool(t, 4)
	ids := allocPages(t, pool, 1)
	f, _ := pool.Get(ids[0])
	if err := pool.DropAll(); err == nil {
		t.Fatal("DropAll succeeded with a pinned frame")
	}
	pool.Unpin(f)
}

func TestFreeDropsPage(t *testing.T) {
	pool, pager := newPool(t, 4)
	ids := allocPages(t, pool, 1)
	if err := pool.Free(ids[0]); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := pager.Read(ids[0], buf); !errors.Is(err, storage.ErrPageFreed) {
		t.Fatalf("pager read after free err = %v", err)
	}
	// Freeing a pinned page must fail.
	ids = allocPages(t, pool, 1)
	f, _ := pool.Get(ids[0])
	if err := pool.Free(ids[0]); err == nil {
		t.Fatal("Free of pinned page succeeded")
	}
	pool.Unpin(f)
}

// TestAllocateFailureReturnsPage: an Allocate that cannot get a frame
// (every frame pinned) must leave the pager as it was. Taking the page
// first orphaned it: the failed call's id was never freed, and the next
// Allocate got a fresh one.
func TestAllocateFailureReturnsPage(t *testing.T) {
	pool, pager := newPool(t, 1)
	f, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Allocate(); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("Allocate with every frame pinned: err = %v, want ErrPoolFull", err)
	}
	if n := pager.NumPages(); n != 1 {
		t.Fatalf("pager has %d pages after the failed Allocate, want 1", n)
	}
	if err := pool.Unpin(f); err != nil {
		t.Fatal(err)
	}
	g, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if g.ID() != f.ID()+1 {
		t.Fatalf("next Allocate got page %d, want %d: a page was orphaned", g.ID(), f.ID()+1)
	}
	if err := pool.Unpin(g); err != nil {
		t.Fatal(err)
	}
}

// TestFreeRecyclesFrameBuffer: a write's page churn — Allocate a page,
// fill it, Unpin, Free it — hands the freed frame's buffer to the next
// Allocate, so a cycle allocates no page memory, and the recycled buffer
// still reads as zeros.
func TestFreeRecyclesFrameBuffer(t *testing.T) {
	const pageSize = 8192
	pager, err := storage.NewMemPager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := New(pager, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		f, err := pool.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		data := f.Data()
		for i, b := range data {
			if b != 0 {
				t.Fatalf("Allocate returned a page with byte %d set: a recycled buffer was not cleared", i)
			}
		}
		for j := range data {
			data[j] = 0xAB
		}
		f.MarkDirty()
		id := f.ID()
		if err := pool.Unpin(f); err != nil {
			t.Fatal(err)
		}
		if err := pool.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	for range 16 {
		cycle()
	}
	const n = 512
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range n {
		cycle()
	}
	runtime.ReadMemStats(&m1)
	if perCycle := (m1.TotalAlloc - m0.TotalAlloc) / n; perCycle >= 1024 {
		t.Fatalf("%d bytes allocated per Allocate/Free cycle; Free must keep the frame's %d-byte buffer for the next frame", perCycle, pageSize)
	}
}

func TestCloseFlushesAndBlocks(t *testing.T) {
	pool, pager := newPool(t, 4)
	ids := allocPages(t, pool, 1)
	f, _ := pool.Get(ids[0])
	f.Data()[0] = 9
	f.MarkDirty()
	pool.Unpin(f)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := pager.Read(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Fatal("Close did not flush")
	}
	if _, err := pool.Get(ids[0]); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Get after close err = %v", err)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestLRUOrder(t *testing.T) {
	pool, _ := newPool(t, 3)
	ids := allocPages(t, pool, 4)
	pool.ResetStats()
	get := func(id storage.PageID) {
		f, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f)
	}
	get(ids[0])
	get(ids[1])
	get(ids[2])
	get(ids[0])       // touch 0: LRU order is now 1,2,0
	get(ids[3])       // evicts 1
	pool.ResetStats() // now probe: 0 and 2 should hit, 1 should miss
	get(ids[0])
	get(ids[2])
	st := pool.Stats()
	if st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("probe stats = %+v; LRU evicted the wrong page", st)
	}
	get(ids[1])
	if st := pool.Stats(); st.Misses != 1 {
		t.Fatalf("page 1 should have been evicted: %+v", st)
	}
}

func TestBadCapacity(t *testing.T) {
	pager, _ := storage.NewMemPager(64)
	if _, err := New(pager, nil, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestConcurrentGetUnpin(t *testing.T) {
	pool, _ := newPool(t, 8)
	ids := allocPages(t, pool, 16)
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ids[(seed*31+i)%len(ids)]
				f, err := pool.Get(id)
				if err != nil {
					// Pool can momentarily be full of pinned frames under
					// contention; that is a defined, recoverable condition.
					if errors.Is(err, ErrPoolFull) {
						continue
					}
					errs <- err
					return
				}
				if f.ID() != id {
					errs <- errors.New("frame identity mismatch")
					return
				}
				if err := pool.Unpin(f); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
