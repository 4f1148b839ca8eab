package buffer

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// TestPoolConcurrentStress hammers one small pool from many goroutines with
// pin / read / mark-dirty / unpin cycles over a working set larger than the
// pool, forcing constant eviction and write-back races. Under -race it
// fails if any counter, LRU-list, or dirty-flag update is unsynchronized
// (the dirty flag in particular is written by concurrent pin holders while
// the flusher clears it) or if a freed frame's recycled buffer is handed
// out while another frame still holds it.
func TestPoolConcurrentStress(t *testing.T) {
	const (
		pageSize   = 128
		numPages   = 64
		capacity   = 8 // far smaller than the working set
		goroutines = 8
		iters      = 400
	)
	pager, err := storage.NewMemPager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := New(pager, nil, capacity)
	if err != nil {
		t.Fatal(err)
	}

	// Materialize the working set with one recognizable byte per page.
	ids := make([]storage.PageID, numPages)
	for i := range ids {
		f, err := pool.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(f.ID())
		f.MarkDirty()
		ids[i] = f.ID()
		if err := pool.Unpin(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines+2)

	// A concurrent flusher forces write-backs of frames other goroutines
	// hold pinned and are marking dirty: the flusher clears the dirty flag
	// under the pool lock while pin holders set it from outside.
	stop := make(chan struct{})
	flusherDone := make(chan struct{})
	go func() {
		defer close(flusherDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := pool.Flush(); err != nil {
				errCh <- err
				return
			}
			// Throttle: an unthrottled flush loop just serializes the pool
			// mutex and starves the workers of overlap.
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// A churner allocates, fills and frees pages of its own, as a
	// copy-on-write mutation does, so freed frames' buffers pass to new
	// frames while the workers read theirs: a recycled buffer still
	// aliased by a live frame would clobber a worker's page.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			f, err := pool.Allocate()
			if errors.Is(err, ErrPoolFull) {
				continue
			}
			if err != nil {
				errCh <- err
				return
			}
			for j := range f.Data() {
				f.Data()[j] = 0xFF
			}
			f.MarkDirty()
			id := f.ID()
			if err := pool.Unpin(f); err != nil {
				errCh <- err
				return
			}
			if err := pool.Free(id); err != nil {
				errCh <- err
				return
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				// Skew toward a few hot pages so goroutines often hold
				// overlapping pins on the same frame.
				var id storage.PageID
				if rng.Intn(4) > 0 {
					id = ids[rng.Intn(4)]
				} else {
					id = ids[rng.Intn(len(ids))]
				}
				f, err := pool.Get(id)
				if errors.Is(err, ErrPoolFull) {
					continue // every frame momentarily pinned by peers
				}
				if err != nil {
					errCh <- err
					return
				}
				if got := f.Data()[0]; got != byte(id) {
					pool.Unpin(f)
					errCh <- errors.New("page content clobbered under concurrency")
					return
				}
				if rng.Intn(4) == 0 {
					// Metadata-only dirtying: data writes need external
					// serialization, but MarkDirty must be pin-holder safe.
					f.MarkDirty()
					// Yield while still pinned so the flusher and other pin
					// holders run inside the pinned window, where no pool
					// mutex edge orders their dirty-flag accesses with ours.
					runtime.Gosched()
				}
				if rng.Intn(16) == 0 {
					_ = pool.Stats()
				}
				if err := pool.Unpin(f); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	close(stop)
	<-flusherDone
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := pool.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no pool traffic recorded")
	}
	if st.Misses > 0 && st.Evictions == 0 {
		t.Errorf("stats = %+v: misses with a full pool must evict", st)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	// Every page must still hold its recognizable byte after the storm.
	for _, id := range ids {
		f, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Data()[0]; got != byte(id) {
			t.Fatalf("page %d: byte %d after stress", id, got)
		}
		if err := pool.Unpin(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}
