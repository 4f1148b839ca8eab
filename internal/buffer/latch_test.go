package buffer

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// gatedPager is a MemPager whose Read of a gated page blocks until the test
// opens the gate, then fails with the gate's error (nil reads normally). It
// counts every Read, so tests can hold Stats().Misses to the pager reads.
type gatedPager struct {
	*storage.MemPager
	reads   atomic.Int64
	entered chan storage.PageID // each gated Read announces itself here

	mu    sync.Mutex
	gates map[storage.PageID]*gate
}

type gate struct {
	opened chan struct{}
	err    error
}

func newGatedPager(t *testing.T, pageSize int) *gatedPager {
	t.Helper()
	mp, err := storage.NewMemPager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return &gatedPager{MemPager: mp, entered: make(chan storage.PageID, 64), gates: map[storage.PageID]*gate{}}
}

// gate makes the next Reads of id block until open is called.
func (g *gatedPager) gate(id storage.PageID) {
	g.mu.Lock()
	g.gates[id] = &gate{opened: make(chan struct{})}
	g.mu.Unlock()
}

// open releases every Read blocked on id's gate with err and removes it.
func (g *gatedPager) open(id storage.PageID, err error) {
	g.mu.Lock()
	gt := g.gates[id]
	delete(g.gates, id)
	g.mu.Unlock()
	if gt != nil {
		gt.err = err
		close(gt.opened)
	}
}

func (g *gatedPager) Read(id storage.PageID, buf []byte) error {
	g.reads.Add(1)
	g.mu.Lock()
	gt := g.gates[id]
	g.mu.Unlock()
	if gt != nil {
		g.entered <- id
		<-gt.opened
		if gt.err != nil {
			return gt.err
		}
	}
	return g.MemPager.Read(id, buf)
}

// gatedPool returns a pool over a gated pager holding n allocated pages,
// none of them resident.
func gatedPool(t *testing.T, capacity, n int) (*Pool, *gatedPager, []storage.PageID) {
	t.Helper()
	pager := newGatedPager(t, 128)
	pool, err := New(pager, nil, capacity)
	if err != nil {
		t.Fatal(err)
	}
	ids := allocPages(t, pool, n)
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	return pool, pager, ids
}

// within runs fn on its own goroutine and fails the test if it has not
// returned in time — the symptom of a Get stuck behind another's read.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return while another page's read was in flight", what)
	}
}

// getUnpin pins and releases one page.
func getUnpin(pool *Pool, id storage.PageID) error {
	f, err := pool.Get(id)
	if err != nil {
		return err
	}
	return pool.Unpin(f)
}

// waitPins polls until the loading frame for id carries want pins, i.e.
// every concurrent Get has joined the in-flight read.
func waitPins(t *testing.T, pool *Pool, id storage.PageID, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		pool.mu.Lock()
		f := pool.frames[id]
		pins := 0
		if f != nil {
			pins = f.pins
		}
		pool.mu.Unlock()
		if pins == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("page %d has %d pins, want %d", id, pins, want)
		}
		runtime.Gosched()
	}
}

func TestMissDoesNotBlockPool(t *testing.T) {
	pool, pager, ids := gatedPool(t, 4, 3)
	slow, hot, cold := ids[0], ids[1], ids[2]
	if err := getUnpin(pool, hot); err != nil {
		t.Fatal(err)
	}
	pager.gate(slow)
	t.Cleanup(func() { pager.open(slow, nil) })
	slowDone := make(chan error, 1)
	go func() { slowDone <- getUnpin(pool, slow) }()
	<-pager.entered

	within(t, "hit on a resident page", func() error { return getUnpin(pool, hot) })
	within(t, "miss on a third page", func() error { return getUnpin(pool, cold) })

	pager.open(slow, nil)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Misses != pager.reads.Load() || st.Misses != 3 || st.Hits != 1 {
		t.Fatalf("stats %+v, pager reads %d; want 3 misses = reads, 1 hit", st, pager.reads.Load())
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
}

func TestMissSharedByConcurrentGets(t *testing.T) {
	const k = 8
	pool, pager, ids := gatedPool(t, 4, 1)
	id := ids[0]
	pager.gate(id)
	t.Cleanup(func() { pager.open(id, nil) })

	frames := make(chan *Frame, k)
	errs := make(chan error, k)
	for range k {
		go func() {
			f, err := pool.Get(id)
			if err != nil {
				errs <- err
				return
			}
			frames <- f
		}()
	}
	<-pager.entered
	waitPins(t, pool, id, k)
	pager.open(id, nil)

	var first *Frame
	for range k {
		select {
		case f := <-frames:
			if first == nil {
				first = f
			} else if f != first {
				t.Fatal("waiters got different frames for one page")
			}
		case err := <-errs:
			t.Fatal(err)
		}
	}
	if first.pins != k {
		t.Fatalf("frame has %d pins, want %d", first.pins, k)
	}
	st := pool.Stats()
	if st.Misses != 1 || pager.reads.Load() != 1 || st.Hits != k-1 {
		t.Fatalf("stats %+v, pager reads %d; want one read serving %d Gets", st, pager.reads.Load(), k)
	}
	for range k {
		if err := pool.Unpin(first); err != nil {
			t.Fatal(err)
		}
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}
}

func TestMissFailureReachesEveryWaiter(t *testing.T) {
	const k = 6
	pool, pager, ids := gatedPool(t, 4, 1)
	id := ids[0]
	pager.gate(id)
	t.Cleanup(func() { pager.open(id, nil) })
	boom := errors.New("disk on fire")

	errs := make(chan error, k)
	for range k {
		go func() {
			f, err := pool.Get(id)
			if err == nil {
				pool.Unpin(f)
			}
			errs <- err
		}()
	}
	<-pager.entered
	waitPins(t, pool, id, k)
	pager.open(id, boom)
	for range k {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("waiter got %v, want the read's error", err)
		}
	}
	if n := pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames pinned after a failed read", n)
	}
	pool.mu.Lock()
	_, resident := pool.frames[id]
	pool.mu.Unlock()
	if resident {
		t.Fatal("failed page left resident")
	}

	f, err := pool.Get(id)
	if err != nil {
		t.Fatalf("retry after failed read: %v", err)
	}
	if err := pool.Unpin(f); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Misses != 2 || pager.reads.Load() != 2 {
		t.Fatalf("stats %+v, pager reads %d; want the failed read and the retry", st, pager.reads.Load())
	}
}

func TestMissDuringLifecycle(t *testing.T) {
	pool, pager, ids := gatedPool(t, 4, 2)
	id := ids[0]
	pager.gate(id)
	t.Cleanup(func() { pager.open(id, nil) })

	got := make(chan *Frame, 1)
	go func() {
		f, err := pool.Get(id)
		if err != nil {
			t.Error(err)
		}
		got <- f
	}()
	<-pager.entered

	if err := pool.Free(id); err == nil {
		t.Fatal("Free of a loading page succeeded")
	}
	if err := pool.DropAll(); err == nil {
		t.Fatal("DropAll with a loading page succeeded")
	}
	if err := getUnpin(pool, ids[1]); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- pool.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a read in flight", err)
	case <-time.After(10 * time.Millisecond):
	}
	pager.open(id, nil)

	f := <-got
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if f == nil || f.ID() != id {
		t.Fatal("in-flight Get did not finish with its frame")
	}
	if err := pool.Unpin(f); err != nil {
		t.Fatal(err)
	}
	pool.mu.Lock()
	left := len(pool.frames) + pool.loads
	onLRU := pool.lruHead != nil || pool.lruTail != nil
	pool.mu.Unlock()
	if left != 0 || onLRU {
		t.Fatal("closed pool still holds frames")
	}
	if _, err := pool.Get(id); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Get after Close: %v", err)
	}
	if st := pool.Stats(); st.Misses != pager.reads.Load() {
		t.Fatalf("stats %+v, pager reads %d", st, pager.reads.Load())
	}
}

func TestMissReusesBuffers(t *testing.T) {
	const pageSize = 8192
	pager := newGatedPager(t, pageSize)
	pool, err := New(pager, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	ids := allocPages(t, pool, 16)
	i := 0
	cycle := func() {
		// Cycling 16 pages through 4 frames makes every Get a miss.
		if err := getUnpin(pool, ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 2 * len(ids) {
		cycle()
	}
	before := pool.Stats().Misses
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(512, cycle)
	runtime.ReadMemStats(&m1)
	misses := pool.Stats().Misses - before
	if misses < 512 {
		t.Fatalf("%d misses, want every Get to miss", misses)
	}
	if perMiss := (m1.TotalAlloc - m0.TotalAlloc) / uint64(misses); perMiss >= 1024 {
		t.Fatalf("%d bytes allocated per miss (%.1f allocs); a miss must reuse the victim's page buffer", perMiss, allocs)
	}
	if st := pool.Stats(); st.Misses != pager.reads.Load() {
		t.Fatalf("stats %+v, pager reads %d", st, pager.reads.Load())
	}

	// Allocate reuses a victim's buffer too, and still hands out zeros.
	f, err := pool.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	for j := range f.Data() {
		f.Data()[j] = 0xAB
	}
	if err := pool.Unpin(f); err != nil {
		t.Fatal(err)
	}
	for range 4 {
		f, err := pool.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range f.Data() {
			if b != 0 {
				t.Fatal("Allocate returned a page with a previous page's bytes")
			}
		}
		if err := pool.Unpin(f); err != nil {
			t.Fatal(err)
		}
	}
}
