// Package buffer implements a pinning LRU buffer pool over a storage.Pager.
//
// The pool is where the paper's I/O accounting happens: every miss is one
// block read (a t1 in the cost model of Section 5.3) and every dirty
// eviction or flush is one block write. Stats().Misses and Flushes are
// those two counts, so experiments measure N (blocks accessed) by running
// real queries and price it with the paper's per-block time t1.
//
// A miss reads outside the pool lock: Get evicts a victim, publishes the
// new frame pinned and loading, and only then calls the pager, so hits and
// other misses proceed while one request waits on its read. A Get of a page
// that is still loading waits for that one read and shares its frame; it
// counts as a hit, so Stats().Misses is exactly the number of pager reads.
// The new frame takes the victim's page buffer, so a steady-state miss
// allocates no page memory — and a frame's Data must never be touched after
// its Unpin, because the next miss may already be reading another page
// into it (the block store's one page read, viewStream, scopes every pin
// to a callback, and race builds poison what the callback was handed). A
// freed frame's buffer is kept the same way, for the next new frame, so a
// write's Allocate and Free of a page allocate none either.
package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Errors returned by the pool.
var (
	ErrPoolFull   = errors.New("buffer: all frames pinned")
	ErrNotPinned  = errors.New("buffer: unpin of frame that is not pinned")
	ErrPoolClosed = errors.New("buffer: pool is closed")
)

// Frame is a pinned page in the pool. The frame's data remains valid until
// Unpin; mutating it requires MarkDirty so the change is written back.
//
// MarkDirty is safe to call from concurrent pin holders; mutating the Data
// slice itself still needs external serialization (the table layer takes
// an exclusive lock around mutations).
type Frame struct {
	id    storage.PageID
	data  []byte
	pins  int
	dirty atomic.Bool

	// loading is set while the page is read outside the pool lock; Gets of
	// the page wait on Pool.loaded until it clears. err is the failed
	// read's error, handed to those waiters.
	loading bool
	err     error

	// LRU list links; a frame is on the list only while unpinned.
	prev, next *Frame
}

// ID returns the page id held by the frame.
func (f *Frame) ID() storage.PageID { return f.id }

// Data returns the page contents. The slice aliases pool memory: it is
// valid only while the frame is pinned. After Unpin the pool may evict the
// frame and read another page into the same buffer, so a use after Unpin
// reads or corrupts a page someone else holds. The block store reads
// pages only through its scoped view (blockstore's viewStream), which
// unpins after its callback returns; a race build poisons the callback's
// copy of the stream then, so a slice kept past the view reads as garbage.
func (f *Frame) Data() []byte { return f.data }

// MarkDirty records that the frame's data was modified and must be written
// back before eviction.
func (f *Frame) MarkDirty() { f.dirty.Store(true) }

// Stats is a snapshot of pool counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Flushes   int64
}

// Pool is a fixed-capacity pinning LRU buffer pool. It is safe for
// concurrent use.
type Pool struct {
	mu       sync.Mutex
	pager    storage.Pager
	capacity int
	frames   map[storage.PageID]*Frame
	lruHead  *Frame // most recently used unpinned frame
	lruTail  *Frame // least recently used unpinned frame
	stats    Stats
	closed   bool

	// spare holds the page buffers of freed frames, handed to the next
	// new frame. One is taken only while the pool has room for a frame,
	// so frames plus spares never exceed the capacity.
	spare [][]byte

	// loaded is signalled (on mu) whenever a read started by Get finishes;
	// loads counts the reads in flight, so Close can wait them out.
	loaded sync.Cond
	loads  int

	// met holds pre-resolved obs instruments; nil instruments no-op, so
	// the pool pays one nil check per event when observability is off.
	met poolMetrics
}

// poolMetrics are the pool's obs instruments, resolved once by New.
type poolMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	flushes   *obs.Counter
	pinned    *obs.Gauge
}

// New creates a pool of the given capacity (in frames) over the pager,
// with its counters wired into reg (nil for no instruments; a nil
// instrument no-ops).
func New(pager storage.Pager, reg *obs.Registry, capacity int) (*Pool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("buffer: capacity %d must be positive", capacity)
	}
	p := &Pool{
		pager:    pager,
		capacity: capacity,
		frames:   make(map[storage.PageID]*Frame, capacity),
		met: poolMetrics{
			hits:      reg.Counter("pool.hits"),
			misses:    reg.Counter("pool.misses"),
			evictions: reg.Counter("pool.evictions"),
			flushes:   reg.Counter("pool.flushes"),
			pinned:    reg.Gauge("pool.pinned"),
		},
	}
	p.loaded.L = &p.mu
	return p, nil
}

// PageSize returns the underlying pager's page size.
func (p *Pool) PageSize() int { return p.pager.PageSize() }

// Capacity returns the pool's frame capacity. Concurrent readers use it
// to bound how many frames they pin at once.
func (p *Pool) Capacity() int { return p.capacity }

// Pager returns the underlying pager.
func (p *Pool) Pager() storage.Pager { return p.pager }

// lruRemove unlinks f from the LRU list.
func (p *Pool) lruRemove(f *Frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else if p.lruHead == f {
		p.lruHead = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else if p.lruTail == f {
		p.lruTail = f.prev
	}
	f.prev, f.next = nil, nil
}

// lruPush puts f at the most-recently-used end.
func (p *Pool) lruPush(f *Frame) {
	f.prev = nil
	f.next = p.lruHead
	if p.lruHead != nil {
		p.lruHead.prev = f
	}
	p.lruHead = f
	if p.lruTail == nil {
		p.lruTail = f
	}
}

// bufferLocked returns a page buffer for a new frame: while the pool has
// room, a freed frame's spare buffer or a fresh one; otherwise the buffer
// of the least recently used unpinned frame, which is evicted (and written
// back if dirty). The caller holds p.mu.
func (p *Pool) bufferLocked() ([]byte, error) {
	if len(p.frames) < p.capacity {
		if n := len(p.spare); n > 0 {
			data := p.spare[n-1]
			p.spare = p.spare[:n-1]
			return data, nil
		}
		return make([]byte, p.pager.PageSize()), nil
	}
	victim := p.lruTail
	if victim == nil {
		return nil, ErrPoolFull
	}
	p.lruRemove(victim)
	if victim.dirty.Load() {
		if err := p.writeBackLocked(victim); err != nil {
			// Re-link so the pool stays consistent after the error.
			p.lruPush(victim)
			return nil, err
		}
	}
	delete(p.frames, victim.id)
	p.stats.Evictions++
	p.met.evictions.Inc()
	return victim.data, nil
}

func (p *Pool) writeBackLocked(f *Frame) error {
	if err := p.pager.Write(f.id, f.data); err != nil {
		return fmt.Errorf("buffer: write back page %d: %w", f.id, err)
	}
	f.dirty.Store(false)
	p.stats.Flushes++
	p.met.flushes.Inc()
	return nil
}

// Get pins the page in the pool, reading it from the pager on a miss, and
// returns its frame. Every successful Get must be paired with an Unpin.
//
// The pager read runs without the pool lock, on a frame already published
// pinned and loading; a concurrent Get of the same page waits for that read
// instead of issuing its own. A failed read unpublishes the frame and
// returns its error to the loader and every waiter.
func (p *Pool) Get(id storage.PageID) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	if f, ok := p.frames[id]; ok {
		if f.pins == 0 {
			p.lruRemove(f)
			p.met.pinned.Add(1)
		}
		f.pins++
		for f.loading {
			p.loaded.Wait()
		}
		if f.err != nil {
			return nil, f.err
		}
		p.stats.Hits++
		p.met.hits.Inc()
		return f, nil
	}
	data, err := p.bufferLocked()
	if err != nil {
		return nil, err
	}
	f := &Frame{id: id, data: data, pins: 1, loading: true}
	p.frames[id] = f
	p.stats.Misses++
	p.met.misses.Inc()
	p.met.pinned.Add(1)
	p.loads++

	p.mu.Unlock()
	err = p.pager.Read(id, data)
	p.mu.Lock()

	p.loads--
	f.loading = false
	p.loaded.Broadcast()
	if err != nil {
		// Waiters took pins on f; they return the error instead of the
		// frame, so the pins die with it.
		f.err = err
		f.pins = 0
		delete(p.frames, id)
		p.met.pinned.Add(-1)
		return nil, err
	}
	return f, nil
}

// Unpin releases one pin on the frame. When the pin count reaches zero the
// frame becomes evictable.
func (p *Pool) Unpin(f *Frame) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f.pins <= 0 {
		return ErrNotPinned
	}
	f.pins--
	if f.pins == 0 {
		if !p.closed {
			p.lruPush(f)
		}
		p.met.pinned.Add(-1)
	}
	return nil
}

// Allocate creates a new zeroed page and returns it pinned. The frame
// starts clean; callers that fill it must MarkDirty. Like a miss, it takes
// a spare or evicted frame's buffer, cleared. The buffer is taken before
// the page, so a pool with every frame pinned fails without allocating
// one, and a failed pager allocation returns the buffer to the spares.
func (p *Pool) Allocate() (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	data, err := p.bufferLocked()
	if err != nil {
		return nil, err
	}
	id, err := p.pager.Allocate()
	if err != nil {
		p.spare = append(p.spare, data)
		return nil, err
	}
	clear(data)
	p.met.pinned.Add(1)
	f := &Frame{id: id, data: data, pins: 1}
	p.frames[id] = f
	return f, nil
}

// Free drops the page from the pool and returns it to the pager's free
// list, keeping its frame's buffer as a spare for the next new frame. The
// page must not be pinned, so no holder still aliases the buffer.
func (p *Pool) Free(id storage.PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	if f, ok := p.frames[id]; ok {
		if f.pins > 0 {
			return fmt.Errorf("buffer: free of pinned page %d", id)
		}
		p.lruRemove(f)
		delete(p.frames, id)
		p.spare = append(p.spare, f.data)
	}
	return p.pager.Free(id)
}

// Flush writes back every dirty frame without evicting anything.
func (p *Pool) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	for _, f := range p.frames {
		if f.dirty.Load() {
			if err := p.writeBackLocked(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// DropAll flushes dirty frames and then empties the pool, so subsequent
// Gets hit the pager again. Experiments use it to run each query cold, as
// the paper's model assumes. It is an error if any frame is pinned.
func (p *Pool) DropAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	for id, f := range p.frames {
		if f.pins > 0 {
			return fmt.Errorf("buffer: drop-all with pinned page %d", id)
		}
		if f.dirty.Load() {
			if err := p.writeBackLocked(f); err != nil {
				return err
			}
		}
	}
	p.frames = make(map[storage.PageID]*Frame, p.capacity)
	p.lruHead, p.lruTail = nil, nil
	return nil
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// PinnedFrames returns the number of frames currently holding at least
// one pin. Leak assertions use it: after an aborted scan it must be zero.
func (p *Pool) PinnedFrames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.frames {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

// ResetStats zeroes the counters.
func (p *Pool) ResetStats() {
	p.mu.Lock()
	p.stats = Stats{}
	p.mu.Unlock()
}

// Close waits for in-flight reads, flushes dirty frames and closes the
// pool (but not the pager, which the caller owns). Frames still pinned stay
// valid for their holders; their Unpin no longer returns them to the pool.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.loads > 0 {
		p.loaded.Wait()
	}
	if p.closed {
		return nil
	}
	for _, f := range p.frames {
		if f.dirty.Load() {
			if err := p.writeBackLocked(f); err != nil {
				return err
			}
		}
	}
	p.closed = true
	p.frames = nil
	p.spare = nil
	p.lruHead, p.lruTail = nil, nil
	return nil
}
