package blockstore

import (
	"sync"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

// blockCache is an LRU cache of decoded blocks keyed by page id. Repeated
// range selections over the same blocks skip the Golomb/difference decode
// entirely and pay only a tuple copy.
//
// The cache owns its entries: each block's digits live in one flat uint64
// slab, and lookups copy that slab into the caller's arena, so a caller
// that scribbles on a returned tuple cannot poison later reads (the serial
// decode path hands out fresh tuples per call, and the cached path must be
// observationally identical). A hit therefore costs one slab carve plus a
// memmove per row — no per-tuple allocation. It has its own lock because
// concurrent readers (table queries, the parallel scan pipeline)
// share it while the store itself is only locked for mutation.
//
// Invalidation is by page id and happens whenever the store frees a block
// page (rewrite, split, remove, reset). Page ids are reused by the pagers'
// free lists, so a stale entry is never merely wasteful — it would be
// wrong; every pool.Free of a block page must be paired with an
// invalidate.
type blockCache struct {
	mu      sync.Mutex
	cap     int
	entries map[storage.PageID]*cacheEntry
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used

	hits          int64
	misses        int64
	invalidations int64
}

type cacheEntry struct {
	id         storage.PageID
	count      int      // tuples in the block
	vals       []uint64 // count*arity digits, row-major
	prev, next *cacheEntry
}

// newBlockCache creates a cache holding up to capacity decoded blocks.
func newBlockCache(capacity int) *blockCache {
	return &blockCache{
		cap:     capacity,
		entries: make(map[storage.PageID]*cacheEntry, capacity),
	}
}

// CacheStats is a snapshot of cache counters, for tests and benchmarks.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Entries       int
}

func (c *blockCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Entries:       len(c.entries),
	}
}

// unlink removes e from the LRU list. Caller holds c.mu.
func (c *blockCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry. Caller holds c.mu.
func (c *blockCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// flattenTuples packs a decoded block's digits into one row-major slab —
// a single allocation, versus one per tuple for a header-slice deep copy.
func flattenTuples(ts []relation.Tuple, n int) []uint64 {
	vals := make([]uint64, 0, len(ts)*n)
	for _, tu := range ts {
		vals = append(vals, tu...)
	}
	return vals
}

// get copies the cached block into the caller's arena, if present. n is
// the schema arity (every cached block shares the store's schema).
func (c *blockCache) get(id storage.PageID, n int, a *core.Arena) ([]relation.Tuple, bool) {
	c.mu.Lock()
	e, ok := c.entries[id]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	c.unlink(e)
	c.pushFront(e)
	vals, count := e.vals, e.count
	c.mu.Unlock()
	// Copy outside the lock: the entry's slab is never mutated after
	// insertion, only replaced wholesale by put.
	out := a.Tuples(count, n)
	for i := range out {
		copy(out[i], vals[i*n:])
	}
	return out, true
}

// getPhis computes the cached block's φ sequence into the caller's arena,
// if present. The cached slab is row-major digits, so φ per row is one
// Horner fold (Eq. 2.2) — no tuple headers, no copy of the digits
// themselves. Misses are not counted against the cache: the batch pass
// falls through to a stream decode and the tuple path may still hit.
func (c *blockCache) getPhis(id storage.PageID, s *relation.Schema, a *core.Arena) ([]uint64, bool) {
	c.mu.Lock()
	e, ok := c.entries[id]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	c.unlink(e)
	c.pushFront(e)
	vals, count := e.vals, e.count
	c.mu.Unlock()
	// Fold outside the lock: the entry's slab is never mutated after
	// insertion, only replaced wholesale by put.
	n := s.NumAttrs()
	out := a.Phis(count)
	for i := 0; i < count; i++ {
		var phi uint64
		for j, v := range vals[i*n : (i+1)*n] {
			phi = phi*s.Domain(j).Size + v
		}
		out[i] = phi
	}
	return out, true
}

// put stores a slab copy of the freshly decoded block, evicting the least
// recently used entry when full.
func (c *blockCache) put(id storage.PageID, tuples []relation.Tuple, n int) {
	vals := flattenTuples(tuples, n)
	count := len(tuples)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		e.vals, e.count = vals, count
		c.unlink(e)
		c.pushFront(e)
		return
	}
	if len(c.entries) >= c.cap {
		victim := c.tail
		if victim == nil {
			return // cap <= 0: cache disabled
		}
		c.unlink(victim)
		delete(c.entries, victim.id)
	}
	e := &cacheEntry{id: id, count: count, vals: vals}
	c.entries[id] = e
	c.pushFront(e)
}

// invalidate drops the entry for a page, if present.
func (c *blockCache) invalidate(id storage.PageID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		c.unlink(e)
		delete(c.entries, id)
		c.invalidations++
	}
}

// clear empties the cache.
func (c *blockCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[storage.PageID]*cacheEntry, c.cap)
	c.head, c.tail = nil, nil
}
