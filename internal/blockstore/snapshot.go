// Manifest snapshots. The store's block layout — the clustered block
// list and the per-block φ-fences — lives in an immutable manifest
// published through an atomic pointer. The fence array is the paper's
// primary index (Figure 4.4) flattened: blocks are φ-ordered and
// independent, so a binary search over block first/last tuples is the
// whole "which block holds tuple t" structure. Mutations build a fresh
// manifest (copy-on-write over the layout metadata, not the blocks, and
// over only the one chunk of it an edit writes) and publish it in one
// store; readers that need a consistent multi-block view take a
// Snapshot, which pins the manifest AND defers the recycling of any page
// it references until release. The result is the paper's localized-
// access story made concurrent: a long range scan keeps streaming its
// pre-mutation view while inserts and deletes rewrite blocks underneath
// it, and neither waits for the other.
package blockstore

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Fence is a block's φ-range summary, captured at encode time: the first
// and last tuples of the block and its tuple count. Because blocks are
// clustered and non-overlapping, a fence lets a scan decide whether a
// block can intersect a predicate range without touching the pager.
// Every fence in a published manifest is captured from the block's own
// tuples (at encode time, or by Restore's decode), so none is ever unknown.
//
// Restarts is the block's restart directory (core.Restarts), captured
// with the fence, so a partial decode walks from the restart nearest its
// span instead of from the block's anchor; nil for a raw, packed or
// one-tuple block.
type Fence struct {
	First    relation.Tuple
	Last     relation.Tuple
	Count    int
	Restarts *core.Restarts
}

// chunkLen is the manifest's fan-out: the number of (page, fence) entries
// per chunk. An edit's publish copies the chunk-pointer array (n/chunkLen
// words) and the one chunk it writes (chunkLen entries, 68 bytes each);
// 32 copies the fewest bytes below 16k blocks (BenchmarkPublish, DESIGN.md
// §9).
const chunkLen = 32

// chunk holds chunkLen consecutive entries of the clustered block order.
// A published chunk is immutable; an edit writes a copy.
type chunk struct {
	blocks [chunkLen]storage.PageID
	fences [chunkLen]Fence // parallel to blocks
}

// manifest is one immutable version of the store's layout: n blocks in
// clustered order, held in chunks of chunkLen of which every one but the
// last is full, so block i is entry i%chunkLen of chunk i/chunkLen. A
// published manifest and its chunks are never mutated; versions share
// every chunk neither wrote, and fence tuples are shared across versions
// and must not be written through.
type manifest struct {
	n      int
	chunks []*chunk
}

// slot returns the chunk holding block i and i's index in it.
func (m *manifest) slot(i int) (*chunk, int) {
	if uint(i) >= uint(m.n) {
		panic("blockstore: block index out of range")
	}
	return m.chunks[uint(i)/chunkLen], int(uint(i) % chunkLen)
}

// block returns the page of block i.
func (m *manifest) block(i int) storage.PageID {
	c, j := m.slot(i)
	return c.blocks[j]
}

// fence returns block i's φ-fence.
func (m *manifest) fence(i int) Fence {
	c, j := m.slot(i)
	return c.fences[j]
}

// pages returns the pages of every block, in clustered order.
func (m *manifest) pages() []storage.PageID {
	out := make([]storage.PageID, m.n)
	for i := range out {
		out[i] = m.block(i)
	}
	return out
}

// append adds a block at the end of the clustered order, writing the last
// chunk in place: only a manifest no reader has seen may be appended to.
func (m *manifest) append(id storage.PageID, f Fence) {
	j := m.n % chunkLen
	if j == 0 {
		m.chunks = append(m.chunks, new(chunk))
	}
	c := m.chunks[len(m.chunks)-1]
	c.blocks[j], c.fences[j] = id, f
	m.n++
}

// spliced returns a new version of m with the n blocks at position at
// replaced by the given ones; m itself is left as it was. A same-count
// splice — the edit path, one block for one — copies the chunk-pointer
// array and the one chunk it writes. A splice that changes the count
// shifts every later entry, so it keeps the chunks before at's and
// rebuilds the rest.
func (m *manifest) spliced(at, n int, ids []storage.PageID, fences []Fence) *manifest {
	if len(ids) == n {
		out := &manifest{n: m.n, chunks: slices.Clone(m.chunks)}
		for k, id := range ids {
			c, j := out.slot(at + k)
			cp := *c
			cp.blocks[j], cp.fences[j] = id, fences[k]
			out.chunks[uint(at+k)/chunkLen] = &cp
		}
		return out
	}
	first := at / chunkLen * chunkLen
	out := &manifest{n: first, chunks: slices.Clone(m.chunks[:first/chunkLen])}
	for i := first; i < at; i++ {
		out.append(m.block(i), m.fence(i))
	}
	for k, id := range ids {
		out.append(id, fences[k])
	}
	for i := at + n; i < m.n; i++ {
		out.append(m.block(i), m.fence(i))
	}
	return out
}

// search is the one block locate: the position of the first fence for
// which before is false (the block count when it holds for all). before must
// be monotone over the clustered order — true for a prefix, false after.
func (m *manifest) search(before func(Fence) bool) int {
	lo, hi := 0, m.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if before(m.fence(mid)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// seek returns the first block whose Last is >= t: the only block that can
// hold the first tuple >= t, and — because blocks never overlap — the one
// that holds t if any block does.
func (m *manifest) seek(s *relation.Schema, t relation.Tuple) int {
	return m.search(func(f Fence) bool { return s.Compare(f.Last, t) < 0 })
}

// home returns the block an insert of t belongs to: the last block whose
// First is <= t, or block 0 when t precedes everything; -1 when there are
// no blocks.
func (m *manifest) home(s *relation.Schema, t relation.Tuple) int {
	at := m.search(func(f Fence) bool { return s.Compare(f.First, t) <= 0 }) - 1
	if at < 0 && m.n > 0 {
		at = 0
	}
	return at
}

// fenceFor captures a block's fence from its tuple run and its coded
// stream: the ends, the count, and the restart directory.
func (s *Store) fenceFor(tuples []relation.Tuple, stream []byte) (Fence, error) {
	dir, err := core.BlockRestarts(s.schema, stream, tuples)
	return Fence{
		First:    tuples[0].Clone(),
		Last:     tuples[len(tuples)-1].Clone(),
		Count:    len(tuples),
		Restarts: dir,
	}, err
}

// Snapshot is a pinned, immutable view of the store's block layout. While
// any snapshot is live, pages freed by mutations are parked instead of
// returned to the pager, so every page a snapshot references keeps its
// bytes. A snapshot is meant for one goroutine; Release is idempotent but
// not concurrency-safe.
type Snapshot struct {
	s        *Store
	m        *manifest
	released bool
}

// Snapshot pins the current manifest. The caller must Release it;
// until then, pages it references are never recycled.
func (s *Store) Snapshot() *Snapshot {
	s.snapMu.Lock()
	s.snapRefs++
	m := s.man.Load()
	s.snapMu.Unlock()
	s.met.snapshots.Inc()
	s.met.snapshotsLive.Add(1)
	return &Snapshot{s: s, m: m}
}

// Metrics returns the store's pre-resolved executor counters, or nil when
// the store was configured without observability. The streaming executor
// folds its per-pass Stats into them once per pass.
func (sn *Snapshot) Metrics() *ExecMetrics { return sn.s.met.exec }

// Release unpins the snapshot. When the last live snapshot releases, the
// pages parked by intervening mutations are returned to the pager.
func (sn *Snapshot) Release() {
	if sn.released {
		return
	}
	sn.released = true
	s := sn.s
	s.met.snapshotsLive.Add(-1)
	s.snapMu.Lock()
	s.snapRefs--
	var drain []storage.PageID
	if s.snapRefs == 0 && len(s.deferred) > 0 {
		drain = s.deferred
		s.deferred = nil
	}
	s.snapMu.Unlock()
	for _, id := range drain {
		// A failed deferred free leaks one page until the next compaction;
		// there is no caller left to hand the error to.
		s.pool.Free(id)
	}
}

// NumBlocks returns the number of blocks in the snapshot's view.
func (sn *Snapshot) NumBlocks() int { return sn.m.n }

// Block returns the page of the i-th block in clustered order.
func (sn *Snapshot) Block(i int) storage.PageID { return sn.m.block(i) }

// Fence returns the i-th block's φ-fence.
func (sn *Snapshot) Fence(i int) Fence { return sn.m.fence(i) }

// SeekAttr0 returns the position of the first block whose Last has
// attribute 0 >= lo — where the first tuple with A_0 >= lo lives — or
// NumBlocks() when every tuple precedes it. No page is read.
func (sn *Snapshot) SeekAttr0(lo uint64) int {
	return sn.m.search(func(f Fence) bool { return f.Last[0] < lo })
}

// Home returns the position of the block an insert of t would land in:
// the last block whose First is <= t, block 0 when t precedes everything,
// -1 when the snapshot has no blocks.
func (sn *Snapshot) Home(t relation.Tuple) int { return sn.m.home(sn.s.schema, t) }

// Schema returns the store's schema.
func (sn *Snapshot) Schema() *relation.Schema { return sn.s.schema }

// Codec returns the store's block codec.
func (sn *Snapshot) Codec() core.Codec { return sn.s.codec }

// ReadBlock decodes the i-th block from its coded page. After Release it
// fails with ErrSnapshotStale: the pages the snapshot pinned may already
// be recycled.
func (sn *Snapshot) ReadBlock(i int) ([]relation.Tuple, error) {
	return sn.ReadBlockArena(i, nil)
}

// ReadBlockArena is ReadBlock with the decoded tuples carved from the
// caller's arena (a fresh internal one when a is nil). The tuples alias
// the arena's slab and are valid only until its next Reset.
func (sn *Snapshot) ReadBlockArena(i int, a *core.Arena) ([]relation.Tuple, error) {
	if sn.released {
		return nil, fmt.Errorf("%w: ReadBlock(%d)", ErrSnapshotStale, i)
	}
	return sn.s.decodeBlock(sn.m.block(i), a)
}

// ViewStream calls fn on the i-th block's coded stream where it lies, in
// the pinned page's frame, and unpins once fn returns. The stream is valid
// only inside fn (see viewStream): fn decodes what it needs out of it and
// must not call back into the store. After Release it fails with
// ErrSnapshotStale.
func (sn *Snapshot) ViewStream(i int, fn func(stream []byte) error) error {
	if sn.released {
		return fmt.Errorf("%w: block %d", ErrSnapshotStale, i)
	}
	return sn.s.viewStream(sn.m.block(i), fn)
}

// ReadSlab decodes the i-th block into a core.Slab carved from the
// caller's arena — its φ slab on a flat schema, its tuples otherwise
// (core.DecodeBlockSlab) — straight off the coded stream in the pinned
// frame (ViewStream), copying nothing. It is the executor's whole-block
// read.
func (sn *Snapshot) ReadSlab(i int, a *core.Arena) (slab core.Slab, err error) {
	err = sn.ViewStream(i, func(stream []byte) error {
		t0 := sn.s.decodeStart()
		var err error
		slab, err = core.DecodeBlockSlab(sn.s.schema, stream, a)
		sn.s.decodeDone(t0)
		if err != nil {
			return fmt.Errorf("%w: page %d: %w", ErrCorruptBlock, sn.m.block(i), err)
		}
		return nil
	})
	if err != nil {
		return core.Slab{}, err
	}
	return slab, nil
}

// ReadStream copies the i-th block's coded stream off its page, for
// partial decoding without materializing the block. After Release it
// fails with ErrSnapshotStale.
func (sn *Snapshot) ReadStream(i int) ([]byte, error) {
	return sn.ReadStreamInto(i, nil)
}

// ReadStreamInto is ReadStream appending into dst (which may be nil),
// letting per-query buffers absorb the copy across blocks.
func (sn *Snapshot) ReadStreamInto(i int, dst []byte) ([]byte, error) {
	if sn.released {
		return nil, fmt.Errorf("%w: ReadStream(%d)", ErrSnapshotStale, i)
	}
	return sn.s.readStream(sn.m.block(i), dst)
}

// readStream appends a copy of the coded stream stored on page id to dst.
func (s *Store) readStream(id storage.PageID, dst []byte) ([]byte, error) {
	err := s.viewStream(id, func(stream []byte) error {
		dst = append(dst, stream...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// freeAll frees (or parks, while snapshots are live) the given block
// pages, returning the first error.
func (s *Store) freeAll(ids []storage.PageID) error {
	var first error
	for _, id := range ids {
		if err := s.freeBlockPage(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}
