// Package blockstore stores a phi-clustered relation as a sequence of
// coded disk blocks (Sections 3.3-3.4 and 4.2 of the paper).
//
// The store is parameterized by a core.Codec: with CodecAVQ it is the
// paper's compressed store, with CodecRaw it is the "No coding" baseline,
// and with CodecPacked it is the bit-packed extension. Everything else —
// packing, block splits, localized insert and delete — is identical across
// codecs, so the evaluation compares representations, not different
// engines.
//
// Each page holds one coded block: a 4-byte big-endian stream length
// followed by the core block stream. Tuples within a block are in phi
// order, and the ordered block list is the clustered order of the relation.
// Insertion and deletion are tuple-addressed: the store finds the home
// block by binary search over the manifest's fence array (the flattened
// primary index of Figure 4.4), then decodes, modifies, and re-encodes only
// that block (Figure 4.6); a block whose re-coded stream no longer fits its
// page is split, and an emptied block's page is freed.
//
// The layout metadata lives in an immutable manifest (see snapshot.go):
// mutations clone it, edit the clone, and publish it atomically, freeing
// replaced pages only after publication — and only once no Snapshot still
// pins them. Readers holding a Snapshot therefore stream a consistent
// pre-mutation view while writers proceed.
package blockstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

// lenPrefix is the page-header overhead: the coded stream length.
const lenPrefix = 4

// Errors returned by the store.
var (
	// ErrCorruptBlock marks a block whose on-page bytes cannot be decoded:
	// an impossible stream length, a checksum mismatch, or a malformed
	// coded stream. It wraps the detailed cause; dispatch with errors.Is.
	ErrCorruptBlock = errors.New("blockstore: corrupt block")
	// ErrSnapshotStale is returned by reads through a Snapshot after its
	// Release: the pages it referenced may already be recycled.
	ErrSnapshotStale = errors.New("blockstore: snapshot used after release")
)

// BlockRef describes one bulk-loaded data block: its page, its first
// (smallest) tuple, and its tuple count.
type BlockRef struct {
	Page  storage.PageID
	First relation.Tuple
	Count int
}

// Store is a clustered, coded block store. It is not safe for concurrent
// mutation; the table layer serializes mutations. Readers are safe
// concurrently with a mutation when they hold a Snapshot (or go through
// ScanBlocks/ComputeStats, which take one internally).
type Store struct {
	schema *relation.Schema
	codec  core.Codec
	pool   *buffer.Pool

	// man is the current published manifest: block list and φ-fences.
	// Mutators clone-edit-publish; readers Load.
	man atomic.Pointer[manifest]

	// Snapshot accounting: while snapRefs > 0, pages freed by mutations
	// are parked in deferred instead of returned to the pager.
	snapMu   sync.Mutex
	snapRefs int
	deferred []storage.PageID

	// workers is the codec pipeline's worker count (see pipeline.go):
	// runtime.GOMAXPROCS(0) when the store is created.
	workers int

	// met holds pre-resolved obs instruments (see SetObs); the zero value
	// means observability is off and every instrument no-ops.
	met storeMetrics

	// encBuf is the mutation path's reusable stream buffer. Mutations are
	// serialized by the table layer and the load pipeline encodes into its
	// own per-chunk buffers, so writeFresh is the only writer.
	encBuf []byte

	// hook, when set, observes every manifest publication on the mutation
	// path (see SetCommitHook). Called by the single mutator, after the
	// publish, so implementations see the post-commit state.
	hook func(CommitEvent)
}

// CommitEvent describes one manifest publication on the mutation path.
type CommitEvent struct {
	// Kind is the publication source: "rewrite", "split", "remove",
	// "bulkload", or "reset".
	Kind string
	// Pages is the number of freshly written data pages the publication
	// introduced (0 for removals and resets).
	Pages int
}

// SetCommitHook registers fn to run after every manifest publication made
// by a mutation (rewrite, split, empty-block removal, bulk load, reset).
// The WAL-enabled table uses it to account page commits against the log;
// observability layers can count them. fn runs on the mutating goroutine
// with no store locks held and must not mutate the store.
func (s *Store) SetCommitHook(fn func(CommitEvent)) { s.hook = fn }

// notifyCommit invokes the commit hook if one is registered.
func (s *Store) notifyCommit(kind string, pages int) {
	if s.hook != nil {
		s.hook(CommitEvent{Kind: kind, Pages: pages})
	}
}

// LiveSnapshots returns the number of unreleased snapshots — zero in a
// quiescent store; crash and cancellation tests assert no leaks.
func (s *Store) LiveSnapshots() int {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapRefs
}

// New creates an empty store over the pool.
func New(schema *relation.Schema, codec core.Codec, pool *buffer.Pool) (*Store, error) {
	if !codec.Valid() {
		return nil, fmt.Errorf("blockstore: %w: %d", core.ErrBadCodec, uint8(codec))
	}
	if schema.RowSize()+lenPrefix > pool.PageSize() {
		return nil, core.ErrTupleTooLarge
	}
	s := &Store{
		schema:  schema,
		codec:   codec,
		pool:    pool,
		workers: runtime.GOMAXPROCS(0),
	}
	s.man.Store(&manifest{})
	return s, nil
}

// Schema returns the store's schema.
func (s *Store) Schema() *relation.Schema { return s.schema }

// Codec returns the store's block codec.
func (s *Store) Codec() core.Codec { return s.codec }

// NumBlocks returns the number of data blocks.
func (s *Store) NumBlocks() int { return len(s.man.Load().blocks) }

// FenceBounds reports the attribute-0 span the store's fences cover:
// the clustering order is attribute-0-major, so the first block's First
// and the last block's Last bracket every tuple. ok is false when the
// store is empty.
func (s *Store) FenceBounds() (lo, hi uint64, ok bool) {
	m := s.man.Load()
	if len(m.fences) == 0 {
		return 0, 0, false
	}
	return m.fences[0].First[0], m.fences[len(m.fences)-1].Last[0], true
}

// Blocks returns the pages of the store's blocks in clustered order.
func (s *Store) Blocks() []storage.PageID {
	m := s.man.Load()
	out := make([]storage.PageID, len(m.blocks))
	copy(out, m.blocks)
	return out
}

// StreamCapacity is the usable coded-stream capacity of a page of
// pageSize bytes: the page less its stream-length prefix.
func StreamCapacity(pageSize int) int { return pageSize - lenPrefix }

// capacity is the usable coded-stream capacity of a page.
func (s *Store) capacity() int { return StreamCapacity(s.pool.PageSize()) }

// Restore adopts an existing block layout whose pages are already
// populated in the pool's pager, without rewriting anything. Opening a
// persistent table uses it to rebuild the store from the catalog's block
// list. It decodes every block once on the scan pipeline, captures the
// fences itself, and offers each block's tuples to visit in clustered order
// so the caller can rebuild its indexes from the same decode. The layout
// is published only if the store is empty, the page ids are distinct, and
// the decoded blocks are non-empty and in φ order — the block list comes
// from a file, and a manifest the fence search cannot trust is never
// published.
func (s *Store) Restore(ctx context.Context, blocks []storage.PageID, visit func(id storage.PageID, tuples []relation.Tuple)) error {
	if s.NumBlocks() != 0 {
		return errors.New("blockstore: restore into non-empty store")
	}
	seen := make(map[storage.PageID]struct{}, len(blocks))
	for _, id := range blocks {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("blockstore: duplicate page %d in restored layout", id)
		}
		seen[id] = struct{}{}
	}
	m := &manifest{blocks: slices.Clone(blocks), fences: make([]Fence, 0, len(blocks))}
	var orderErr error
	err := s.scanManifest(ctx, m, func(id storage.PageID, tuples []relation.Tuple) bool {
		i := len(m.fences)
		if len(tuples) == 0 {
			orderErr = fmt.Errorf("%w: restored block %d (page %d) is empty", ErrCorruptBlock, i, id)
			return false
		}
		f := fenceFor(tuples)
		if i > 0 && s.schema.Compare(m.fences[i-1].Last, f.First) > 0 {
			orderErr = fmt.Errorf("%w: restored block %d (page %d) precedes its predecessor in φ order", ErrCorruptBlock, i, id)
			return false
		}
		m.fences = append(m.fences, f)
		visit(id, tuples)
		return true
	})
	if err == nil {
		err = orderErr
	}
	if err != nil {
		return err
	}
	s.man.Store(m)
	return nil
}

// BulkLoadContext fills the empty store with the given tuples, which must
// already be sorted in phi order (use Schema.SortTuples). Blocks are packed
// greedily to the page capacity by core.Sizer.Chunk, the paper's "minimize
// unused space" rule, and coded on the pipeline (pipeline.go). It returns a
// BlockRef per block, in clustered order. The new layout is published once
// at the end, so concurrent snapshot readers see either the empty store or
// the complete load. Cancellation is honored at block boundaries, so a
// cancelled load stops before the next page write with no frames pinned.
// Pages already written stay tracked by the published partial manifest, so
// Reset can reclaim them.
func (s *Store) BulkLoadContext(ctx context.Context, tuples []relation.Tuple) ([]BlockRef, error) {
	if !s.schema.TuplesSorted(tuples) {
		return nil, errors.New("blockstore: bulk load input not in phi order")
	}
	if s.NumBlocks() != 0 {
		return nil, errors.New("blockstore: bulk load into non-empty store")
	}
	m := &manifest{}
	// Publish even on error so pages written before the failure stay
	// tracked by the store (Reset can then free them) instead of leaking.
	defer func() {
		s.man.Store(m)
		s.notifyCommit("bulkload", len(m.blocks))
	}()
	refs, _, _, err := s.loadWindow(ctx, m, tuples, true)
	if err != nil {
		return nil, err
	}
	return refs, nil
}

// streamWindow is the stream loader's initial window in tuples: enough
// headroom that the chunker usually sees past one full block. A window
// holding no complete block is doubled. Tests shrink it to force that.
var streamWindow = 4096

// BulkLoadStreamContext is BulkLoadContext for sources too large to
// materialize: it pulls phi-ordered tuples from next (which returns
// ok=false when dry) and packs blocks incrementally, holding only a small
// buffering window in memory. Used with the external sorter it loads
// relations of any size. Cancellation is checked once per window before
// the next pull-and-pack round, so an abandoned stream load stops without
// pinned frames; the partial manifest is published for Reset to reclaim.
func (s *Store) BulkLoadStreamContext(ctx context.Context, next func() (relation.Tuple, bool, error)) ([]BlockRef, error) {
	if s.NumBlocks() != 0 {
		return nil, errors.New("blockstore: bulk load into non-empty store")
	}
	m := &manifest{}
	defer func() {
		s.man.Store(m)
		s.notifyCommit("bulkload", len(m.blocks))
	}()
	var refs []BlockRef
	var window []relation.Tuple
	var prev relation.Tuple
	dry := false
	highWater := streamWindow
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for !dry && len(window) < highWater {
			tu, ok, err := next()
			if err != nil {
				return nil, err
			}
			if !ok {
				dry = true
				break
			}
			if prev != nil && s.schema.Compare(prev, tu) > 0 {
				return nil, errors.New("blockstore: stream not in phi order")
			}
			prev = tu.Clone()
			window = append(window, tu.Clone())
		}
		if len(window) == 0 {
			return refs, nil
		}
		newRefs, tail, grown, err := s.loadWindow(ctx, m, window, dry)
		if err != nil {
			return nil, err
		}
		if grown {
			// The lone block could still grow; widen the window and refill.
			highWater *= 2
			continue
		}
		refs = append(refs, newRefs...)
		window = append(window[:0], tail...)
	}
}

// writeStream copies a coded block stream onto a freshly allocated page:
// the length prefix, the stream, and a zeroed tail, so stale bytes from a
// previous, longer block cannot survive on the page. On failure the page
// is released again, so an unpin error never strands an allocated page
// outside the block list. The load pipeline's committer calls it in chunk
// order, so page allocation order is decided serially even though
// encoding was not.
func (s *Store) writeStream(stream []byte) (storage.PageID, error) {
	if len(stream) > s.capacity() {
		return 0, fmt.Errorf("blockstore: coded stream %d bytes exceeds page capacity %d", len(stream), s.capacity())
	}
	frame, err := s.pool.Allocate()
	if err != nil {
		return 0, err
	}
	data := frame.Data()
	binary.BigEndian.PutUint32(data[:lenPrefix], uint32(len(stream)))
	copy(data[lenPrefix:], stream)
	clear(data[lenPrefix+len(stream):])
	frame.MarkDirty()
	id := frame.ID()
	if err := s.pool.Unpin(frame); err != nil {
		s.freePageBestEffort(id)
		return 0, err
	}
	return id, nil
}

// decodeBlock decodes the block on page id from its coded page in the
// buffer pool — the only block cache — into arena a (a fresh one when a
// is nil). The tuples alias the arena and are the caller's until its next
// Reset.
func (s *Store) decodeBlock(id storage.PageID, a *core.Arena) ([]relation.Tuple, error) {
	frame, err := s.pool.Get(id)
	if err != nil {
		return nil, err
	}
	defer s.pool.Unpin(frame)
	data := frame.Data()
	l := binary.BigEndian.Uint32(data[:lenPrefix])
	if int(l) > s.capacity() {
		return nil, fmt.Errorf("%w: page %d claims stream of %d bytes", ErrCorruptBlock, id, l)
	}
	var t0 time.Time
	if s.met.decodeHist != nil {
		t0 = time.Now()
	}
	tuples, err := core.DecodeBlockArena(s.schema, data[lenPrefix:lenPrefix+int(l)], a)
	if s.met.decodeHist != nil {
		s.met.decodeHist.Observe(time.Since(t0))
		s.met.decodes.Inc()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: page %d: %w", ErrCorruptBlock, id, err)
	}
	return tuples, nil
}

// BlockRun is one block of a mutation: its page and the tuples it holds,
// in φ order. The tuples are the mutator's own decode (or the run it just
// encoded), handed over so the caller can maintain its indexes without
// reading the block again; they must not be modified.
type BlockRun struct {
	Page   storage.PageID
	Tuples []relation.Tuple
}

// MutationResult reports how an insert, delete or merge changed the block
// layout, so the table layer can maintain its secondary indexes.
type MutationResult struct {
	// Old is the block the mutation replaced, with its pre-image. Its
	// Tuples are nil when nothing was replaced (a write into an empty
	// store).
	Old BlockRun
	// New holds the blocks that now cover the affected range, in clustered
	// order: the re-coded block, plus any created by a split. Empty when
	// the block became empty and was removed.
	New []BlockRun
}

// Insert adds t to its home block — the last block whose first tuple is
// <= t, found on the fence array; a fresh block when the store is empty —
// keeping phi order, re-coding the block onto a fresh page, and splitting
// it if the coded stream no longer fits (Section 4.2). Duplicates are
// permitted.
func (s *Store) Insert(t relation.Tuple) (MutationResult, error) {
	res, _, err := s.MergeRun([]relation.Tuple{t})
	return res, err
}

// MergeRun merges the longest prefix of a φ-sorted, non-empty batch that
// shares one home block into that block, with one decode and one
// re-encode, and reports how many tuples it consumed. Batch insertion
// calls it until the batch is used up.
func (s *Store) MergeRun(batch []relation.Tuple) (res MutationResult, n int, err error) {
	if len(batch) == 0 {
		return MutationResult{}, 0, errors.New("blockstore: merge with no tuples")
	}
	m := s.man.Load()
	at := m.home(s.schema, batch[0])
	n = len(batch)
	if at+1 < len(m.fences) {
		// Tuples at or beyond the next block's first belong further on.
		next := m.fences[at+1].First
		n = sort.Search(len(batch), func(i int) bool { return s.schema.Compare(batch[i], next) >= 0 })
	}
	run := batch[:n]
	if !s.schema.TuplesSorted(run) {
		return MutationResult{}, 0, errors.New("blockstore: merge input not in phi order")
	}
	var old []relation.Tuple
	if at < 0 {
		at = 0
	} else if old, err = s.decodeBlock(m.blocks[at], nil); err != nil {
		return MutationResult{}, 0, err
	}
	// Each run tuple goes after the last stored tuple <= it, so duplicates
	// stay adjacent and a single insert costs one binary search.
	merged := make([]relation.Tuple, 0, len(old)+len(run))
	rest := old
	for _, tu := range run {
		k := sort.Search(len(rest), func(i int) bool { return s.schema.Compare(rest[i], tu) > 0 })
		merged = append(append(merged, rest[:k]...), tu)
		rest = rest[k:]
	}
	merged = append(merged, rest...)
	res, err = s.replace(m, at, old, merged)
	if err != nil {
		return MutationResult{}, 0, err
	}
	return res, n, nil
}

// find locates t without trusting the caller for a block: blocks never
// overlap, so if any block holds t the first block whose Last is >= t
// does. It returns that block's position, its decoded tuples, and the
// index of t's first occurrence in them (-1 when t is absent, in which
// case no block may have been decoded).
func (s *Store) find(m *manifest, t relation.Tuple) (at int, tuples []relation.Tuple, idx int, err error) {
	at = m.seek(s.schema, t)
	if at == len(m.fences) || s.schema.Compare(m.fences[at].First, t) > 0 {
		return at, nil, -1, nil
	}
	if tuples, err = s.decodeBlock(m.blocks[at], nil); err != nil {
		return at, nil, -1, err
	}
	idx = sort.Search(len(tuples), func(i int) bool { return s.schema.Compare(tuples[i], t) >= 0 })
	if idx == len(tuples) || s.schema.Compare(tuples[idx], t) != 0 {
		idx = -1
	}
	return at, tuples, idx, nil
}

// Contains reports whether t is stored, decoding at most one block. Like
// the mutators it reads the live layout, so the caller must exclude
// concurrent mutation.
func (s *Store) Contains(t relation.Tuple) (bool, error) {
	_, _, idx, err := s.find(s.man.Load(), t)
	return idx >= 0, err
}

// Delete removes one occurrence of t, re-coding its block (or freeing the
// block's page when it held nothing else). It returns the mutation result
// and whether the tuple was found.
func (s *Store) Delete(t relation.Tuple) (MutationResult, bool, error) {
	m := s.man.Load()
	at, old, idx, err := s.find(m, t)
	if err != nil || idx < 0 {
		return MutationResult{}, false, err
	}
	res, err := s.replace(m, at, old, slices.Delete(slices.Clone(old), idx, idx+1))
	if err != nil {
		return MutationResult{}, false, err
	}
	return res, true, nil
}

// replace re-codes tuples onto fresh pages (copy-on-write) in place of the
// block at position at whose decoded pre-image is old — or, when old is
// nil, as new blocks inserted at that position — splitting into as many
// blocks as the page capacity demands, then publishes the edited manifest
// and frees the replaced page. An empty tuples removes the block. The
// original page is freed only after publication — and only once no
// snapshot pins it — so a crash between catalog checkpoints can never
// clobber a block the last durable catalog references, and concurrent
// snapshot readers keep a consistent pre-rewrite view.
func (s *Store) replace(cur *manifest, at int, old, tuples []relation.Tuple) (MutationResult, error) {
	runs, err := s.packRuns(tuples)
	if err != nil {
		return MutationResult{}, err
	}
	res := MutationResult{New: make([]BlockRun, len(runs))}
	ids := make([]storage.PageID, len(runs))
	fences := make([]Fence, len(runs))
	for i, run := range runs {
		id, err := s.writeFresh(run)
		if err != nil {
			// Roll back the runs already written: they are not in any
			// published manifest, and leaving them allocated would strand
			// their pages forever. The original block is untouched, so the
			// store stays exactly as it was.
			for _, written := range ids[:i] {
				s.freePageBestEffort(written)
			}
			return MutationResult{}, err
		}
		ids[i], fences[i] = id, fenceFor(run)
		res.New[i] = BlockRun{Page: id, Tuples: run}
	}
	replaced := 0
	if old != nil {
		replaced = 1
		res.Old = BlockRun{Page: cur.blocks[at], Tuples: old}
	}
	m := cur.clone()
	m.splice(at, replaced, ids, fences)
	s.man.Store(m)
	kind := "rewrite"
	switch {
	case len(runs) == 0:
		kind = "remove"
	case len(runs) > 1:
		kind = "split"
	}
	s.notifyCommit(kind, len(ids))
	if replaced == 1 {
		if err := s.freeBlockPage(res.Old.Page); err != nil {
			return MutationResult{}, err
		}
	}
	return res, nil
}

// packRuns cuts a φ-sorted run into the blocks it needs: itself when its
// coded stream fits a page; otherwise an even split (half the tuples per
// side, so both halves retain insertion slack) when both halves fit, and
// the greedy chunker's runs when a half still overflows. No tuples, no
// blocks.
func (s *Store) packRuns(tuples []relation.Tuple) ([][]relation.Tuple, error) {
	if len(tuples) == 0 {
		return nil, nil
	}
	fits := func(run []relation.Tuple) (bool, error) {
		size, err := core.EncodedSize(s.codec, s.schema, run)
		return size <= s.capacity(), err
	}
	if ok, err := fits(tuples); err != nil || ok {
		return [][]relation.Tuple{tuples}, err
	}
	if half := len(tuples) / 2; half > 0 {
		left, err := fits(tuples[:half])
		if err != nil {
			return nil, err
		}
		right, err := fits(tuples[half:])
		if err != nil {
			return nil, err
		}
		if left && right {
			return [][]relation.Tuple{tuples[:half], tuples[half:]}, nil
		}
	}
	runs, _, err := core.Pack(s.codec, s.schema, tuples, s.capacity())
	return runs, err
}

// writeFresh codes tuples through the store's encode buffer onto a newly
// allocated page and returns it. writeStream copies the stream onto the
// page before the buffer is touched again, so reusing its capacity across
// mutations is safe.
func (s *Store) writeFresh(tuples []relation.Tuple) (storage.PageID, error) {
	stream, err := s.timeEncode(tuples, s.encBuf[:0])
	if err != nil {
		return 0, err
	}
	s.encBuf = stream
	return s.writeStream(stream)
}

// freePageBestEffort returns an orphaned page (allocated but never
// published in any manifest) to the pager on an error path. Such a page
// was never visible to a snapshot, so it is freed immediately.
func (s *Store) freePageBestEffort(id storage.PageID) {
	s.pool.Free(id) //avqlint:ignore droppederr best-effort rollback on a path already returning the primary error
}

// freeBlockPage frees a page that held a published block. While snapshots
// are live the free is parked: a snapshot may still read the page.
func (s *Store) freeBlockPage(id storage.PageID) error {
	s.snapMu.Lock()
	if s.snapRefs > 0 {
		s.deferred = append(s.deferred, id)
		s.snapMu.Unlock()
		return nil
	}
	s.snapMu.Unlock()
	return s.pool.Free(id)
}

// Reset frees every block page and empties the store, leaving it ready for
// a fresh BulkLoad. Compaction uses it to tear down the old layout.
func (s *Store) Reset() error {
	old := s.man.Load()
	s.man.Store(&manifest{})
	s.notifyCommit("reset", 0)
	return s.freeAll(old.blocks)
}

// ScanBlocksContext visits every block in clustered order, decoding each.
// fn returning false stops the scan. Blocks are prefetched and decoded on
// the pipeline's workers, but fn observes them strictly in clustered
// order, one at a time. The scan holds a Snapshot for its duration, so it
// streams a consistent view even while another goroutine mutates the
// store. Cancellation is checked at every block boundary, and in-flight
// decodes are drained, so an aborted scan returns with no frames pinned.
func (s *Store) ScanBlocksContext(ctx context.Context, fn func(id storage.PageID, tuples []relation.Tuple) bool) error {
	sn := s.Snapshot()
	defer sn.Release()
	return s.scanManifest(ctx, sn.m, fn)
}

// Stats summarizes the store's physical layout.
type Stats struct {
	Blocks       int
	Tuples       int
	StreamBytes  int // total coded bytes, excluding page padding
	PageBytes    int // Blocks * page size: what the relation occupies on disk
	RawDataBytes int // Tuples * RowSize: the uncoded fixed-width size
}

// CompressionRatio returns 1 - coded/uncoded over page-granular sizes; the
// paper's "percentage reduction in size" (Figure 5.7) is 100 times this.
func (st Stats) CompressionRatio() float64 {
	if st.RawDataBytes == 0 {
		return 0
	}
	return 1 - float64(st.PageBytes)/float64(st.RawDataBytes)
}

// StreamSavingsPercent returns the coded-stream size reduction as a
// percentage of the uncoded size, 0 for an empty relation. Tools report
// it; the guard keeps an empty store from printing NaN.
func (st Stats) StreamSavingsPercent() float64 {
	if st.RawDataBytes == 0 {
		return 0
	}
	return 100 * (1 - float64(st.StreamBytes)/float64(st.RawDataBytes))
}

// inspectBlock validates one block's stream header without decoding it.
func (s *Store) inspectBlock(id storage.PageID) (core.BlockInfo, error) {
	frame, err := s.pool.Get(id)
	if err != nil {
		return core.BlockInfo{}, err
	}
	data := frame.Data()
	l := int(binary.BigEndian.Uint32(data[:lenPrefix]))
	var info core.BlockInfo
	if l > s.capacity() {
		err = fmt.Errorf("%w: page %d claims stream of %d bytes", ErrCorruptBlock, id, l)
	} else if info, err = core.Inspect(data[lenPrefix : lenPrefix+l]); err != nil {
		err = fmt.Errorf("%w: page %d: %w", ErrCorruptBlock, id, err)
	}
	if uerr := s.pool.Unpin(frame); err == nil {
		err = uerr
	}
	if err != nil {
		return core.BlockInfo{}, err
	}
	return info, nil
}

// CheckInvariants verifies the clustered layout: every block decodes,
// blocks are non-empty and internally sorted, block boundaries respect phi
// order, and every φ-fence agrees with the decoded block it summarizes.
// Tests and the avqtool verify command use it.
func (s *Store) CheckInvariants() error {
	m := s.man.Load()
	if len(m.fences) != len(m.blocks) {
		return fmt.Errorf("blockstore: %d fences for %d blocks", len(m.fences), len(m.blocks))
	}
	var prevLast relation.Tuple
	for i, id := range m.blocks {
		tuples, err := s.decodeBlock(id, nil)
		if err != nil {
			return fmt.Errorf("blockstore: block %d: %w", i, err)
		}
		if len(tuples) == 0 {
			return fmt.Errorf("blockstore: block %d is empty", i)
		}
		if !s.schema.TuplesSorted(tuples) {
			return fmt.Errorf("blockstore: block %d not phi-sorted", i)
		}
		if prevLast != nil && s.schema.Compare(prevLast, tuples[0]) > 0 {
			return fmt.Errorf("blockstore: block %d overlaps predecessor", i)
		}
		prevLast = tuples[len(tuples)-1]
		f := m.fences[i]
		if f.Count != len(tuples) {
			return fmt.Errorf("blockstore: block %d fence count %d, %d decoded", i, f.Count, len(tuples))
		}
		if s.schema.Compare(f.First, tuples[0]) != 0 {
			return fmt.Errorf("blockstore: block %d fence first tuple disagrees with block", i)
		}
		if s.schema.Compare(f.Last, tuples[len(tuples)-1]) != 0 {
			return fmt.Errorf("blockstore: block %d fence last tuple disagrees with block", i)
		}
	}
	return nil
}
