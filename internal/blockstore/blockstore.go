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
// primary index of Figure 4.4), decodes only that block (Figure 4.6), and
// edits its coded stream rather than re-coding it: core.EditBlock splices
// the one or two differences the write changes and copies the rest, to the
// byte the stream a full re-encode writes. A block whose edited stream no
// longer fits its page is split from the tuples of the same decode, and an
// emptied block's page is freed.
//
// The layout metadata lives in an immutable manifest (see snapshot.go):
// a mutation copies only the chunks of it that it changes, publishes the
// new version atomically, and frees replaced pages only after publication —
// and only once no Snapshot still pins them. Readers holding a Snapshot
// therefore stream a consistent pre-mutation view while writers proceed.
package blockstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
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

	// encBuf and homeBuf are the mutation path's reusable stream buffers:
	// the stream a mutation writes and the home block's stream it read.
	// Mutations are serialized by the table layer and the load pipeline
	// encodes into its own per-chunk buffers, so the mutators are their
	// only users.
	encBuf, homeBuf []byte

	// runTuples makes mutations hand back their blocks' tuples in
	// MutationResult (see SetRunTuples).
	runTuples bool

	// viewBuf is the copy a race build's viewStream hands its callback,
	// kept for the next view so a steady-state read allocates nothing
	// there either (see viewCopy); nil while a view holds it.
	viewBuf atomic.Pointer[[]byte]

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
// The table uses it to count the fresh pages its writes cost
// (store.pages_written). fn runs on the mutating goroutine
// with no store locks held and must not mutate the store.
func (s *Store) SetCommitHook(fn func(CommitEvent)) { s.hook = fn }

// SetRunTuples makes every later mutation fill its MutationResult's
// BlockRun.Tuples, which the table needs only to move secondary-index
// postings. Off (the default), a mutation materializes no tuple slice: an
// edit reads its home block as a φ slab (a tuple slab on a non-flat
// schema) in a pooled arena and never leaves it.
func (s *Store) SetRunTuples(on bool) { s.runTuples = on }

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
func (s *Store) NumBlocks() int { return s.man.Load().n }

// FenceBounds reports the attribute-0 span the store's fences cover:
// the clustering order is attribute-0-major, so the first block's First
// and the last block's Last bracket every tuple. ok is false when the
// store is empty.
func (s *Store) FenceBounds() (lo, hi uint64, ok bool) {
	m := s.man.Load()
	if m.n == 0 {
		return 0, 0, false
	}
	return m.fence(0).First[0], m.fence(m.n - 1).Last[0], true
}

// Blocks returns the pages of the store's blocks in clustered order.
func (s *Store) Blocks() []storage.PageID {
	return s.man.Load().pages()
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
// so the caller can rebuild its indexes from the same decode. The tuples
// live in a pooled arena that is reused once visit returns, so visit must
// not retain them. The layout
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
	m := &manifest{}
	var orderErr error
	err := s.scanPages(ctx, blocks, true, func(id storage.PageID, r *scanResult) bool {
		i, tuples, f := m.n, r.tuples, r.fence
		if len(tuples) == 0 {
			orderErr = fmt.Errorf("%w: restored block %d (page %d) is empty", ErrCorruptBlock, i, id)
			return false
		}
		if i > 0 && s.schema.Compare(m.fence(i-1).Last, f.First) > 0 {
			orderErr = fmt.Errorf("%w: restored block %d (page %d) precedes its predecessor in φ order", ErrCorruptBlock, i, id)
			return false
		}
		m.append(id, f)
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
		s.notifyCommit("bulkload", m.n)
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
		s.notifyCommit("bulkload", m.n)
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

// viewStream is the store's one read of a page: it pins page id through
// the pool — a failed read names the page, wrapping the pool's error —
// applies the page framing — a length prefix beyond the page's stream
// capacity is ErrCorruptBlock naming the page — and calls fn on the
// coded stream the page holds, then unpins, joining the unpin's error to
// fn's. stream is the pinned frame's own memory and is valid only inside
// fn: anything fn needs afterwards it copies or decodes out. A race build
// enforces that (poisonViews): fn gets a copy, overwritten with viewPoison
// once fn returns, so a slice kept past the callback decodes to garbage.
func (s *Store) viewStream(id storage.PageID, fn func(stream []byte) error) error {
	frame, err := s.pool.Get(id)
	if err != nil {
		return fmt.Errorf("blockstore: read page %d: %w", id, err)
	}
	data := frame.Data()
	if l := int(binary.BigEndian.Uint32(data[:lenPrefix])); l > s.capacity() {
		err = fmt.Errorf("%w: page %d claims stream of %d bytes", ErrCorruptBlock, id, l)
	} else if poisonViews {
		err = s.viewCopy(data[lenPrefix:lenPrefix+l], fn)
	} else {
		err = fn(data[lenPrefix : lenPrefix+l])
	}
	if uerr := s.pool.Unpin(frame); uerr != nil {
		err = errors.Join(err, uerr)
	}
	return err
}

// viewPoison is the byte a race build's viewStream overwrites its
// callback's copy of the stream with once the callback returns.
const viewPoison = 0xA5

// viewCopy calls fn on a copy of stream and then poisons the copy: the race
// build's half of viewStream. The copy's buffer is reused by the next view.
func (s *Store) viewCopy(stream []byte, fn func([]byte) error) error {
	buf := s.viewBuf.Swap(nil)
	if buf == nil {
		buf = new([]byte)
	}
	c := append((*buf)[:0], stream...)
	err := fn(c)
	for i := range c {
		c[i] = viewPoison
	}
	*buf = c
	s.viewBuf.Store(buf)
	return err
}

// writeStream copies a coded block stream onto a freshly allocated page:
// the length prefix, the stream, and a zeroed tail, so stale bytes from a
// previous, longer block cannot survive on the page. It is the write side
// of viewStream's framing. On failure the page is released again, so an
// unpin error never strands an allocated page outside the block list. The
// load pipeline's committer calls it in chunk order, so page allocation
// order is decided serially even though encoding was not.
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
	tuples, _, err := s.decodePage(id, a, false)
	return tuples, err
}

// decodePage is decodeBlock that, when fence is set, also captures a
// non-empty block's fence from the same decode and the stream on the page
// (Restore's one pass).
func (s *Store) decodePage(id storage.PageID, a *core.Arena, fence bool) (tuples []relation.Tuple, f Fence, err error) {
	err = s.viewStream(id, func(stream []byte) error {
		t0 := s.decodeStart()
		var err error
		tuples, err = core.DecodeBlockArena(s.schema, stream, a)
		s.decodeDone(t0)
		if err == nil && fence && len(tuples) > 0 {
			f, err = s.fenceFor(tuples, stream)
		}
		if err != nil {
			return fmt.Errorf("%w: page %d: %w", ErrCorruptBlock, id, err)
		}
		return nil
	})
	if err != nil {
		return nil, Fence{}, err
	}
	return tuples, f, nil
}

// decodeStart reads the clock for a block decode's latency, unless
// observability is off.
func (s *Store) decodeStart() time.Time {
	if s.met.decodeHist == nil {
		return time.Time{}
	}
	return time.Now()
}

// decodeDone counts a block decode that began at t0 and records its
// latency.
func (s *Store) decodeDone(t0 time.Time) {
	if s.met.decodeHist != nil {
		s.met.decodeHist.Observe(time.Since(t0))
		s.met.decodes.Inc()
	}
}

// BlockRun is one block of a mutation: its page and, with run tuples on,
// the tuples it holds, in φ order. The tuples come from the mutator's own
// decode, handed over so the caller can maintain its indexes without
// reading the block again; they must not be modified.
type BlockRun struct {
	Page   storage.PageID
	Tuples []relation.Tuple
}

// MutationResult reports how an insert, delete or merge changed the block
// layout, so the table layer can maintain its secondary indexes.
type MutationResult struct {
	// Old is the block the mutation replaced, with its pre-image; its Page
	// is storage.InvalidPage when nothing was replaced (a write into an
	// empty store). Old's and New's Tuples are set only with run tuples
	// on (SetRunTuples).
	Old BlockRun
	// New holds the blocks that now cover the affected range, in clustered
	// order: the edited block, or the blocks a split made of it. Empty when
	// the block became empty and was removed.
	New []BlockRun
}

// Insert adds t to its home block — the last block whose first tuple is
// <= t, found on the fence array; a fresh block when the store is empty —
// keeping phi order, editing the block onto a fresh page, and splitting
// it if the coded stream no longer fits (Section 4.2). Duplicates are
// permitted.
func (s *Store) Insert(t relation.Tuple) (MutationResult, error) {
	res, _, err := s.MergeRun([]relation.Tuple{t})
	return res, err
}

// MergeRun merges the longest prefix of a φ-sorted, non-empty batch that
// shares one home block into that block, with one decode and one edit (see
// edit), and reports how many tuples it consumed. Batch insertion calls it
// until the batch is used up.
func (s *Store) MergeRun(batch []relation.Tuple) (res MutationResult, n int, err error) {
	if len(batch) == 0 {
		return MutationResult{}, 0, errors.New("blockstore: merge with no tuples")
	}
	m := s.man.Load()
	at := m.home(s.schema, batch[0])
	n = len(batch)
	if at+1 < m.n {
		// Tuples at or beyond the next block's first belong further on.
		next := m.fence(at + 1).First
		n = sort.Search(len(batch), func(i int) bool { return s.schema.Compare(batch[i], next) >= 0 })
	}
	run := batch[:n]
	if !s.schema.TuplesSorted(run) {
		return MutationResult{}, 0, errors.New("blockstore: merge input not in phi order")
	}
	if at < 0 {
		// An empty store: the run becomes the first blocks.
		res = MutationResult{Old: BlockRun{Page: storage.InvalidPage}}
		if res.New, err = s.writeRuns(m, 0, 0, run); err != nil {
			return MutationResult{}, 0, err
		}
		return res, n, nil
	}
	h, err := s.readHome(m, at)
	if err != nil {
		return MutationResult{}, 0, err
	}
	defer s.releaseHome(h)
	if res, err = s.edit(m, h, core.Edit{Insert: run}); err != nil {
		return MutationResult{}, 0, err
	}
	return res, n, nil
}

// holder returns the one block that can hold t — blocks never overlap, so
// if any block holds t the first whose Last is >= t does — and false when
// the fences already rule t out.
func (m *manifest) holder(s *relation.Schema, t relation.Tuple) (int, bool) {
	at := m.seek(s, t)
	return at, at < m.n && s.Compare(m.fence(at).First, t) <= 0
}

// Contains reports whether t is stored, decoding at most one block. Like
// the mutators it reads the live layout, so the caller must exclude
// concurrent mutation.
func (s *Store) Contains(t relation.Tuple) (bool, error) {
	m := s.man.Load()
	at, ok := m.holder(s.schema, t)
	if !ok {
		return false, nil
	}
	a := core.GetArena()
	defer core.PutArena(a)
	slab, _, err := s.readSlab(m.block(at), a, nil)
	return err == nil && slab.Find(s.schema, t) >= 0, err
}

// Delete removes one occurrence of t from its block with one decode and
// one edit (or frees the block's page when it held nothing else). It
// returns the mutation result and whether the tuple was found.
func (s *Store) Delete(t relation.Tuple) (MutationResult, bool, error) {
	m := s.man.Load()
	at, ok := m.holder(s.schema, t)
	if !ok {
		return MutationResult{}, false, nil
	}
	h, err := s.readHome(m, at)
	if err != nil {
		return MutationResult{}, false, err
	}
	defer s.releaseHome(h)
	idx := h.slab.Find(s.schema, t)
	if idx < 0 {
		return MutationResult{}, false, nil
	}
	res, err := s.edit(m, h, core.Edit{Delete: idx})
	if err != nil {
		return MutationResult{}, false, err
	}
	return res, true, nil
}

// homeBlock is the block a mutation edits, decoded once: its position,
// its coded stream (in homeBuf) and its slab — the φ sequence on a flat
// schema, the tuples otherwise. The slab's arena is pooled unless run
// tuples are on, in which case the tuples carved from it go to the caller.
type homeBlock struct {
	at     int
	stream []byte
	slab   core.Slab
	arena  *core.Arena
}

// readHome reads and decodes the block at position at of m for a mutation.
func (s *Store) readHome(m *manifest, at int) (*homeBlock, error) {
	h := &homeBlock{at: at}
	if s.runTuples {
		h.arena = core.NewArena()
	} else {
		h.arena = core.GetArena()
	}
	var err error
	h.slab, h.stream, err = s.readSlab(m.block(at), h.arena, s.homeBuf)
	s.homeBuf = h.stream
	if err != nil {
		s.releaseHome(h)
		return nil, err
	}
	return h, nil
}

// releaseHome returns a home block's pooled arena.
func (s *Store) releaseHome(h *homeBlock) {
	if !s.runTuples {
		core.PutArena(h.arena)
	}
}

// readSlab copies the coded stream on page id into buf and decodes it
// into arena a (core.DecodeBlockSlab), with every check of a full decode.
func (s *Store) readSlab(id storage.PageID, a *core.Arena, buf []byte) (core.Slab, []byte, error) {
	stream, err := s.readStream(id, buf[:0])
	if err != nil {
		return core.Slab{}, buf, err
	}
	t0 := s.decodeStart()
	slab, err := core.DecodeBlockSlab(s.schema, stream, a)
	s.decodeDone(t0)
	if err != nil {
		return core.Slab{}, stream, fmt.Errorf("%w: page %d: %w", ErrCorruptBlock, id, err)
	}
	return slab, stream, nil
}

// edit applies e to the home block h of cur, copy-on-write: when the edited
// run's stream fits a page it is core.EditBlock's — byte-identical to
// re-encoding the run, at the cost of one stream copy — and otherwise the
// run is split by packRuns, from tuples recovered out of the same decode.
// A delete of a block's last tuple removes the block.
func (s *Store) edit(cur *manifest, h *homeBlock, e core.Edit) (MutationResult, error) {
	res := MutationResult{Old: BlockRun{Page: cur.block(h.at)}}
	emptied := len(e.Insert) == 0 && h.slab.Len() == 1
	var stream []byte
	fits := false
	if !emptied {
		var err error
		if stream, fits, err = core.EditBlock(s.schema, h.stream, h.slab, e, s.capacity(), s.encBuf[:0]); err != nil {
			return MutationResult{}, err
		}
	}
	var edited []relation.Tuple
	if s.runTuples || !fits {
		old := h.slab.Materialize(s.schema, h.arena)
		edited = e.Apply(s.schema, old)
		if s.runTuples {
			res.Old.Tuples = old
		}
	}
	if !fits {
		var err error
		if res.New, err = s.writeRuns(cur, h.at, 1, edited); err != nil {
			return MutationResult{}, err
		}
		return res, nil
	}
	s.encBuf = stream
	f := editedFence(s.schema, cur.fence(h.at), h.slab, e)
	var err error
	if f.Restarts, err = core.EditRestarts(s.schema, stream, h.slab, e); err != nil {
		return MutationResult{}, err
	}
	s.met.edits.Inc()
	id, err := s.writeStream(stream)
	if err != nil {
		return MutationResult{}, err
	}
	res.New = []BlockRun{{Page: id, Tuples: edited}}
	return res, s.publish(cur, h.at, 1, []storage.PageID{id}, []Fence{f})
}

// editedFence is a block's fence after edit e, from its fence before and
// the edit's ends: only an insert below the first tuple or above the last,
// or a delete of either, moves one.
func editedFence(sch *relation.Schema, f Fence, slab core.Slab, e core.Edit) Fence {
	u := slab.Len()
	if ins := e.Insert; len(ins) > 0 {
		f.Count += len(ins)
		if slab.Search(sch, ins[0]) == 0 {
			f.First = ins[0].Clone()
		}
		if slab.Search(sch, ins[len(ins)-1]) == u {
			f.Last = ins[len(ins)-1].Clone()
		}
		return f
	}
	f.Count--
	if e.Delete == 0 {
		f.First = slab.At(sch, 1)
	}
	if e.Delete == u-1 {
		f.Last = slab.At(sch, u-2)
	}
	return f
}

// writeRuns codes tuples onto fresh pages (copy-on-write), splitting them
// into as many blocks as the page capacity demands (packRuns), in place of
// the replaced (0 or 1) blocks at position at of cur, and publishes the
// result; no tuples removes the block. It returns the new blocks, with
// their tuples when run tuples are on.
func (s *Store) writeRuns(cur *manifest, at, replaced int, tuples []relation.Tuple) ([]BlockRun, error) {
	runs, err := s.packRuns(tuples)
	if err != nil {
		return nil, err
	}
	out := make([]BlockRun, len(runs))
	ids := make([]storage.PageID, len(runs))
	fences := make([]Fence, len(runs))
	for i, run := range runs {
		id, f, err := s.writeFresh(run)
		if err != nil {
			// Roll back the runs already written: they are not in any
			// published manifest, and leaving them allocated would strand
			// their pages forever. The original block is untouched, so the
			// store stays exactly as it was.
			for _, written := range ids[:i] {
				s.freePageBestEffort(written)
			}
			return nil, err
		}
		ids[i], fences[i] = id, f
		out[i].Page = id
		if s.runTuples {
			out[i].Tuples = run
		}
	}
	return out, s.publish(cur, at, replaced, ids, fences)
}

// publish splices the freshly written blocks ids, with their fences, in
// place of the replaced (0 or 1) blocks at position at of cur, publishes
// the edited manifest, and frees the replaced page. The original page is
// freed only after publication — and only once no snapshot pins it — so a
// crash between catalog checkpoints can never clobber a block the last
// durable catalog references, and concurrent snapshot readers keep a
// consistent pre-rewrite view.
func (s *Store) publish(cur *manifest, at, replaced int, ids []storage.PageID, fences []Fence) error {
	s.man.Store(cur.spliced(at, replaced, ids, fences))
	kind := "rewrite"
	switch {
	case len(ids) == 0:
		kind = "remove"
	case len(ids) > 1:
		kind = "split"
	}
	s.notifyCommit(kind, len(ids))
	if replaced == 1 {
		return s.freeBlockPage(cur.block(at))
	}
	return nil
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
// allocated page and returns it with the block's fence. writeStream copies
// the stream onto the page before the buffer is touched again, so reusing
// its capacity across mutations is safe.
func (s *Store) writeFresh(tuples []relation.Tuple) (storage.PageID, Fence, error) {
	stream, err := s.timeEncode(tuples, s.encBuf[:0])
	if err != nil {
		return 0, Fence{}, err
	}
	s.encBuf = stream
	f, err := s.fenceFor(tuples, stream)
	if err != nil {
		return 0, Fence{}, err
	}
	id, err := s.writeStream(stream)
	return id, f, err
}

// freePageBestEffort returns an orphaned page (allocated but never
// published in any manifest) to the pager on an error path. Such a page
// was never visible to a snapshot, so it is freed immediately.
func (s *Store) freePageBestEffort(id storage.PageID) {
	s.pool.Free(id)
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
	return s.freeAll(old.pages())
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
	return s.scanPages(ctx, sn.m.pages(), false, func(id storage.PageID, r *scanResult) bool { return fn(id, r.tuples) })
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
func (s *Store) inspectBlock(id storage.PageID) (info core.BlockInfo, err error) {
	err = s.viewStream(id, func(stream []byte) error {
		var err error
		if info, err = core.Inspect(stream); err != nil {
			return fmt.Errorf("%w: page %d: %w", ErrCorruptBlock, id, err)
		}
		return nil
	})
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
	var prevLast relation.Tuple
	for i, id := range m.pages() {
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
		f := m.fence(i)
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
