// Package table ties the substrates into a relational table with the
// paper's access structure (Section 4): a phi-clustered, block-coded store
// whose sorted fence array is the primary index on the entire tuple
// (Figure 4.4, flattened — see blockstore), and non-clustering secondary
// B+ trees per attribute whose leaves hold buckets of data blocks
// (Figure 4.5).
//
// The same Table runs over any core.Codec, so the paper's compressed and
// uncompressed relations execute the identical query path; only the number
// of data blocks and the per-block decode cost differ — exactly the terms
// of the cost model in Section 5.3.
package table

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/blockstore"
	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Options is the configuration an Option list resolves to (see Resolve);
// callers set it through the With* options.
type Options struct {
	// Codec selects the block representation. Default CodecAVQ.
	Codec core.Codec
	// PageSize is the disk block size. Default storage.DefaultPageSize.
	PageSize int
	// PoolFrames is the buffer pool capacity in frames. Default 128.
	PoolFrames int
	// SecondaryAttrs lists attribute positions to maintain secondary
	// indexes on. Nil means none; use AllAttrs for every attribute.
	SecondaryAttrs []int
	// Path, when non-empty, backs the table with a page file at that
	// location instead of memory. Create requires the file to be new or
	// empty; use Open for an existing table. Persistent tables must be
	// Closed (or Checkpointed) to make mutations durable.
	Path string
	// Pager, when non-nil, injects the page store directly instead of
	// deriving one from Path: the shard layer hands in a backend.Pager so
	// a table's pages live in a keyed object store. The table owns the
	// pager and closes it. With a Pager set, Path no longer names a page
	// file — it only anchors the WAL directory (Path + ".wal") and the
	// persistence contract: a non-empty Path makes the table run the
	// catalog checkpoint protocol against the injected pager, which must
	// then implement storage.DurablePager.
	Pager storage.Pager
	// Obs attaches an observability registry (see internal/obs); nil keeps
	// every hot path un-instrumented. The pool, store, executor, and
	// indexes resolve their instruments from it once at construction.
	Obs *obs.Registry
	// Durability selects the crash-durability contract for persistent
	// tables: DurabilityCheckpoint (default, durable at Checkpoint/Close)
	// or DurabilityWAL (write-ahead logged, durable per mutation). Open
	// auto-detects an existing log directory regardless of this setting,
	// so a WAL table reopened without it still replays.
	Durability Durability
	// FS overrides the filesystem backing persistent tables and their
	// WAL; nil means the real filesystem. Crash tests inject
	// an in-memory FaultFS to kill the I/O model at every syscall.
	FS storage.FS
	// WALSegmentSize overrides the log's segment rotation threshold in
	// bytes (wal.DefaultSegmentSize when zero).
	WALSegmentSize int64
}

// AllAttrs returns 0..n-1, for indexing every attribute of a schema.
func AllAttrs(s *relation.Schema) []int {
	out := make([]int, s.NumAttrs())
	for i := range out {
		out[i] = i
	}
	return out
}

func (o *Options) fillDefaults() {
	if o.PageSize == 0 {
		o.PageSize = storage.DefaultPageSize
	}
	if o.PoolFrames == 0 {
		o.PoolFrames = 128
	}
}

// bucket is a secondary-index posting: the data blocks holding tuples with
// the key's attribute value, with a per-block occurrence count so deletes
// know when a block leaves the bucket.
type bucket struct {
	pages map[storage.PageID]int
}

// Table is a relational table over a coded block store, safe for concurrent
// use under one locking rule:
//
//   - Readers hold mu shared only while they plan — validate the predicate,
//     pin a blockstore snapshot, count the blocks each access path names —
//     and then execute lock-free against that snapshot. A long
//     scan streams its pre-mutation view while writers re-code blocks beside
//     it: the paper's localized access (Sections 3.4, 4.2) made concurrent.
//   - Mutators hold mu exclusively while they log and apply, and wait for
//     the WAL group commit after releasing it, so concurrent writers share
//     one fsync instead of queueing it behind the mutation lock.
//   - Bulk loads, Compact, Checkpoint, Check and Close hold mu exclusively
//     throughout.
//
// Exported methods are lock-then-call shells; unexported methods assume the
// lock their comment names and never call an exported one, so nothing
// re-enters mu (a second RLock behind a waiting writer would deadlock).
// Caller-supplied callbacks (emit, fn) run on the lock-free side and may
// call back into the table; bulk-load sources run under the lock and may
// not.
type Table struct {
	// mu guards the indexes, size, catalog state, closed, and
	// every change of the store's layout. schema, opts and the substrate
	// pointers are immutable after construction; the pool and store
	// counters synchronise themselves.
	mu sync.RWMutex

	schema    *relation.Schema
	opts      Options
	pager     storage.Pager
	pool      *buffer.Pool
	store     *blockstore.Store
	secondary map[int]*btree.Tree[*bucket]
	size      int

	// Persistence state (zero for in-memory tables).
	catalogChains [2][]storage.PageID
	generation    uint64
	closed        bool

	// wal is the write-ahead log (nil for checkpoint-durability tables).
	wal *wal.Log
}

// Create builds an empty table for the schema, configured by functional
// options. With a path set, the table is file-backed and the page file
// must be new or empty.
func Create(schema *relation.Schema, opts ...Option) (*Table, error) {
	t, err := newTableShell(schema, resolveOptions(opts))
	if err != nil {
		return nil, err
	}
	if t.persistent() {
		if t.pager.NumPages() != 0 {
			return nil, errors.Join(fmt.Errorf("table: %s already holds pages; use Open", t.opts.Path), t.pool.Close(), t.pager.Close())
		}
		if err := t.initCatalogHeads(); err != nil {
			return nil, err
		}
		if err := t.checkpoint(); err != nil {
			return nil, err
		}
	}
	if t.opts.Durability == DurabilityWAL {
		if err := t.attachWAL(); err != nil {
			return nil, errors.Join(err, t.Close())
		}
	}
	return t, nil
}

// newTableShell constructs the table with an empty store and indexes.
func newTableShell(schema *relation.Schema, opts Options) (*Table, error) {
	opts.fillDefaults()
	for _, a := range opts.SecondaryAttrs {
		if a < 0 || a >= schema.NumAttrs() {
			return nil, fmt.Errorf("table: secondary attribute %d out of range", a)
		}
	}
	if opts.FS == nil {
		opts.FS = storage.OSFS{}
	}
	var pager storage.Pager
	if opts.Pager != nil {
		pager = opts.Pager
		if opts.Path != "" {
			dp, ok := pager.(storage.DurablePager)
			if !ok {
				return nil, fmt.Errorf("table: injected pager for persistent table %s must implement storage.DurablePager", opts.Path)
			}
			// Crash consistency: pages freed between checkpoints must not
			// be reused until the next catalog commit.
			dp.SetDeferredFree(true)
		}
	} else if opts.Path != "" {
		fp, err := storage.OpenFilePagerFS(opts.FS, opts.Path, opts.PageSize)
		if err != nil {
			return nil, err
		}
		// Crash consistency: pages freed between checkpoints must not be
		// reused until the next catalog commit.
		fp.SetDeferredFree(true)
		pager = fp
	} else {
		mp, err := storage.NewMemPager(opts.PageSize)
		if err != nil {
			return nil, err
		}
		pager = mp
	}
	pool, err := buffer.New(pager, opts.Obs, opts.PoolFrames)
	if err != nil {
		return nil, err
	}
	store, err := blockstore.New(schema, opts.Codec, pool)
	if err != nil {
		return nil, err
	}
	store.SetObs(opts.Obs)
	// Only the secondary indexes read the tuples a mutation hands back.
	store.SetRunTuples(len(opts.SecondaryAttrs) > 0)
	t := &Table{
		schema:    schema,
		opts:      opts,
		pager:     pager,
		pool:      pool,
		store:     store,
		secondary: make(map[int]*btree.Tree[*bucket], len(opts.SecondaryAttrs)),
	}
	for _, a := range opts.SecondaryAttrs {
		t.secondary[a] = newSecIndex(opts)
	}
	t.wirePageCommits()
	return t, nil
}

// wirePageCommits connects the block store's manifest publications to the
// observability layer, so write amplification — fresh pages written per
// mutation, next to wal.appends in WAL mode — is visible.
func (t *Table) wirePageCommits() {
	if t.opts.Obs == nil {
		return
	}
	commits := t.opts.Obs.Counter("store.page_commits")
	pages := t.opts.Obs.Counter("store.pages_written")
	t.store.SetCommitHook(func(ev blockstore.CommitEvent) {
		commits.Inc()
		pages.Add(int64(ev.Pages))
	})
}

// persistent reports whether the table is file-backed.
func (t *Table) persistent() bool { return t.opts.Path != "" }

// newSecIndex builds one empty secondary index (Figure 4.5).
func newSecIndex(opts Options) *btree.Tree[*bucket] {
	tr := btree.MustNew[*bucket](btree.DefaultOrder)
	tr.SetProbeCounter(opts.Obs.Counter("index.btree_probes"))
	return tr
}

// Schema returns the table's schema.
func (t *Table) Schema() *relation.Schema { return t.schema }

// Codec returns the block codec in use.
func (t *Table) Codec() core.Codec { return t.opts.Codec }

// Len returns the number of tuples.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// NumBlocks returns the number of data blocks.
func (t *Table) NumBlocks() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.NumBlocks()
}

// PhiBounds reports the attribute-0 span actually occupied by the
// table's blocks (from the block fences). ok is false when the table is
// empty. The shard checker uses this to prove every shard's data sits
// inside its catalog φ-range.
func (t *Table) PhiBounds() (lo, hi uint64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.FenceBounds()
}

// DropCache empties the buffer pool so the next query runs cold, as the
// paper's I/O model assumes.
func (t *Table) DropCache() error { return t.pool.DropAll() }

// PoolStats returns the buffer pool's hit/miss counters: the pool's coded
// pages are the table's only block cache.
func (t *Table) PoolStats() buffer.Stats { return t.pool.Stats() }

// PinnedFrames returns the buffer pool's currently pinned frame count — 0
// when no operation is mid-flight. Crash and leak tests assert it after
// recovery, the server's graceful drain after shutdown.
func (t *Table) PinnedFrames() int { return t.pool.PinnedFrames() }

// LiveSnapshots returns the number of unreleased store snapshots.
func (t *Table) LiveSnapshots() int { return t.store.LiveSnapshots() }

// Generation returns the durable catalog generation (zero for in-memory
// tables before the first checkpoint).
func (t *Table) Generation() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.generation
}

// IndexNodeCount returns the total node count across the secondary
// indexes. The primary index is the store's fence array — one directory
// entry per block (NumBlocks) — and has no nodes of its own.
func (t *Table) IndexNodeCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, idx := range t.secondary {
		n += idx.NodeCount()
	}
	return n
}

// StoreStats returns the block store's physical layout statistics.
func (t *Table) StoreStats() (blockstore.Stats, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.ComputeStats()
}

// BulkLoadContext fills the empty table with tuples (any order; the table
// re-orders them per Section 3.2). The input slice is not retained. An
// invalid tuple fails the load before any work, naming the lowest invalid
// index, and leaves the table unchanged. Cancellation is observed at block
// boundaries during encoding and indexing, leaving the table partially
// loaded (discard it on error, as with any failed bulk load).
func (t *Table) BulkLoadContext(ctx context.Context, tuples []relation.Tuple) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.size != 0 || t.store.NumBlocks() != 0 {
		return errors.New("table: bulk load into non-empty table")
	}
	sp := t.opts.Obs.StartOp("bulkload")
	defer sp.End()
	sp.Detailf("%d tuples", len(tuples))
	endStage := sp.Stage("sort")
	if err := t.validateLoad(tuples); err != nil {
		return err
	}
	sorted := slices.Clone(tuples)
	t.schema.SortTuples(sorted)
	t.copySorted(sorted)
	endStage()
	endStage = sp.Stage("load")
	if _, err := t.store.BulkLoadContext(ctx, sorted); err != nil {
		return err
	}
	endStage()
	endStage = sp.Stage("index")
	if err := t.indexBlocks(ctx); err != nil {
		return err
	}
	endStage()
	t.size = len(sorted)
	return t.walCheckpoint()
}

// minLoadChunk is the fewest input tuples one load-prologue worker takes.
const minLoadChunk = 1 << 14

// loadChunks runs fn(w, lo, hi) over workers contiguous chunks of [0, n),
// one goroutine per chunk, and waits for them.
func loadChunks(workers, n int, fn func(w, lo, hi int)) {
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, w*n/workers, (w+1)*n/workers)
		}()
	}
	wg.Wait()
}

// loadWorkers is how many workers a load-prologue pass over n tuples
// takes: up to GOMAXPROCS, each with at least minLoadChunk tuples.
func loadWorkers(n int) int {
	return min(runtime.GOMAXPROCS(0), max(1, n/minLoadChunk))
}

// validateLoad is BulkLoadContext's prologue. Each worker validates a
// contiguous range of the input, in input order. On bad input it returns
// the lowest-index invalid tuple's error, the one a front-to-back pass
// would hit first. Nothing is copied here; copySorted copies once the
// tuples are in φ order.
func (t *Table) validateLoad(tuples []relation.Tuple) error {
	workers := loadWorkers(len(tuples))
	errs := make([]error, workers) // each worker's first error; ranges ascend with w
	loadChunks(workers, len(tuples), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := t.schema.ValidateTuple(tuples[i]); err != nil {
				errs[w] = fmt.Errorf("table: tuple %d: %w", i, err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// copySorted copies the φ-sorted tuples into one slab in φ order and
// points each entry of sorted at its copy, so the load's pair-cost and
// encode passes read memory front to back. The table holds no tuple of
// the caller's, and the store keeps none of the copies (fences are
// cloned).
func (t *Table) copySorted(sorted []relation.Tuple) {
	n, arity := len(sorted), t.schema.NumAttrs()
	slab := make([]uint64, n*arity)
	loadChunks(loadWorkers(n), n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := slab[i*arity : (i+1)*arity : (i+1)*arity]
			copy(row, sorted[i])
			sorted[i] = row
		}
	})
}

// indexBlocks registers every block of a freshly loaded store in the
// secondary indexes, with one scan; a table without them has nothing to
// build, the store's fences being the primary index.
func (t *Table) indexBlocks(ctx context.Context) error {
	if len(t.secondary) == 0 {
		return nil
	}
	return t.store.ScanBlocksContext(ctx, func(id storage.PageID, ts []relation.Tuple) bool {
		t.registerTuples(id, ts)
		return true
	})
}

// registerTuples adds the block's tuples to every secondary index.
func (t *Table) registerTuples(id storage.PageID, tuples []relation.Tuple) {
	for attr, idx := range t.secondary {
		for _, tu := range tuples {
			key := t.schema.EncodeAttr(nil, attr, tu[attr])
			b, ok := idx.Get(key)
			if !ok {
				b = &bucket{pages: make(map[storage.PageID]int, 1)}
				idx.Insert(key, b)
			}
			b.pages[id]++
		}
	}
}

// unregisterTuples removes the block's tuples from every secondary index.
func (t *Table) unregisterTuples(id storage.PageID, tuples []relation.Tuple) {
	for attr, idx := range t.secondary {
		for _, tu := range tuples {
			key := t.schema.EncodeAttr(nil, attr, tu[attr])
			b, ok := idx.Get(key)
			if !ok {
				continue
			}
			b.pages[id]--
			if b.pages[id] <= 0 {
				delete(b.pages, id)
			}
			if len(b.pages) == 0 {
				idx.Delete(key)
			}
		}
	}
}

// InsertContext adds tu to the table. Duplicates are permitted (relations
// here are bags once inserts are allowed, matching the paper's block
// operations). A single-block rewrite is not interruptible mid-flight;
// cancellation is observed before work starts. In WAL mode the log append
// and the apply happen under the lock and the group commit after it (see
// Table), so the insert is durable when the call returns.
func (t *Table) InsertContext(ctx context.Context, tu relation.Tuple) error {
	t.mu.Lock()
	lsn, err := t.insertLogged(ctx, tu)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return t.walCommit(lsn)
}

// insertLogged validates, logs, and applies one insert under the exclusive
// lock, returning the LSN the caller commits after releasing it.
func (t *Table) insertLogged(ctx context.Context, tu relation.Tuple) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := t.schema.ValidateTuple(tu); err != nil {
		return 0, err
	}
	lsn, err := t.logRecord(recInsert, tu)
	if err != nil {
		return 0, err
	}
	if err := t.insertApply(tu); err != nil {
		t.logAbort(lsn)
		return 0, err
	}
	return lsn, nil
}

// insertApply is the unlogged insert body: it mutates blocks and indexes
// but never touches the WAL, so replay and batch loading reuse it. The
// store finds the home block on its fence array and hands back what it
// decoded, so the block is read once.
func (t *Table) insertApply(tu relation.Tuple) error {
	res, err := t.store.Insert(tu)
	if err != nil {
		return err
	}
	t.applyMutation(res)
	t.size++
	return nil
}

// DeleteContext removes one occurrence of tu, reporting whether it was
// present. A single-block rewrite is not interruptible mid-flight;
// cancellation is observed before work starts. In WAL mode the delete is
// group-committed, outside the lock, before returning.
func (t *Table) DeleteContext(ctx context.Context, tu relation.Tuple) (bool, error) {
	t.mu.Lock()
	lsn, found, err := t.deleteLogged(ctx, tu)
	t.mu.Unlock()
	if err != nil || !found {
		return found, err
	}
	return true, t.walCommit(lsn)
}

// deleteLogged validates, logs, and applies one delete under the exclusive
// lock, returning the LSN to commit. A not-found delete is still logged
// (replay treats a missing tuple as a no-op), keeping the log-before-mutate
// ordering unconditional.
func (t *Table) deleteLogged(ctx context.Context, tu relation.Tuple) (uint64, bool, error) {
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	if err := t.schema.ValidateTuple(tu); err != nil {
		return 0, false, err
	}
	lsn, err := t.logRecord(recDelete, tu)
	if err != nil {
		return 0, false, err
	}
	found, err := t.deleteApply(ctx, tu)
	if err != nil {
		t.logAbort(lsn)
		return 0, false, err
	}
	return lsn, found, nil
}

// deleteApply is the unlogged delete body (see insertApply).
func (t *Table) deleteApply(ctx context.Context, tu relation.Tuple) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	res, found, err := t.store.Delete(tu)
	if err != nil || !found {
		return false, err
	}
	t.applyMutation(res)
	t.size--
	return true, nil
}

// UpdateContext replaces one occurrence of old with new, reporting whether
// old was present (and therefore replaced). Cancellation is observed
// before the delete and again before the re-insert. Both halves are logged
// under one lock hold and committed once on the later LSN (LSNs are
// monotone, so committing the insert also makes the delete durable).
func (t *Table) UpdateContext(ctx context.Context, old, new relation.Tuple) (bool, error) {
	if err := t.schema.ValidateTuple(new); err != nil {
		return false, err
	}
	t.mu.Lock()
	_, found, err := t.deleteLogged(ctx, old)
	if err != nil || !found {
		t.mu.Unlock()
		return false, err
	}
	lsn, err := t.insertLogged(ctx, new)
	t.mu.Unlock()
	if err != nil {
		return false, err
	}
	return true, t.walCommit(lsn)
}

// applyMutation moves the secondary indexes' postings from the block a
// mutation replaced to the blocks that replaced it, using the tuple runs
// the store already decoded.
func (t *Table) applyMutation(res blockstore.MutationResult) {
	if len(t.secondary) == 0 {
		return
	}
	t.unregisterTuples(res.Old.Page, res.Old.Tuples)
	for _, run := range res.New {
		t.registerTuples(run.Page, run.Tuples)
	}
}

// Contains reports whether tu is in the table. It searches the fence
// array and decodes at most one live block, so unlike the streaming
// queries it holds the shared lock throughout.
func (t *Table) Contains(tu relation.Tuple) (bool, error) {
	if err := t.schema.ValidateTuple(tu); err != nil {
		return false, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.Contains(tu)
}

// ScanContext visits every tuple in phi order through the executor,
// reading a snapshot pinned under the shared lock; fn runs without it and
// returning false stops the scan. Cancellation is observed at block
// boundaries, before the next block is decoded.
func (t *Table) ScanContext(ctx context.Context, fn func(relation.Tuple) bool) error {
	r, err := t.readPlan(nil)
	if err != nil {
		return err
	}
	r.op = "scan"
	_, err = r.runCtx(ctx, fn)
	return err
}

// Check verifies the whole table. It is the name the server's Engine
// seam uses: table.Table and shard.DB both answer Check() with their
// deepest self-validation pass.
func (t *Table) Check() error { return t.CheckInvariants() }

// CheckInvariants verifies the whole table: store layout and fences (the
// primary index), secondary index trees, secondary bucket counts against
// actual block contents, and the tuple count. It walks
// every block against the live indexes, so it holds the lock exclusively.
func (t *Table) CheckInvariants() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Deep store check: page headers, stream checksums, and per-tuple φ
	// range membership, not just the layout maps.
	if err := t.store.Check(); err != nil {
		return err
	}
	for attr, idx := range t.secondary {
		if err := idx.CheckInvariants(); err != nil {
			return fmt.Errorf("secondary %d: %w", attr, err)
		}
	}
	count := 0
	type attrVal struct {
		attr int
		val  uint64
		page storage.PageID
	}
	wantCounts := map[attrVal]int{}
	var checkErr error
	//avqlint:ignore ctxflow the Engine seam's Check() carries no ctx; validation runs to its verdict
	scanErr := t.store.ScanBlocksContext(context.Background(), func(id storage.PageID, ts []relation.Tuple) bool {
		count += len(ts)
		for attr := range t.secondary {
			for _, tu := range ts {
				wantCounts[attrVal{attr, tu[attr], id}]++
			}
		}
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	if count != t.size {
		return fmt.Errorf("table: %d tuples stored, size says %d", count, t.size)
	}
	for attr, idx := range t.secondary {
		gotEntries := 0
		idx.Scan(nil, nil, func(key []byte, b *bucket) bool {
			for page, n := range b.pages {
				gotEntries += n
				// Decode the attr value from the key for comparison.
				var v uint64
				for _, by := range key {
					v = v<<8 | uint64(by)
				}
				if wantCounts[attrVal{attr, v, page}] != n {
					checkErr = fmt.Errorf("table: secondary %d value %d page %d count %d, want %d",
						attr, v, page, n, wantCounts[attrVal{attr, v, page}])
					return false
				}
			}
			return true
		})
		if checkErr != nil {
			return checkErr
		}
		if gotEntries != t.size {
			return fmt.Errorf("table: secondary %d tracks %d entries for %d tuples", attr, gotEntries, t.size)
		}
	}
	return nil
}
