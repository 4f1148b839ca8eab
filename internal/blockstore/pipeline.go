// Codec pipeline. AVQ blocks encode and decode independently (Section 3,
// Examples 3.2/3.3), so loads, scans and stats fan per-block codec work out
// over the store's workers — runtime.GOMAXPROCS(0) of them — while the
// result stays the one a single worker would produce:
//
//   - Loading splits into a parallel pair-cost pass, the one greedy
//     chunker (core.Sizer.Chunk), a parallel encode of the chunks, and a
//     serial committer that allocates pages in chunk order — so page ids,
//     block order, and page bytes do not depend on the worker count.
//   - Scans decode blocks with bounded lookahead and deliver them to the
//     visitor strictly in clustered order. Each decode pins one frame, so
//     the scan fan-out is clamped to the pool's capacity less one.
package blockstore

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/storage"
)

// SetObs wires the store's instruments (encode/decode counters and
// latencies, snapshot accounting, and the executor's per-pass counters)
// into a registry; nil detaches them, and the nil instruments no-op. Call
// it before the store is shared.
func (s *Store) SetObs(reg *obs.Registry) {
	if reg == nil {
		s.met = storeMetrics{}
		return
	}
	s.met = storeMetrics{
		encodes:       reg.Counter("store.encodes"),
		edits:         reg.Counter("store.edits"),
		decodes:       reg.Counter("store.decodes"),
		encodeHist:    reg.Histogram("store.encode"),
		decodeHist:    reg.Histogram("store.decode"),
		snapshots:     reg.Counter("store.snapshots"),
		snapshotsLive: reg.Gauge("store.snapshots_live"),
		exec: &ExecMetrics{
			BlocksRead:     reg.Counter("exec.blocks_read"),
			BlocksPruned:   reg.Counter("exec.blocks_pruned"),
			PartialDecodes: reg.Counter("exec.partial_decodes"),
			FullDecodes:    reg.Counter("exec.full_decodes"),
			Rows:           reg.Counter("exec.rows"),
			ArenaReuses:    reg.Counter("exec.arena_reuses"),
			SlabBytes:      reg.Counter("exec.slab_bytes"),
			FlatHits:       reg.Counter("exec.flat_hits"),
			BatchBlocks:    reg.Counter("exec.batch_blocks"),
			SlabRows:       reg.Counter("exec.slab_rows"),
		},
	}
}

// storeMetrics are the store's pre-resolved obs instruments; the zero
// value (nil instruments) is "observability off".
type storeMetrics struct {
	encodes       *obs.Counter
	edits         *obs.Counter // blocks written by core.EditBlock, not re-encoded
	decodes       *obs.Counter
	encodeHist    *obs.Histogram
	decodeHist    *obs.Histogram
	snapshots     *obs.Counter
	snapshotsLive *obs.Gauge
	exec          *ExecMetrics
}

// ExecMetrics are the pre-resolved counters the streaming executor folds
// its per-pass Stats into, one atomic add per counter per pass. They hang
// off the store (resolved once in SetObs) so the executor never takes the
// registry's registration lock on a query path.
type ExecMetrics struct {
	BlocksRead     *obs.Counter
	BlocksPruned   *obs.Counter
	PartialDecodes *obs.Counter
	FullDecodes    *obs.Counter
	Rows           *obs.Counter
	ArenaReuses    *obs.Counter
	SlabBytes      *obs.Counter
	FlatHits       *obs.Counter
	BatchBlocks    *obs.Counter
	SlabRows       *obs.Counter
}

// timeEncode wraps core.EncodeBlock with the store's encode instruments.
// The stream is appended to dst, so callers control buffer reuse: the
// mutation path hands in the store's persistent encode buffer, the load
// pipeline hands in exact-capacity per-chunk buffers.
func (s *Store) timeEncode(tuples []relation.Tuple, dst []byte) ([]byte, error) {
	if s.met.encodeHist == nil {
		return core.EncodeBlock(s.codec, s.schema, tuples, dst)
	}
	t0 := time.Now()
	stream, err := core.EncodeBlock(s.codec, s.schema, tuples, dst)
	s.met.encodeHist.Observe(time.Since(t0))
	s.met.encodes.Inc()
	return stream, err
}

// scanWorkers bounds the scan fan-out: each decode worker pins one frame,
// so the pool must retain at least one spare frame for the rest of the
// system (e.g. Check reading a successor block inside the visit).
func (s *Store) scanWorkers(blocks int) int {
	return max(min(s.workers, blocks, s.pool.Capacity()-1), 1)
}

// minIndexErr tracks the error with the lowest item index across workers,
// so the pipeline reports the failure a front-to-back pass would have hit
// first.
type minIndexErr struct {
	mu  sync.Mutex
	idx int
	err error
}

func (m *minIndexErr) record(idx int, err error) {
	m.mu.Lock()
	if m.err == nil || idx < m.idx {
		m.idx, m.err = idx, err
	}
	m.mu.Unlock()
}

func (m *minIndexErr) get() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// pairCosts computes costs[i] = Sizer.PairCost(t[i-1], t[i]) for i in
// [1, n), each worker filling one contiguous window. costs[0] is unused.
func (s *Store) pairCosts(tuples []relation.Tuple) ([]int, error) {
	n := len(tuples)
	costs := make([]int, n)
	if n < 2 {
		return costs, nil
	}
	span := (n - 1 + s.workers - 1) / s.workers
	var wg sync.WaitGroup
	var firstErr minIndexErr
	for lo := 1; lo < n; lo += span {
		hi := min(lo+span, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := core.NewSizer(s.codec, s.schema).PairCosts(tuples[lo-1:hi], costs[lo-1:hi]); err != nil {
				firstErr.record(lo, err)
			}
		}()
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return nil, err
	}
	return costs, nil
}

// encodeChunks codes every chunk on the workers, returning the streams
// and the blocks' fences indexed like the chunks. Every stream is
// preallocated to its exact encoded size from the chunker's accounting, so
// the encoders never reallocate mid-stream.
func (s *Store) encodeChunks(chunks [][]relation.Tuple, sizes []int) ([][]byte, []Fence, error) {
	streams := make([][]byte, len(chunks))
	fences := make([]Fence, len(chunks))
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr minIndexErr
	for w := 0; w < min(s.workers, len(chunks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(chunks) {
					return
				}
				stream, err := s.timeEncode(chunks[i], make([]byte, 0, sizes[i]))
				if err == nil {
					fences[i], err = s.fenceFor(chunks[i], stream)
				}
				if err != nil {
					firstErr.record(i, err)
					continue
				}
				streams[i] = stream
			}
		}()
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return nil, nil, err
	}
	return streams, fences, nil
}

// commitChunks appends the pre-encoded chunks as blocks of m, allocating
// pages strictly in chunk order so the layout does not depend on the
// worker count. Cancellation is honored between chunks: pages already
// committed stay in m (which the caller publishes even on error) so Reset
// can reclaim them.
func (s *Store) commitChunks(ctx context.Context, m *manifest, streams [][]byte, fences []Fence) ([]BlockRef, error) {
	var refs []BlockRef
	for i, stream := range streams {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id, err := s.writeStream(stream)
		if err != nil {
			return nil, err
		}
		f := fences[i]
		m.append(id, f)
		refs = append(refs, BlockRef{Page: id, First: f.First, Count: f.Count})
	}
	return refs, nil
}

// scanResult carries one decoded block through the scan pipeline: on a
// restore scan with its fence, and its tuples in a pooled arena that goes
// back to the pool once the visitor has run.
type scanResult struct {
	tuples []relation.Tuple
	fence  Fence
	arena  *core.Arena
	err    error
}

// scanPages decodes the blocks on pages ids on the workers with bounded
// lookahead and delivers them to fn strictly in clustered order;
// ScanBlocksContext runs it on a snapshot's pages and Restore, with
// restore set, on the layout it is about to publish. A restore scan
// captures each block's fence from its decode and decodes into pooled
// arenas, one per block in flight, so fn must not retain the tuples; any
// other scan decodes into a fresh arena per block, whose tuples fn owns.
// fn returning false (or a decode error, or cancellation) stops the
// pipeline; in-flight workers are drained before returning so no goroutine
// outlives the call.
func (s *Store) scanPages(ctx context.Context, ids []storage.PageID, restore bool, fn func(id storage.PageID, r *scanResult) bool) error {
	workers := s.scanWorkers(len(ids))
	futures := make(chan chan scanResult, workers*2)
	sem := make(chan struct{}, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	go func() {
		defer close(futures)
		for _, id := range ids {
			select {
			case <-done:
				return
			case sem <- struct{}{}:
			}
			c := make(chan scanResult, 1)
			select {
			case <-done:
				<-sem
				return
			case futures <- c:
			}
			wg.Add(1)
			go func(id storage.PageID, c chan<- scanResult) {
				defer wg.Done()
				var r scanResult
				if restore {
					r.arena = core.GetArena()
				}
				r.tuples, r.fence, r.err = s.decodePage(id, r.arena, restore)
				c <- r
				<-sem
			}(id, c)
		}
	}()
	var err error
	stopped := false
	i := 0
	for c := range futures {
		r := <-c
		if !stopped {
			switch {
			case ctx.Err() != nil:
				err = ctx.Err()
				stopped = true
				close(done)
			case r.err != nil:
				err = r.err
				stopped = true
				close(done)
			case !fn(ids[i], &r):
				stopped = true
				close(done)
			}
		}
		if r.arena != nil {
			core.PutArena(r.arena)
		}
		i++
	}
	wg.Wait()
	return err
}

// ComputeStats walks the store and returns its layout statistics,
// inspecting block headers on the workers. Like ScanBlocks it works over
// one pinned snapshot. The sums are order-independent, so only error
// selection needs the block index.
func (s *Store) ComputeStats() (Stats, error) {
	sn := s.Snapshot()
	defer sn.Release()
	m := sn.m
	st := Stats{Blocks: m.n, PageBytes: m.n * s.pool.PageSize()}
	parts := make([]Stats, s.scanWorkers(m.n))
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr minIndexErr
	for w := range parts {
		wg.Add(1)
		go func(part *Stats) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= m.n {
					return
				}
				info, err := s.inspectBlock(m.block(i))
				if err != nil {
					firstErr.record(i, err)
					return
				}
				part.StreamBytes += info.StreamSize
				part.Tuples += info.TupleCount
			}
		}(&parts[w])
	}
	wg.Wait()
	if err := firstErr.get(); err != nil {
		return Stats{}, err
	}
	for _, part := range parts {
		st.StreamBytes += part.StreamBytes
		st.Tuples += part.Tuples
	}
	st.RawDataBytes = st.Tuples * s.schema.RowSize()
	return st, nil
}
