package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"repro/internal/relation"
)

// scatterChunk is the tuple batch size shards hand to the merge: big
// enough to amortize channel hops, small enough that read-ahead stays a
// few pages of tuples per shard.
const scatterChunk = 256

// ShardScan is one shard's contribution to a scatter-gather pass. Lo/Hi
// is the inclusive attribute-0 range the shard owns per the catalog;
// Blocks is its block count, credited as pruned when the whole shard is
// skipped. Run streams the shard's matching tuples in φ order to emit
// (emit returning false stops the shard early); it must honour ctx and
// must emit retainable tuples — the merge buffers them across goroutines.
type ShardScan struct {
	Lo, Hi uint64
	Blocks int
	Run    func(ctx context.Context, emit func(relation.Tuple) bool) error
}

// scatterReadAhead is the number of tuple chunks each shard may buffer
// ahead of the merge.
const scatterReadAhead = 2

// ScatterStats reports shard-level pruning and fan-out for one pass.
// Block- and tuple-level stats stay with each shard's own Stats; the
// caller sums them with Stats.Add.
type ScatterStats struct {
	ShardsTotal   int
	ShardsScanned int
	// ShardsPruned counts shards skipped because their catalog φ-range
	// cannot intersect [lo, hi]; BlocksPruned is the block total inside
	// them, skipped without touching a single fence.
	ShardsPruned int
	BlocksPruned int
}

// Scatter runs a φ-ordered scatter-gather pass: shards whose catalog
// range misses [lo, hi] (inclusive, attribute 0) are pruned whole; the
// rest fan out on a bounded worker pool, each streaming tuple chunks
// into a per-shard read-ahead channel; the caller's emit sees the chunks
// stitched back in shard order. Shards must be passed in ascending,
// disjoint φ order — then shard-order concatenation IS global φ order,
// and the merge needs no comparisons.
//
// emit runs on the calling goroutine only. emit returning false cancels
// the remaining shards and returns nil. The first real (non-cancel)
// shard error, in shard order, wins. At most GOMAXPROCS shards scan at
// once.
func Scatter(ctx context.Context, shards []ShardScan, lo, hi uint64, emit func(relation.Tuple) bool) (ScatterStats, error) {
	return scatter(ctx, shards, lo, hi, runtime.GOMAXPROCS(0), emit)
}

// scatter is Scatter with at most workers shards scanning at once.
func scatter(ctx context.Context, shards []ShardScan, lo, hi uint64, workers int, emit func(relation.Tuple) bool) (ScatterStats, error) {
	st := ScatterStats{ShardsTotal: len(shards)}
	live := make([]ShardScan, 0, len(shards))
	for _, s := range shards {
		if s.Hi < lo || s.Lo > hi {
			st.ShardsPruned++
			st.BlocksPruned += s.Blocks
			continue
		}
		live = append(live, s)
	}
	st.ShardsScanned = len(live)
	switch len(live) {
	case 0:
		return st, ctx.Err()
	case 1:
		// Degenerate case: one live shard streams straight through with no
		// goroutines, no channels, no tuple copies — the single-shard path.
		return st, live[0].Run(ctx, emit)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	chans := make([]chan []relation.Tuple, len(live))
	errs := make([]error, len(live))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range live {
		chans[i] = make(chan []relation.Tuple, scatterReadAhead)
		wg.Add(1)
		go func(i int, s ShardScan) {
			defer wg.Done()
			defer close(chans[i])
			// The worker slot bounds *active scanning* only. A producer
			// whose read-ahead channel is full yields its slot while it
			// waits for the merge to catch up — otherwise W later shards
			// blocked on full channels could starve the shard the ordered
			// merge is waiting on, and the pass would deadlock.
			held := false
			acquire := func() bool {
				select {
				case sem <- struct{}{}:
					held = true
					return true
				case <-ctx.Done():
					return false
				}
			}
			release := func() {
				if held {
					<-sem
					held = false
				}
			}
			defer release()
			if !acquire() {
				return
			}
			buf := make([]relation.Tuple, 0, scatterChunk)
			flush := func() bool {
				if len(buf) == 0 {
					return true
				}
				chunk := buf
				buf = make([]relation.Tuple, 0, scatterChunk)
				select {
				case chans[i] <- chunk:
					return true
				default:
				}
				release()
				select {
				case chans[i] <- chunk:
				case <-ctx.Done():
					return false
				}
				return acquire()
			}
			err := s.Run(ctx, func(tu relation.Tuple) bool {
				buf = append(buf, tu)
				if len(buf) == scatterChunk {
					return flush()
				}
				return true
			})
			if err == nil && !flush() {
				return // cancelled mid-flush; not this shard's error
			}
			if err != nil {
				errs[i] = err
				if !errors.Is(err, context.Canceled) {
					cancel() // real failure: stop the other shards
				}
			}
		}(i, live[i])
	}

	stopped := false
	for i := range chans {
		for chunk := range chans[i] {
			if stopped {
				continue // drain so producers unblock
			}
			for _, tu := range chunk {
				if !emit(tu) {
					stopped = true
					cancel()
					break
				}
			}
		}
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil && !errors.Is(e, context.Canceled) {
			return st, e
		}
	}
	if stopped {
		return st, nil
	}
	return st, ctx.Err()
}

// ScatterCollect is the commutative-merge side of scatter-gather: it runs
// fn(i) for each of n shards on a bounded worker pool and waits for all
// of them. Use it when the per-shard results fold order-independently
// (counts, aggregates, group tables) so no streaming merge is needed.
// The first error cancels the remaining shards; the first real
// (non-cancel) error in shard order is returned. At most GOMAXPROCS
// shards run at once.
func ScatterCollect(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return scatterCollect(ctx, n, runtime.GOMAXPROCS(0), fn)
}

// scatterCollect is ScatterCollect with at most workers shards running
// at once.
func scatterCollect(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			defer func() { <-sem }()
			if err := fn(ctx, i); err != nil {
				errs[i] = err
				if !errors.Is(err, context.Canceled) {
					cancel()
				}
			}
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil && !errors.Is(e, context.Canceled) {
			return e
		}
	}
	return ctx.Err()
}
