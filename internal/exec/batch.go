// Columnar batch mode. Where the tuple path hands emit one
// relation.Tuple at a time, the batch path decodes each block into a flat
// φ-ordinal slab (one uint64 per row, clustered order) and hands kernels
// the whole slab at once: predicate evaluation is digit arithmetic on raw
// ordinals (a core.DigitExtractor over the FlatWeights), qualifying
// rows are compacted in place, and no relation.Tuple is ever built for a
// row that does not reach the result. It exists for the operators whose
// output is not tuples — counts, aggregates, group-by, and merge joins —
// and requires a flat schema (||R|| within 64 bits); non-flat tables stay
// on the tuple path.
package exec

import (
	"context"
	"fmt"

	"repro/internal/blockstore"
	"repro/internal/core"
)

// ErrNotFlat reports a batch pass requested over a schema whose ordinal
// space exceeds 64 bits; callers fall back to the tuple path.
var ErrNotFlat = fmt.Errorf("exec: batch mode needs a schema space within 64 bits")

// RunBatch streams the snapshot's qualifying rows to kernel as per-block
// φ-ordinal slabs, in φ order. Each slab holds exactly the rows matching
// plan.Preds (the clustering bound clips by binary search, residual
// conjuncts compact the slab in place) and is valid only until kernel
// returns — the backing arena is reset for the next block. kernel
// returning false stops the pass early. Plans are implicitly Transient:
// a kernel must copy anything it keeps. Like RunContext, the pass's Stats
// fold into the snapshot's ExecMetrics on return.
func RunBatch(ctx context.Context, sn *blockstore.Snapshot, plan Plan, kernel func(phis []uint64) bool) (Stats, error) {
	st, err := runBatch(ctx, sn, plan, kernel)
	foldStats(sn, st)
	return st, err
}

func runBatch(ctx context.Context, sn *blockstore.Snapshot, plan Plan, kernel func(phis []uint64) bool) (st Stats, err error) {
	st = Stats{BlocksTotal: sn.NumBlocks()}
	s := sn.Schema()
	w, ok := s.FlatWeights()
	if !ok {
		return st, ErrNotFlat
	}
	bound, rest := boundOf(plan.Preds)
	var loPhi, hiPhi uint64
	if bound != nil {
		// The clustering bound [lo, hi] on attribute 0 is the φ interval
		// [lo*w0, hi*w0 + (w0-1)] — same clamp discipline as runPartial.
		hi := bound.Hi
		if limit := s.Domain(0).Size - 1; hi > limit {
			hi = limit
		}
		loPhi, hiPhi = bound.Lo*w[0], hi*w[0]+(w[0]-1)
	}
	var dig []core.DigitExtractor
	if len(rest) > 0 {
		dig = digitsOf(s, w)
	}

	a := core.GetArena()
	// Every return path accounts the pooled arena's footprint, bounded
	// passes (which stop early) included.
	defer func() {
		st.SlabBytes += a.SlabBytes()
		core.PutArena(a)
	}()
	n := sn.NumBlocks()
	start := seekBound(sn, plan.Candidates, bound, &st)
	for i := start; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		if plan.Candidates != nil {
			if _, ok := plan.Candidates[sn.Block(i)]; !ok {
				continue
			}
		}
		f := sn.Fence(i)
		if bound != nil && f.First[0] > bound.Hi {
			st.BlocksPruned += countCandidates(sn, plan.Candidates, i, n)
			return st, nil
		}
		if a.SlabBytes() > 0 {
			st.ArenaReuses++
		}
		a.Reset()
		phis, err := sn.ReadPhis(i, a)
		if err != nil {
			return st, err
		}
		st.BlocksRead++
		st.FullDecodes++
		st.BatchBlocks++
		st.SlabRows += len(phis)
		if bound != nil {
			from, to := core.PhiSpanSorted(phis, loPhi, hiPhi)
			phis = phis[from:to]
		}
		if len(rest) > 0 {
			keep := phis[:0]
			for _, phi := range phis {
				if matchesPhi(rest, dig, phi) {
					keep = append(keep, phi)
				}
			}
			phis = keep
		}
		st.Matches += len(phis)
		if len(phis) > 0 && !kernel(phis) {
			return st, nil
		}
		if bound != nil && f.Last[0] > bound.Hi {
			st.BlocksPruned += countCandidates(sn, plan.Candidates, i+1, n)
			return st, nil
		}
	}
	return st, nil
}

// BatchIterator is the pull form of the batch pass: a φ-ordered stream of
// per-block ordinal slabs over a pinned snapshot, with fence-level seeks.
// Merge joins are built on it (each side pulls independently). One
// pooled arena backs the iterator, reset at every NextPhis — a returned
// slab is valid only until the next call.
type BatchIterator struct {
	sn       *blockstore.Snapshot
	ctx      context.Context
	next     int // next block position to read
	done     bool
	released bool
	a        *core.Arena
	// Stats accumulates block accounting across NextPhis and SeekPhi.
	Stats Stats
}

// NewBatchIterator returns a batch iterator positioned before the first
// block. It fails with ErrNotFlat on a non-flat schema, releasing the
// snapshot (the iterator owns it either way). On success the caller must
// Release the iterator, which releases the snapshot.
func NewBatchIterator(ctx context.Context, sn *blockstore.Snapshot) (*BatchIterator, error) {
	if _, ok := sn.Schema().FlatSpace(); !ok {
		sn.Release()
		return nil, ErrNotFlat
	}
	return &BatchIterator{
		sn:    sn,
		ctx:   ctx,
		a:     core.GetArena(),
		Stats: Stats{BlocksTotal: sn.NumBlocks()},
	}, nil
}

// Release folds the iterator's Stats into the store's exec instruments,
// returns its arena to the pool, and releases the snapshot. Idempotent;
// the iterator (and any slab it returned) must not be used afterwards.
func (it *BatchIterator) Release() {
	if !it.released {
		it.released = true
		it.Stats.SlabBytes += it.a.SlabBytes()
		foldStats(it.sn, it.Stats)
		core.PutArena(it.a)
	}
	it.sn.Release()
}

// NextPhis returns the next block's φ slab in clustered order, or nil at
// the end. The slab is nondecreasing, aliases the iterator's arena, and
// is valid only until the next NextPhis call.
func (it *BatchIterator) NextPhis() ([]uint64, error) {
	for !it.done {
		if it.next >= it.sn.NumBlocks() {
			it.done = true
			break
		}
		if it.ctx != nil {
			if err := it.ctx.Err(); err != nil {
				return nil, err
			}
		}
		if it.a.SlabBytes() > 0 {
			it.Stats.ArenaReuses++
		}
		it.a.Reset()
		phis, err := it.sn.ReadPhis(it.next, it.a)
		if err != nil {
			return nil, err
		}
		it.next++
		it.Stats.BlocksRead++
		it.Stats.FullDecodes++
		it.Stats.BatchBlocks++
		it.Stats.SlabRows += len(phis)
		if len(phis) > 0 {
			return phis, nil
		}
	}
	return nil, nil
}

// SeekPhi advances the iterator (forward only) so the next NextPhis
// returns the first remaining block that can contain a φ >= target: the
// first block whose fence Last has φ >= target. Blocks skipped on their
// fence alone count as pruned. A target already behind the iterator is a
// no-op (slabs already returned are never revisited).
func (it *BatchIterator) SeekPhi(target uint64) error {
	n := it.sn.NumBlocks()
	if it.done || it.next >= n {
		return nil
	}
	at := it.sn.SeekPhi(target)
	if at <= it.next {
		return nil
	}
	it.Stats.BlocksPruned += at - it.next
	it.next = at
	if at == n {
		it.done = true
	}
	return nil
}
