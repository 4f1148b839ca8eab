package exec

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/storage"
)

// BatchIterator is the executor's one block loop, in pull form: a
// φ-ordered stream of per-block core.Slabs over a pinned snapshot. For
// each candidate block it prunes on the φ-fence, decodes the block into a
// slab — φ values on a flat schema, tuples on a split one — clips the
// slab to the attribute-0 bound, filters the other conjuncts in place,
// and returns what is left. RunBatch and RunContext drive it to the end;
// a merge join pulls two and seeks the lagging one. One pooled arena backs
// it, reset at every Next, so a returned slab is valid only until the next
// call.
type BatchIterator struct {
	sn   *blockstore.Snapshot
	ctx  context.Context
	cand map[storage.PageID]struct{}
	// bound is the conjunct on attribute 0, nil when there is none; rest
	// are the other conjuncts. loPhi and hiPhi are bound in φ space, on a
	// flat schema.
	bound        *Pred
	rest         []Pred
	loPhi, hiPhi uint64
	// digits is the flat schema's φ⁻¹ (nil on a split one): residual
	// conjuncts test its digits, and RunContext turns φ slabs into tuples
	// with it.
	digits core.Digits
	// spans: a straddling block decodes only its attribute-0 span — a
	// select's rule, and every read's on a split schema. Otherwise (a fold
	// on a flat schema) it is read as a whole φ slab and clipped in it.
	spans     bool
	partialOK bool
	next      int // next block position to visit
	a         *core.Arena
	owner     bool // Release releases the snapshot
	// Stats accumulates the pass's accounting across Next and Seek.
	Stats Stats
}

// NewBatchIterator returns a fold-rule iterator over every row of the
// snapshot, positioned before the first block. The iterator owns the
// snapshot: the caller must Release it.
func NewBatchIterator(ctx context.Context, sn *blockstore.Snapshot) *BatchIterator {
	it := newBatchIterator(ctx, sn, Plan{}, false)
	it.owner = true
	return it
}

// newBatchIterator plans one pass: it splits off the clustering bound and
// seeks to the first block that can reach it.
func newBatchIterator(ctx context.Context, sn *blockstore.Snapshot, plan Plan, spans bool) *BatchIterator {
	s := sn.Schema()
	digits := core.NewDigits(s)
	it := &BatchIterator{
		sn:     sn,
		ctx:    ctx,
		cand:   plan.Candidates,
		digits: digits,
		// The fold rule reads whole blocks on a flat schema only.
		spans: spans || digits == nil,
		// Packed blocks keep to the full-decode path: a bit-level skip
		// still reads every stepped-over difference's count field, so a
		// span decode saves them little.
		partialOK: !plan.NoPartial && sn.Codec() != core.CodecPacked,
		a:         core.GetArena(),
		Stats:     Stats{BlocksTotal: sn.NumBlocks()},
	}
	it.bound, it.rest = boundOf(plan.Preds)
	if b := it.bound; b != nil {
		if w, ok := s.FlatWeights(); ok {
			// The bound [lo, hi] on attribute 0 is exactly the φ interval
			// [lo*w0, hi*w0 + (w0-1)]: every tuple with A_0 in range lands
			// there whatever its other digits. hi is clamped to the domain
			// first so the products stay inside the 64-bit space.
			hi := min(b.Hi, s.Domain(0).Size-1)
			it.loPhi, it.hiPhi = b.Lo*w[0], hi*w[0]+(w[0]-1)
		}
		it.Seek(b.Lo)
	}
	return it
}

// Seek advances the iterator, forward only, so the next Next visits no
// block before the first whose fence reaches attribute-0 key k, found on
// the snapshot's fence array. The candidates it skips count as pruned. A
// key behind the iterator is a no-op: the first slab after a seek may
// still hold smaller keys, which a consumer skips in the slab.
func (it *BatchIterator) Seek(k uint64) {
	if at := it.sn.SeekAttr0(k); at > it.next {
		it.Stats.BlocksPruned += countCandidates(it.sn, it.cand, it.next, at)
		it.next = at
	}
}

// Next returns the next non-empty slab of qualifying rows in clustered
// order, or an empty slab at the end.
func (it *BatchIterator) Next() (core.Slab, error) {
	sn, st, n := it.sn, &it.Stats, it.sn.NumBlocks()
	for it.next < n {
		i := it.next
		it.next++
		if err := it.ctx.Err(); err != nil {
			return core.Slab{}, err
		}
		if it.cand != nil {
			if _, ok := it.cand[sn.Block(i)]; !ok {
				continue
			}
		}
		f := sn.Fence(i)
		// Blocks are clustered and non-overlapping: once a block starts
		// beyond the range, every later block does too.
		if it.bound != nil && f.First[0] > it.bound.Hi {
			st.BlocksPruned += countCandidates(sn, it.cand, i, n)
			it.next = n
			break
		}
		straddle := it.bound != nil && (f.First[0] < it.bound.Lo || f.Last[0] > it.bound.Hi)
		if it.a.SlabBytes() > 0 {
			st.ArenaReuses++
		}
		it.a.Reset()
		var sl core.Slab
		var err error
		if straddle && it.spans && it.partialOK {
			sl, err = it.readSpan(i, f.Restarts)
		} else {
			sl, err = it.readWhole(i, straddle)
		}
		if err != nil {
			return core.Slab{}, err
		}
		if sl = it.filter(sl); sl.Len() > 0 {
			st.Matches += sl.Len()
			return sl, nil
		}
	}
	return core.Slab{}, nil
}

// readWhole decodes block i whole and, when it straddles the bound, clips
// the slab to the bound's run: attribute 0 is nondecreasing in φ order, so
// the run is found by binary search.
func (it *BatchIterator) readWhole(i int, straddle bool) (core.Slab, error) {
	st := &it.Stats
	sl, err := it.sn.ReadSlab(i, it.a)
	if err != nil {
		return core.Slab{}, err
	}
	st.BlocksRead++
	st.FullDecodes++
	if sl.Phis != nil && !it.spans {
		st.BatchBlocks++
		st.SlabRows += len(sl.Phis)
	}
	if !straddle {
		return sl, nil
	}
	if sl.Phis != nil {
		from, to := core.PhiSpanSorted(sl.Phis, it.loPhi, it.hiPhi)
		sl.Phis = sl.Phis[from:to]
		return sl, nil
	}
	lo, hi := it.bound.Lo, it.bound.Hi
	from := sort.Search(len(sl.Tuples), func(j int) bool { return sl.Tuples[j][0] >= lo })
	to := from + sort.Search(len(sl.Tuples)-from, func(j int) bool { return sl.Tuples[from+j][0] > hi })
	sl.Tuples = sl.Tuples[from:to]
	return sl, nil
}

// readSpan decodes only the qualifying span of a straddling block, its
// walk starting at the block's restart directory dir: the last restart
// before the span, not the anchor. On a flat schema one ordinal-space walk
// (core.PhiSpanSlab) both locates the span and yields its φ values;
// otherwise core.DecodeAttr0SpanArena walks the restarts bracketing the
// bound in tuple space and clips the run. Either way the span satisfies
// the bound by construction. The decode runs on the coded stream in the
// pinned frame and leaves nothing aliasing it.
func (it *BatchIterator) readSpan(i int, dir *core.Restarts) (sl core.Slab, err error) {
	st, s, b := &it.Stats, it.sn.Schema(), it.bound
	err = it.sn.ViewStream(i, func(stream []byte) (err error) {
		st.BlocksRead++
		st.PartialDecodes++
		if it.digits != nil {
			sl.Phis, err = core.PhiSpanSlab(s, stream, it.loPhi, it.hiPhi, dir, it.a)
		} else {
			sl.Tuples, err = core.DecodeAttr0SpanArena(s, stream, b.Lo, b.Hi, dir, it.a)
		}
		if err != nil {
			return fmt.Errorf("%w: page %d: %w", blockstore.ErrCorruptBlock, it.sn.Block(i), err)
		}
		return nil
	})
	if err == nil && it.digits != nil {
		st.FlatPathHits++
	}
	return sl, err
}

// filter compacts the slab in place to the rows satisfying the residual
// conjuncts: digit tests on a φ slab, field tests on a tuple slab.
func (it *BatchIterator) filter(sl core.Slab) core.Slab {
	if len(it.rest) == 0 {
		return sl
	}
	if sl.Tuples != nil {
		keep := sl.Tuples[:0]
		for _, tu := range sl.Tuples {
			if matchesAll(it.rest, tu) {
				keep = append(keep, tu)
			}
		}
		sl.Tuples = keep
		return sl
	}
	keep := sl.Phis[:0]
	for _, phi := range sl.Phis {
		if matchesPhi(it.rest, it.digits, phi) {
			keep = append(keep, phi)
		}
	}
	sl.Phis = keep
	return sl
}

// each hands every remaining slab to kernel until the end, an error, or
// kernel returning false.
func (it *BatchIterator) each(kernel func(core.Slab) bool) error {
	for {
		sl, err := it.Next()
		if err != nil || sl.Len() == 0 || !kernel(sl) {
			return err
		}
	}
}

// close accounts the pooled arena, returns it, and folds the Stats into
// the store's exec instruments. Idempotent.
func (it *BatchIterator) close() {
	if it.a == nil {
		return
	}
	it.Stats.SlabBytes += it.a.SlabBytes()
	core.PutArena(it.a)
	it.a = nil
	foldStats(it.sn, it.Stats)
}

// Release closes the iterator and, when it owns its snapshot
// (NewBatchIterator), releases that too. Idempotent; the iterator (and
// any slab it returned) must not be used afterwards.
func (it *BatchIterator) Release() {
	it.close()
	if it.owner {
		it.sn.Release()
	}
}

// RunBatch streams the snapshot's rows matching the plan to kernel as
// per-block slabs, in φ order, under the fold rule: on a flat schema every
// block the pass touches is read as a whole φ slab, a straddling one
// clipped in the slab; on a split schema a straddling block decodes only
// its span. Each slab holds exactly the qualifying rows and is valid only
// until kernel returns — the backing arena is reset for the next block —
// so a kernel copies anything it keeps. kernel returning false stops the
// pass early. Like RunContext, the pass's Stats fold into the snapshot's
// ExecMetrics on return.
func RunBatch(ctx context.Context, sn *blockstore.Snapshot, plan Plan, kernel func(core.Slab) bool) (Stats, error) {
	it := newBatchIterator(ctx, sn, plan, false)
	err := it.each(kernel)
	it.close()
	return it.Stats, err
}
