// Package exec is the streaming executor: the single read path behind
// every table-level query (scans, range and point selections, aggregates,
// group-by, and joins). It walks a blockstore snapshot in
// clustered order, prunes blocks whose φ-fence cannot intersect the
// predicate, and partially decodes blocks that only straddle the range
// boundary — the paper's localized-access claim (Sections 3.4 and 5)
// realized as an engine instead of per-query block loops.
//
// The executor never touches the live store: it operates on a pinned
// blockstore.Snapshot, so a pass keeps streaming its pre-mutation view
// while writers rewrite blocks underneath it.
package exec

import (
	"context"
	"fmt"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Pred is one conjunct of a selection, lo <= A_attr <= hi. The planner
// validates the attribute and clamps hi to the domain before building a
// Plan; the executor applies predicates verbatim.
type Pred struct {
	Attr   int
	Lo, Hi uint64
}

// String renders the predicate in the paper's sigma notation.
func (p Pred) String() string {
	return fmt.Sprintf("%d<=A%d<=%d", p.Lo, p.Attr+1, p.Hi)
}

// matches reports whether tu satisfies the predicate.
func (p Pred) matches(tu relation.Tuple) bool {
	return tu[p.Attr] >= p.Lo && tu[p.Attr] <= p.Hi
}

// Plan describes one streaming pass over a snapshot.
type Plan struct {
	// Preds is the conjunction every emitted tuple must satisfy. A
	// predicate on attribute 0 (the clustering prefix) additionally bounds
	// the pass: φ-fences prune non-intersecting blocks, and blocks that
	// straddle the range boundary are decoded partially.
	Preds []Pred
	// Candidates, when non-nil, restricts the pass to the listed blocks —
	// the secondary-index prefilter. Nil means every block is a candidate.
	Candidates map[storage.PageID]struct{}
	// NoPartial forces full block decodes even on straddling blocks; the
	// differential tests use it to pit the two decode paths against each
	// other.
	NoPartial bool
	// Transient declares that emit never retains a tuple (or sub-slice of
	// one) past the call: the executor then decodes every block into one
	// pooled arena that is Reset between blocks, making the steady-state
	// pass allocation-free. Aggregation-style passes (count, sum, group
	// keys copied out) set it; materializing selections must not.
	Transient bool
}

// Strategy names the access path the planner chose for a read.
type Strategy uint8

const (
	// StrategyClustered scans the contiguous run of blocks whose φ-fences
	// intersect the predicate range: the plan for predicates on the
	// clustering prefix attribute.
	StrategyClustered Strategy = iota
	// StrategySecondary collects candidate blocks from a secondary index's
	// buckets, enumerating the key range on the B+ tree, and reads each
	// once (Figure 4.5).
	StrategySecondary
	// StrategyFullScan reads every block.
	StrategyFullScan
)

// String returns the strategy's name.
func (s Strategy) String() string {
	switch s {
	case StrategyClustered:
		return "clustered"
	case StrategySecondary:
		return "secondary"
	case StrategyFullScan:
		return "full-scan"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Stats reports what a read cost: one pass, an iterator's lifetime, or
// the sum of several (Add). It is the only per-read cost type; the table,
// shard and join layers report it as is.
type Stats struct {
	// Strategy is the access path the planner chose; the executor leaves
	// it zero and the table's planner sets it.
	Strategy Strategy
	// BlocksTotal is the number of blocks in the snapshot.
	BlocksTotal int
	// BlocksPruned counts candidate blocks skipped on their φ-fence alone,
	// without touching the pager.
	BlocksPruned int
	// BlocksRead counts blocks brought in from the pool and decoded (full
	// or partial): the paper's N (Section 5.3.3).
	BlocksRead int
	// PartialDecodes counts blocks where only the qualifying span was
	// decoded; FullDecodes counts whole-block decodes.
	PartialDecodes int
	FullDecodes    int
	// Matches counts tuples passed to emit.
	Matches int
	// ArenaReuses counts blocks decoded into an arena whose slab capacity
	// was carried over from an earlier block (Transient passes only).
	ArenaReuses int
	// SlabBytes is the arena slab capacity backing the pass: the pooled
	// arena's final footprint for Transient passes, the sum of per-block
	// arena footprints otherwise — on the flat partial path, the pooled
	// scratch arena plus the slab of retained rows.
	SlabBytes int
	// FlatPathHits counts straddling blocks whose span was located by the
	// flat-ordinal (single-uint64 φ) walk instead of chain-probe search.
	FlatPathHits int
	// BatchBlocks counts blocks the columnar batch path decoded as whole
	// φ-ordinal slabs; SlabRows is the total rows those slabs carried
	// before predicate compaction.
	BatchBlocks int
	SlabRows    int
}

// Add sums o's counts into s, so several passes (a sharded read's
// shards, a join's blocks on one side) report as one. Strategy is a
// label, not a count: s keeps its own.
func (s *Stats) Add(o Stats) {
	s.BlocksTotal += o.BlocksTotal
	s.BlocksPruned += o.BlocksPruned
	s.BlocksRead += o.BlocksRead
	s.PartialDecodes += o.PartialDecodes
	s.FullDecodes += o.FullDecodes
	s.Matches += o.Matches
	s.ArenaReuses += o.ArenaReuses
	s.SlabBytes += o.SlabBytes
	s.FlatPathHits += o.FlatPathHits
	s.BatchBlocks += o.BatchBlocks
	s.SlabRows += o.SlabRows
}

// boundOf splits the plan's conjunction into the clustering bound (the
// first predicate on attribute 0, if any; the table's planner intersects
// them into one) and the rest. Only attribute 0
// is monotone in clustered order, so only it can prune blocks by fence.
func boundOf(preds []Pred) (bound *Pred, rest []Pred) {
	for i := range preds {
		if preds[i].Attr == 0 && bound == nil {
			bound = &preds[i]
			continue
		}
		rest = append(rest, preds[i])
	}
	return bound, rest
}

// RunContext streams the snapshot's tuples matching the plan to emit, in
// φ order. emit returning false stops the pass early. Cancellation is
// checked at every block boundary — before the next decode — so an aborted
// pass returns promptly with no frames pinned. The returned Stats are
// valid on error too, reflecting the work done up to it. On return (any path) the pass's Stats are folded
// into the snapshot's ExecMetrics when the store carries a registry.
func RunContext(ctx context.Context, sn *blockstore.Snapshot, plan Plan, emit func(relation.Tuple) bool) (Stats, error) {
	st, err := runContext(ctx, sn, plan, emit)
	foldStats(sn, st)
	return st, err
}

// foldStats adds a pass's counters into the store's pre-resolved exec
// instruments: one atomic add per counter, no locks, nothing when the
// store has no registry.
func foldStats(sn *blockstore.Snapshot, st Stats) {
	m := sn.Metrics()
	if m == nil {
		return
	}
	m.BlocksRead.Add(int64(st.BlocksRead))
	m.BlocksPruned.Add(int64(st.BlocksPruned))
	m.PartialDecodes.Add(int64(st.PartialDecodes))
	m.FullDecodes.Add(int64(st.FullDecodes))
	m.Rows.Add(int64(st.Matches))
	if m.ArenaReuses != nil {
		m.ArenaReuses.Add(int64(st.ArenaReuses))
		m.SlabBytes.Add(int64(st.SlabBytes))
		m.FlatHits.Add(int64(st.FlatPathHits))
	}
	if m.BatchBlocks != nil {
		m.BatchBlocks.Add(int64(st.BatchBlocks))
		m.SlabRows.Add(int64(st.SlabRows))
	}
}

// pass carries one streaming pass's per-block scratch: the stats being
// accumulated, the pooled arena for Transient plans, and what the partial
// path reuses across the blocks it reads.
type pass struct {
	sn     *blockstore.Snapshot
	st     Stats
	pooled *core.Arena // non-nil iff the plan is Transient
	// digits extracts each attribute from a flat ordinal; the flat partial
	// path builds them on first use.
	digits []core.DigitExtractor
}

// arena returns the arena the next block decodes into: the pooled one,
// Reset (its slab capacity surviving), for Transient plans; a fresh arena
// otherwise, since the caller may retain the emitted tuples indefinitely.
func (p *pass) arena() *core.Arena {
	if p.pooled != nil {
		if p.pooled.SlabBytes() > 0 {
			p.st.ArenaReuses++
		}
		p.pooled.Reset()
		return p.pooled
	}
	return core.NewArena()
}

func runContext(ctx context.Context, sn *blockstore.Snapshot, plan Plan, emit func(relation.Tuple) bool) (Stats, error) {
	p := &pass{sn: sn, st: Stats{BlocksTotal: sn.NumBlocks()}}
	if plan.Transient {
		p.pooled = core.GetArena()
		defer core.PutArena(p.pooled)
	}
	err := p.run(ctx, plan, emit)
	if p.pooled != nil {
		p.st.SlabBytes += p.pooled.SlabBytes()
	}
	return p.st, err
}

func (p *pass) run(ctx context.Context, plan Plan, emit func(relation.Tuple) bool) error {
	sn, st := p.sn, &p.st
	bound, rest := boundOf(plan.Preds)
	// Packed blocks keep to the full-decode path: a bit-level skip still
	// reads every stepped-over difference's count field, so a span decode
	// saves them little.
	partialOK := !plan.NoPartial && sn.Codec() != core.CodecPacked
	n := sn.NumBlocks()
	start := seekBound(sn, plan.Candidates, bound, st)
	for i := start; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if plan.Candidates != nil {
			if _, ok := plan.Candidates[sn.Block(i)]; !ok {
				continue
			}
		}
		f := sn.Fence(i)
		// Blocks are clustered and non-overlapping: once a block starts
		// beyond the range, every later block does too.
		if bound != nil && f.First[0] > bound.Hi {
			st.BlocksPruned += countCandidates(sn, plan.Candidates, i, n)
			return nil
		}
		straddle := bound != nil && (f.First[0] < bound.Lo || f.Last[0] > bound.Hi)
		var stop bool
		var err error
		switch {
		case straddle && partialOK:
			stop, err = p.runPartial(i, f.Restarts, *bound, rest, emit)
		case straddle:
			stop, err = p.runFull(i, plan.Preds, emit)
		default:
			// The fence lies inside the bound (or there is none): every
			// row satisfies it, so only the residual conjuncts filter.
			stop, err = p.runFull(i, rest, emit)
		}
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
		if bound != nil && f.Last[0] > bound.Hi {
			// The range ends inside this block; the remainder is prunable.
			st.BlocksPruned += countCandidates(sn, plan.Candidates, i+1, n)
			return nil
		}
	}
	return nil
}

// seekBound returns the block a pass starts at: the first whose fence can
// reach the clustering bound (block 0 without one), found on the
// snapshot's fence array. The candidates it skips are pruned on their
// fence alone and counted as such.
func seekBound(sn *blockstore.Snapshot, cand map[storage.PageID]struct{}, bound *Pred, st *Stats) int {
	if bound == nil {
		return 0
	}
	start := sn.SeekAttr0(bound.Lo)
	st.BlocksPruned += countCandidates(sn, cand, 0, start)
	return start
}

// countCandidates counts candidate blocks in positions [from, n): the
// blocks a fence seek or break skips without visiting.
func countCandidates(sn *blockstore.Snapshot, cand map[storage.PageID]struct{}, from, n int) int {
	if cand == nil {
		return n - from
	}
	c := 0
	for i := from; i < n; i++ {
		if _, ok := cand[sn.Block(i)]; ok {
			c++
		}
	}
	return c
}

// runPartial decodes only the qualifying span of a straddling block, its
// walk starting at the block's restart directory dir: the last restart
// before the span, not the anchor. On a flat schema one ordinal-space walk
// (core.PhiSpanSlab) both locates the span and yields its φ values: the
// bound is evaluated before any tuple is materialized, residual conjuncts
// are digit tests on the ordinals, and only the rows that pass become
// tuples, by digit extraction. Otherwise core.DecodeAttr0SpanArena walks
// the restarts bracketing the bound in tuple space and clips the run.
// Either way tuples in the span satisfy the bound by construction and only
// the residual conjuncts filter.
func (p *pass) runPartial(i int, dir *core.Restarts, bound Pred, rest []Pred, emit func(relation.Tuple) bool) (stop bool, err error) {
	st, s := &p.st, p.sn.Schema()
	if w, ok := s.FlatWeights(); ok {
		return p.runFlatSpan(i, dir, w, bound, rest, emit)
	}
	a := p.arena()
	if p.pooled == nil {
		// Every exit accounts the block's arena, an empty span included.
		defer func() { st.SlabBytes += a.SlabBytes() }()
	}
	var span []relation.Tuple
	err = p.viewSpan(i, func(stream []byte) (err error) {
		span, err = core.DecodeAttr0SpanArena(s, stream, bound.Lo, bound.Hi, dir, a)
		return err
	})
	if err != nil {
		return false, err
	}
	return p.emitAll(span, rest, emit), nil
}

// viewSpan runs a span decode of block i on the coded stream in its pinned
// frame (Snapshot.ViewStream) and reports the decode's failure as the
// block's corruption, as a full decode reports its own. decode must leave
// nothing aliasing the stream; the rows are filtered and emitted only
// after the view returns, so caller code never runs with the page pinned.
func (p *pass) viewSpan(i int, decode func(stream []byte) error) error {
	return p.sn.ViewStream(i, func(stream []byte) error {
		p.st.BlocksRead++
		p.st.PartialDecodes++
		if err := decode(stream); err != nil {
			return fmt.Errorf("%w: page %d: %w", blockstore.ErrCorruptBlock, p.sn.Block(i), err)
		}
		return nil
	})
}

// runFlatSpan is runPartial on a flat schema. The walk's φ scratch comes
// from a pooled arena (the pass's own on a Transient plan). The rows a
// Transient plan emits are carved from that arena too; any other plan's
// rows may be retained by the caller, so they go into one exact-size slab
// of their own.
func (p *pass) runFlatSpan(i int, dir *core.Restarts, w []uint64, bound Pred, rest []Pred, emit func(relation.Tuple) bool) (stop bool, err error) {
	st, s := &p.st, p.sn.Schema()
	var a *core.Arena
	var rows []relation.Tuple
	if p.pooled != nil {
		a = p.arena()
	} else {
		a = core.GetArena()
		defer core.PutArena(a)
		// Every exit accounts the scratch and the retained slab, an empty
		// span included.
		defer func() { st.SlabBytes += a.SlabBytes() + slabBytes(rows) }()
	}
	// The clustering bound [lo, hi] on attribute 0 is exactly the φ
	// interval [lo*w0, hi*w0 + (w0-1)]: every tuple with A_0 in range lands
	// there regardless of its remaining digits. Clamp hi to the domain
	// first so the products stay inside the (64-bit) space.
	hi := min(bound.Hi, s.Domain(0).Size-1)
	var phis []uint64
	err = p.viewSpan(i, func(stream []byte) (err error) {
		phis, err = core.PhiSpanSlab(s, stream, bound.Lo*w[0], hi*w[0]+(w[0]-1), dir, a)
		return err
	})
	if err != nil {
		return false, err
	}
	st.FlatPathHits++
	if p.digits == nil {
		p.digits = digitsOf(s, w)
	}
	dig := p.digits
	keep := phis[:0]
	for _, phi := range phis {
		if matchesPhi(rest, dig, phi) {
			keep = append(keep, phi)
		}
	}
	n := len(dig)
	if p.pooled != nil {
		rows = a.Tuples(len(keep), n)
	} else {
		vals := make([]uint64, len(keep)*n)
		rows = make([]relation.Tuple, len(keep))
		for j := range rows {
			rows[j] = vals[j*n : (j+1)*n : (j+1)*n]
		}
	}
	for j, phi := range keep {
		tu := rows[j]
		for g := range tu {
			tu[g] = dig[g].Digit(phi)
		}
	}
	return p.emitAll(rows, nil, emit), nil
}

// digitsOf builds one extractor per attribute of a flat schema with
// weights w, strength-reduced once per pass.
func digitsOf(s *relation.Schema, w []uint64) []core.DigitExtractor {
	dig := make([]core.DigitExtractor, len(w))
	for g := range dig {
		dig[g] = core.NewDigitExtractor(w[g], s.Domain(g).Size)
	}
	return dig
}

// matchesPhi is matchesAll on a flat ordinal.
func matchesPhi(preds []Pred, dig []core.DigitExtractor, phi uint64) bool {
	for _, p := range preds {
		if v := dig[p.Attr].Digit(phi); v < p.Lo || v > p.Hi {
			return false
		}
	}
	return true
}

// slabBytes is the footprint of rows carved from one exact-size slab: its
// digits plus one slice header per row.
func slabBytes(rows []relation.Tuple) int {
	const hdrSize = 24 // slice header: pointer + len + cap
	if len(rows) == 0 {
		return 0
	}
	return len(rows) * (len(rows[0])*8 + hdrSize)
}

// emitAll passes the tuples satisfying preds to emit, counting matches; it
// reports whether emit stopped the pass.
func (p *pass) emitAll(tuples []relation.Tuple, preds []Pred, emit func(relation.Tuple) bool) (stop bool) {
	for _, tu := range tuples {
		if !matchesAll(preds, tu) {
			continue
		}
		p.st.Matches++
		if !emit(tu) {
			return true
		}
	}
	return false
}

// runFull decodes the whole block and filters every conjunct.
func (p *pass) runFull(i int, preds []Pred, emit func(relation.Tuple) bool) (stop bool, err error) {
	sn, st := p.sn, &p.st
	a := p.arena()
	tuples, err := sn.ReadBlockArena(i, a)
	if err != nil {
		return false, err
	}
	st.BlocksRead++
	st.FullDecodes++
	if p.pooled == nil {
		st.SlabBytes += a.SlabBytes()
	}
	return p.emitAll(tuples, preds, emit), nil
}

// matchesAll reports whether tu satisfies every conjunct.
func matchesAll(preds []Pred, tu relation.Tuple) bool {
	for _, p := range preds {
		if !p.matches(tu) {
			return false
		}
	}
	return true
}
