package exec

import (
	"context"

	"repro/internal/blockstore"
	"repro/internal/relation"
)

// Iterator is a pull iterator over a snapshot in φ order, decoding one
// block at a time — constant memory regardless of table size, the
// property block-local coding (Section 3.3) exists to provide. The
// tuple-at-a-time merge join is built on it.
type Iterator struct {
	sn   *blockstore.Snapshot
	ctx  context.Context
	next int // next block position to fill from
	cur  []relation.Tuple
	pos  int
	done bool
	// released marks that Release already folded Stats into the store's
	// exec instruments.
	released bool
	// Stats accumulates block accounting across Next calls.
	Stats Stats
}

// NewIteratorContext returns an iterator positioned before the first
// tuple. The context is checked at every block boundary (each fill), so
// cancelling it makes the next Next fail before another decode.
func NewIteratorContext(ctx context.Context, sn *blockstore.Snapshot) *Iterator {
	return &Iterator{sn: sn, ctx: ctx, Stats: Stats{BlocksTotal: sn.NumBlocks()}}
}

// Release unpins the iterator's snapshot and folds its accumulated Stats
// into the store's exec instruments. It is idempotent (the fold happens
// once); the iterator must not be used afterwards.
func (it *Iterator) Release() {
	if !it.released {
		it.released = true
		foldStats(it.sn, it.Stats)
	}
	it.sn.Release()
}

// Next returns the next tuple, or ok=false at the end.
func (it *Iterator) Next() (relation.Tuple, bool, error) {
	if it.done {
		return nil, false, nil
	}
	for it.pos >= len(it.cur) {
		if it.next >= it.sn.NumBlocks() {
			it.done = true
			return nil, false, nil
		}
		if err := it.fill(); err != nil {
			return nil, false, err
		}
	}
	tu := it.cur[it.pos]
	it.pos++
	return tu, true, nil
}

// fill decodes the next block into the window and advances past it.
func (it *Iterator) fill() error {
	if it.ctx != nil {
		if err := it.ctx.Err(); err != nil {
			return err
		}
	}
	tuples, err := it.sn.ReadBlock(it.next)
	if err != nil {
		return err
	}
	it.Stats.BlocksRead++
	it.Stats.FullDecodes++
	it.next++
	it.cur = tuples
	it.pos = 0
	return nil
}
