package blockstore

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ordinal"
	"repro/internal/relation"
)

// Check is the deep runtime invariant checker, in the spirit of
// btree.CheckInvariants: beyond the layout checks of CheckInvariants it
// validates every block at the coded level.
//
// Per block it verifies:
//   - the page header: the stream-length prefix fits the page capacity;
//   - the coded stream: magic byte, CRC, a codec matching the store's, a
//     header tuple count agreeing with what actually decodes, and a
//     representative index (from Inspect, never a decode) that anchors the
//     tuple the full decode places there;
//   - that the stream is canonical: byte-identical to core.EncodeBlock of
//     its own decoded tuples, so a block a mutation edited in place
//     (core.EditBlock) is indistinguishable from one re-coded whole;
//   - that every stored difference decodes back to a tuple inside the
//     schema's φ space (every digit below its domain size) and inside the
//     block's φ range — at or after the block's first (representative-
//     anchored) tuple and strictly before the next block's first tuple,
//     taken from the successor's φ-fence so no block is decoded twice;
//   - that the fence's restart directory walks the whole block to the
//     tuples of the full decode (only a byte-RLE block of two or more
//     tuples has one);
//   - representative-tuple ordering across blocks, cross-checked with the
//     arbitrary-precision φ of each block's first tuple, so a bug in the
//     digit-wise comparator cannot hide a mis-ordered layout.
//
// Tests and the avqtool verify path use it; it reads every block through
// the pool, so it is O(data) and not for hot paths.
func (s *Store) Check() error {
	if err := s.CheckInvariants(); err != nil {
		return err
	}
	m := s.man.Load()
	for i, id := range m.pages() {
		if err := s.viewStream(id, func(stream []byte) error { return s.checkBlock(m, i, stream) }); err != nil {
			return err
		}
	}
	return nil
}

// checkBlock is Check of block i of m, whose coded stream is stream.
func (s *Store) checkBlock(m *manifest, i int, stream []byte) error {
	info, err := core.Inspect(stream)
	if err != nil {
		return fmt.Errorf("%w: check block %d: %w", ErrCorruptBlock, i, err)
	}
	if info.Codec != s.codec {
		return fmt.Errorf("blockstore: block %d coded with %v, store uses %v", i, info.Codec, s.codec)
	}

	// Every stored difference must decode back to a tuple in range.
	tuples, err := core.DecodeBlockArena(s.schema, stream, nil)
	if err != nil {
		return fmt.Errorf("blockstore: check block %d: %w", i, err)
	}
	if len(tuples) != info.TupleCount {
		return fmt.Errorf("blockstore: block %d header says %d tuples, %d decoded", i, info.TupleCount, len(tuples))
	}
	if info.RepIndex < 0 || info.RepIndex >= len(tuples) {
		return fmt.Errorf("blockstore: block %d representative index %d out of range [0,%d)", i, info.RepIndex, len(tuples))
	}
	anchor, err := core.DecodeTupleAtArena(s.schema, stream, info.RepIndex, nil)
	if err != nil {
		return fmt.Errorf("blockstore: check block %d anchor: %w", i, err)
	}
	if s.schema.Compare(anchor, tuples[info.RepIndex]) != 0 {
		return fmt.Errorf("blockstore: block %d anchor decode disagrees with full decode at ordinal %d", i, info.RepIndex)
	}
	canon, err := core.EncodeBlock(s.codec, s.schema, tuples, nil)
	if err != nil {
		return fmt.Errorf("blockstore: check block %d re-encode: %w", i, err)
	}
	if !bytes.Equal(canon, stream) {
		return fmt.Errorf("blockstore: block %d stream (%d bytes) is not the EncodeBlock stream of its tuples (%d bytes)", i, len(stream), len(canon))
	}
	// The fence's restart directory must walk the whole block to the
	// same tuples, every entry checked on the way.
	dir := m.fence(i).Restarts
	want, err := core.BlockRestarts(s.schema, stream, tuples)
	if err != nil {
		return fmt.Errorf("blockstore: check block %d restarts: %w", i, err)
	}
	if (dir != nil) != (want != nil) {
		return fmt.Errorf("blockstore: block %d fence has restart directory %v for a %d-tuple %v block", i, dir != nil, len(tuples), s.codec)
	}
	if dir != nil {
		walked, err := core.DecodeAttr0SpanArena(s.schema, stream, 0, math.MaxUint64, dir, nil)
		if err != nil {
			return fmt.Errorf("blockstore: check block %d restarts: %w", i, err)
		}
		if len(walked) != len(tuples) {
			return fmt.Errorf("blockstore: block %d: the walk from its restarts yields %d of %d tuples", i, len(walked), len(tuples))
		}
		for j, tu := range walked {
			if s.schema.Compare(tu, tuples[j]) != 0 {
				return fmt.Errorf("blockstore: block %d: the walk from its restarts disagrees with the full decode at ordinal %d", i, j)
			}
		}
	}
	var next relation.Tuple // first tuple of the following block, if any
	if i+1 < m.n {
		next = m.fence(i + 1).First
	}
	for j, tu := range tuples {
		if err := s.schema.ValidateTuple(tu); err != nil {
			return fmt.Errorf("blockstore: block %d tuple %d outside schema space: %w", i, j, err)
		}
		if s.schema.Compare(tu, tuples[0]) < 0 {
			return fmt.Errorf("blockstore: block %d tuple %d below the block's first tuple", i, j)
		}
		if next != nil && s.schema.Compare(tu, next) > 0 {
			return fmt.Errorf("blockstore: block %d tuple %d beyond the next block's first tuple", i, j)
		}
	}

	// Representative ordering, cross-checked in exact arithmetic.
	if next != nil {
		digitCmp := s.schema.Compare(tuples[0], next)
		phiCmp := ordinal.Phi(s.schema, tuples[0]).Cmp(ordinal.Phi(s.schema, next))
		if digitCmp > 0 {
			return fmt.Errorf("blockstore: block %d first tuple above block %d first tuple", i, i+1)
		}
		if (digitCmp < 0) != (phiCmp < 0) || (digitCmp == 0) != (phiCmp == 0) {
			return fmt.Errorf("blockstore: blocks %d/%d: digit comparison %d disagrees with φ comparison %d", i, i+1, digitCmp, phiCmp)
		}
	}
	return nil
}
