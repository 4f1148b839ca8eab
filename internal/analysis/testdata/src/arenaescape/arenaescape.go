// Package arenaescape is an analyzer fixture: slab-backed tuples retained
// past their arena's Reset, and correct transient, cloned, laundered, or
// reassigned uses. The goodReassign and keepAfterJoin cases are the two
// the old flow-insensitive arenaalias rule got wrong in each direction.
package arenaescape

import (
	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/relation"
)

type sink struct {
	block []relation.Tuple
	last  relation.Tuple
	out   chan relation.Tuple
}

// keepBlock retains the whole decoded slice in a field.
func (k *sink) keepBlock(s *relation.Schema, buf []byte, a *core.Arena) error {
	ts, err := core.DecodeBlockArena(s, buf, a)
	if err != nil {
		return err
	}
	k.block = ts
	return nil
}

// keepElement retains one slab-backed element through append.
func (k *sink) keepElement(s *relation.Schema, buf []byte, a *core.Arena) error {
	ts, err := core.DecodeTupleSpanArena(s, buf, 0, 4, a)
	if err != nil {
		return err
	}
	k.block = append(k.block, ts[0])
	return nil
}

// sendCarve sends an arena carve on a channel.
func (k *sink) sendCarve(a *core.Arena, n int) {
	tu := a.Tuple(n)
	k.out <- tu
}

// keepAlias retains a slab element through an intermediate alias.
func (k *sink) keepAlias(s *relation.Schema, buf []byte, a *core.Arena) error {
	ts, err := core.DecodeBlockArena(s, buf, a)
	if err != nil {
		return err
	}
	u := ts[0]
	k.last = u
	return nil
}

// keepAfterJoin stores a value that is slab-backed on one of the two
// paths reaching the store; the taint survives the merge.
func (k *sink) keepAfterJoin(s *relation.Schema, buf []byte, a *core.Arena, hot bool) error {
	var ts []relation.Tuple
	if hot {
		var err error
		ts, err = core.DecodeBlockArena(s, buf, a)
		if err != nil {
			return err
		}
	} else {
		ts = make([]relation.Tuple, 0)
	}
	k.block = ts
	return nil
}

// goodClone retains a copy, which owns its memory.
func (k *sink) goodClone(s *relation.Schema, buf []byte, a *core.Arena) error {
	ts, err := core.DecodeBlockArena(s, buf, a)
	if err != nil {
		return err
	}
	k.last = ts[0].Clone()
	return nil
}

// goodTransient folds over the tuples without retaining them.
func goodTransient(s *relation.Schema, buf []byte, a *core.Arena) (uint64, error) {
	ts, err := core.DecodeBlockArena(s, buf, a)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, tu := range ts {
		for _, v := range tu {
			sum += v
		}
	}
	return sum, nil
}

// goodReassign rebinds the variable to fresh memory before the store; the
// old flow-insensitive rule flagged this false positive.
func (k *sink) goodReassign(s *relation.Schema, buf []byte, a *core.Arena) (int, error) {
	ts, err := core.DecodeBlockArena(s, buf, a)
	if err != nil {
		return 0, err
	}
	n := len(ts)
	ts = make([]relation.Tuple, 0, n)
	k.block = ts
	return n, nil
}

// goodReturn hands the slab-backed tuples to the caller, who passed the
// arena in and inherits its lifetime with it.
func goodReturn(s *relation.Schema, buf []byte, a *core.Arena) ([]relation.Tuple, error) {
	ts, err := core.DecodeBlockArena(s, buf, a)
	if err != nil {
		return nil, err
	}
	return ts, nil
}

// suppressed documents a deliberate retention: the arena outlives the
// struct by construction here.
func (k *sink) suppressed(s *relation.Schema, buf []byte, a *core.Arena) error {
	ts, err := core.DecodeBlockArena(s, buf, a)
	if err != nil {
		return err
	}
	//avqlint:ignore arenaescape the arena is owned by k and never Reset
	k.block = ts
	return nil
}

// phiSink exercises the φ-slab half of the rule: the batch executor's
// []uint64 ordinal slabs are carved from the same arenas as tuples.
type phiSink struct {
	phis []uint64
	out  chan []uint64
}

// keepPhis retains a φ slab read straight off a snapshot block.
func (k *phiSink) keepPhis(sn *blockstore.Snapshot, a *core.Arena) error {
	phis, _, err := sn.ReadPhis(0, a, nil)
	if err != nil {
		return err
	}
	k.phis = phis
	return nil
}

// keepDecodedPhis retains a stream-decoded φ slab through an alias.
func (k *phiSink) keepDecodedPhis(s *relation.Schema, buf []byte, a *core.Arena) error {
	phis, err := core.DecodeBlockPhis(s, buf, a)
	if err != nil {
		return err
	}
	tail := phis[1:]
	k.phis = tail
	return nil
}

// sendPhis sends an arena φ carve on a channel.
func (k *phiSink) sendPhis(a *core.Arena, n int) {
	phis := a.Phis(n)
	k.out <- phis
}

// goodTransientPhis folds over the slab without retaining it.
func goodTransientPhis(sn *blockstore.Snapshot, a *core.Arena) (uint64, error) {
	phis, _, err := sn.ReadPhis(0, a, nil)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, phi := range phis {
		sum += phi
	}
	return sum, nil
}

// goodCopyPhis retains a copy that owns its memory — the φ-slab
// equivalent of Clone.
func (k *phiSink) goodCopyPhis(s *relation.Schema, buf []byte, a *core.Arena) error {
	phis, err := core.DecodeBlockPhis(s, buf, a)
	if err != nil {
		return err
	}
	out := make([]uint64, len(phis))
	copy(out, phis)
	k.phis = out
	return nil
}
