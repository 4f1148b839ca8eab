// Package snapflow is an analyzer fixture: manifest snapshots proven
// released (or leaked) along every control-flow path. An unreleased
// snapshot pins the refcount gating parked-page frees, so the leaks here
// are quieter and worse than memory.
package snapflow

import (
	"repro/internal/blockstore"
)

type cursor struct {
	sn *blockstore.Snapshot
}

// statsLeak is Store.ComputeStats with its deferred Release dropped: the
// snapshot is never released. No test, race run or LiveSnapshots
// assertion caught that mutation in the real code.
func statsLeak(s *blockstore.Store) int {
	sn := s.Snapshot()
	return sn.NumBlocks()
}

// branchLeak releases on the early-exit path only.
func branchLeak(s *blockstore.Store, limit int) int {
	sn := s.Snapshot()
	n := sn.NumBlocks()
	if n > limit {
		sn.Release()
		return limit
	}
	return n
}

// discardExpr acquires a snapshot nothing can ever release.
func discardExpr(s *blockstore.Store) {
	s.Snapshot()
}

// suppressedLeak is a known leak with a justification.
func suppressedLeak(s *blockstore.Store) int {
	sn := s.Snapshot() //avqlint:ignore snapflow fixture: proves suppression works
	return sn.NumBlocks()
}

// goodDefer releases every path past the registration: clean.
func goodDefer(s *blockstore.Store) int {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.NumBlocks()
}

// goodBothBranches releases on every branch: clean.
func goodBothBranches(s *blockstore.Store, limit int) int {
	sn := s.Snapshot()
	n := sn.NumBlocks()
	if n > limit {
		sn.Release()
		return limit
	}
	sn.Release()
	return n
}

// goodReturn hands the snapshot to the caller, which owns the release.
func goodReturn(s *blockstore.Store) *blockstore.Snapshot {
	sn := s.Snapshot()
	return sn
}

// goodFieldStore escapes at birth: the cursor owns the release.
func (c *cursor) goodFieldStore(s *blockstore.Store) {
	c.sn = s.Snapshot()
}

// goodHandoff transfers the obligation to a helper.
func goodHandoff(s *blockstore.Store) int {
	sn := s.Snapshot()
	return drain(sn)
}

func drain(sn *blockstore.Snapshot) int {
	defer sn.Release()
	return sn.NumBlocks()
}
