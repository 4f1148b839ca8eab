package table

import (
	"context"

	"repro/internal/relation"
)

// InsertBatchContext inserts many tuples under one exclusive lock with one
// decode and edit per affected block instead of one per tuple: the batch
// is sorted into phi order and the store merges each run that shares a
// home block into that block with one rewrite. Semantically
// identical to calling InsertContext in a loop (duplicates allowed);
// typically an order of magnitude faster for large batches. Cancellation
// is observed between block rewrites, leaving the table consistent with
// the runs merged so far. In WAL mode the whole batch is logged as one
// record and group-committed, outside the lock, before returning; a
// partial failure logs an abort plus a re-log of the prefix that did
// apply, so replay reproduces exactly the state the caller observed.
func (t *Table) InsertBatchContext(ctx context.Context, tuples []relation.Tuple) error {
	t.mu.Lock()
	lsn, err := t.insertBatchLogged(ctx, tuples)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return t.walCommit(lsn)
}

// insertBatchLogged validates, sorts, logs, and applies a batch insert
// under the exclusive lock, returning the LSN to commit (see insertLogged).
func (t *Table) insertBatchLogged(ctx context.Context, tuples []relation.Tuple) (uint64, error) {
	if len(tuples) == 0 {
		return 0, nil
	}
	sp := t.opts.Obs.StartOp("insert_batch")
	defer sp.End()
	sp.Detailf("%d tuples", len(tuples))
	batch := make([]relation.Tuple, len(tuples))
	for i, tu := range tuples {
		if err := t.schema.ValidateTuple(tu); err != nil {
			return 0, err
		}
		batch[i] = tu.Clone()
	}
	t.schema.SortTuples(batch)
	lsn, err := t.logRecord(recInsertBatch, batch...)
	if err != nil {
		return 0, err
	}
	applied := 0
	if err := t.insertBatchApply(ctx, batch, &applied); err != nil {
		t.logAbort(lsn)
		if applied > 0 {
			// Re-log the prefix that did apply. Left buffered (not
			// committed): the caller saw an error, so no durability was
			// promised; any later commit carries it, matching memory.
			if _, rerr := t.logRecord(recInsertBatch, batch[:applied]...); rerr != nil {
				_ = rerr
			}
		}
		return 0, err
	}
	return lsn, nil
}

// insertBatchApply merges a validated, phi-sorted batch into the table
// without logging, one store run (the tuples sharing a home block) at a
// time. If applied is non-nil it is advanced as runs land, so a failing
// caller knows which prefix of batch is actually in the table.
func (t *Table) insertBatchApply(ctx context.Context, batch []relation.Tuple, applied *int) error {
	for len(batch) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, n, err := t.store.MergeRun(batch)
		if err != nil {
			return err
		}
		t.applyMutation(res)
		t.size += n
		if applied != nil {
			*applied += n
		}
		batch = batch[n:]
	}
	return nil
}

// walCheckpoint folds the current state into a durable catalog when a WAL
// is attached. Bulk operations (bulk load, compact) are not logged — their
// payload is the whole relation — so they reach durability by
// checkpointing on success instead. The caller holds mu exclusively.
func (t *Table) walCheckpoint() error {
	if t.wal == nil {
		return nil
	}
	return t.checkpoint()
}

// DeleteWhereContext removes every tuple matching the conjunction and
// returns how many were removed. It collects the matches and deletes them
// block by block under one exclusive lock hold, so no writer slips between
// the select and the deletes. Cancellation is observed between deletes, so
// the removed count stays accurate. In WAL mode the matched set is logged
// as one record and group-committed once, outside the lock; a partial
// failure logs an abort plus a re-log of the deleted prefix.
func (t *Table) DeleteWhereContext(ctx context.Context, preds []Predicate) (int, error) {
	t.mu.Lock()
	removed, lsn, err := t.deleteWhereLogged(ctx, preds)
	t.mu.Unlock()
	if err != nil {
		return removed, err
	}
	return removed, t.walCommit(lsn)
}

// deleteWhereLogged selects, logs, and applies a predicate delete under
// the exclusive lock, returning the LSN to commit.
func (t *Table) deleteWhereLogged(ctx context.Context, preds []Predicate) (removed int, lsn uint64, err error) {
	r, err := t.planSelect(preds)
	if err != nil {
		return 0, 0, err
	}
	matches, _, err := r.collect(ctx)
	if err != nil || len(matches) == 0 {
		return 0, 0, err
	}
	lsn, err = t.logRecord(recDeleteBatch, matches...)
	if err != nil {
		return 0, 0, err
	}
	for i, tu := range matches {
		ok, err := t.deleteApply(ctx, tu)
		if err != nil {
			t.logAbort(lsn)
			if i > 0 {
				// matches[:i] were all attempted; deletes of absent tuples
				// are no-ops at replay, so the prefix re-log is exact.
				if _, rerr := t.logRecord(recDeleteBatch, matches[:i]...); rerr != nil {
					_ = rerr
				}
			}
			return removed, 0, err
		}
		if ok {
			removed++
		}
	}
	return removed, lsn, nil
}

// CompactContext rewrites the relation into freshly packed blocks under
// the exclusive lock, reclaiming the slack that accumulates as deletions
// shrink blocks below the packing target (Section 3.4's
// minimal-unused-space rule degrades under churn). Secondary indexes are
// rebuilt. It
// returns the block counts before and after. Cancellation is observed only
// during the initial collection scan: once the old layout is torn down the
// rewrite runs to completion so the table is never left empty.
func (t *Table) CompactContext(ctx context.Context) (before, after int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.opts.Obs.StartOp("compact")
	defer sp.End()
	before = t.store.NumBlocks()
	var all []relation.Tuple
	scan, err := t.planSelect(nil)
	if err != nil {
		return before, before, err
	}
	scan.op = "scan"
	if _, err := scan.runCtx(ctx, func(tu relation.Tuple) bool {
		all = append(all, tu)
		return true
	}); err != nil {
		return before, before, err
	}
	// Tear down the old layout.
	if err := t.store.Reset(); err != nil {
		return before, before, err
	}
	for attr := range t.secondary {
		t.secondary[attr] = newSecIndex(t.opts)
	}
	t.size = 0

	// Reload tightly packed, deaf to cancellation: the old layout is
	// already torn down, so aborting here would leave the table empty.
	ctx = context.WithoutCancel(ctx)
	if _, err := t.store.BulkLoadContext(ctx, all); err != nil {
		return before, before, err
	}
	if err := t.indexBlocks(ctx); err != nil {
		return before, before, err
	}
	t.size = len(all)
	return before, t.store.NumBlocks(), t.walCheckpoint()
}
