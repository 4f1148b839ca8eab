package table

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/relation"
	"repro/internal/wal"
)

// Durability selects the crash-durability contract of a persistent table.
type Durability uint8

const (
	// DurabilityCheckpoint is the legacy contract: mutations become
	// durable at Checkpoint/Close; a crash rolls back to the last
	// checkpoint.
	DurabilityCheckpoint Durability = iota
	// DurabilityWAL logs every mutation to a write-ahead log before
	// applying it and group-commits the log, so a mutation is durable
	// when its call returns. Open replays the log on top of the last
	// checkpoint, recovering the acknowledged suffix a crash would
	// otherwise lose.
	DurabilityWAL
)

// WAL record kinds. Payloads are the table's logical mutation language:
// replay re-executes them against the checkpoint-restored state, which is
// sound because block rewrites are copy-on-write and freed pages are not
// reused until the next durable catalog (the pages a replayed catalog
// references are never clobbered by post-checkpoint writes).
const (
	recInsert      = 1 // one tuple
	recDelete      = 2 // one tuple
	recInsertBatch = 3 // tuple count + tuples, phi-sorted
	recDeleteBatch = 4 // tuple count + tuples
	recAbort       = 5 // LSN of an earlier record whose apply failed
)

// walPath returns the log directory for the table's page file.
func walPath(path string) string { return path + ".wal" }

// walOptions assembles the log configuration from the table options.
func (t *Table) walOptions() wal.Options {
	return wal.Options{
		FS:          t.opts.FS,
		Dir:         walPath(t.opts.Path),
		SegmentSize: t.opts.WALSegmentSize,
		Obs:         t.opts.Obs,
	}
}

// encodeTupleRec serializes kind + tuples. Tuples are digit vectors of
// schema arity, so each is just NumAttrs uvarints.
func (t *Table) encodeTupleRec(kind byte, tuples ...relation.Tuple) []byte {
	buf := []byte{kind}
	buf = binary.AppendUvarint(buf, uint64(len(tuples)))
	for _, tu := range tuples {
		for _, d := range tu {
			buf = binary.AppendUvarint(buf, d)
		}
	}
	return buf
}

// decodeTupleRec parses the tuple payload of a recInsert/recDelete/
// recInsertBatch/recDeleteBatch record (after the kind byte).
func (t *Table) decodeTupleRec(body []byte) ([]relation.Tuple, error) {
	n, w := binary.Uvarint(body)
	if w <= 0 {
		return nil, fmt.Errorf("table: wal record truncated")
	}
	body = body[w:]
	arity := t.schema.NumAttrs()
	// Every digit is at least one uvarint byte, so the body bounds the
	// count before anything is allocated for it.
	if n > uint64(len(body)/arity) {
		return nil, fmt.Errorf("table: wal record claims %d tuples in %d bytes", n, len(body))
	}
	tuples := make([]relation.Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		tu := make(relation.Tuple, arity)
		for a := 0; a < arity; a++ {
			d, w := binary.Uvarint(body)
			if w <= 0 {
				return nil, fmt.Errorf("table: wal record truncated")
			}
			tu[a] = d
			body = body[w:]
		}
		tuples = append(tuples, tu)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("table: wal record has %d trailing bytes", len(body))
	}
	return tuples, nil
}

// logRecord appends one mutation record, returning its LSN (0 with no WAL
// attached). The record is buffered, not yet durable: pair with walCommit.
func (t *Table) logRecord(kind byte, tuples ...relation.Tuple) (uint64, error) {
	if t.wal == nil {
		return 0, nil
	}
	return t.wal.Append(t.encodeTupleRec(kind, tuples...))
}

// walCommit group-commits through lsn. The zero LSN (no WAL, or nothing
// logged) is a no-op. It must be called after releasing mu — committing
// outside the lock is what lets concurrent writers share one fsync — and
// may read t.wal there because the pointer is only written before the
// table is shared (Create, Open).
func (t *Table) walCommit(lsn uint64) error {
	if t.wal == nil || lsn == 0 {
		return nil
	}
	return t.wal.Commit(lsn)
}

// logAbort marks an earlier record as not-applied after its apply failed,
// so replay skips it. Best-effort: if the abort cannot be made durable the
// log is already poisoned and the apply error (which the caller is
// returning) is the primary failure.
func (t *Table) logAbort(lsn uint64) {
	if t.wal == nil || lsn == 0 {
		return
	}
	body := []byte{recAbort}
	body = binary.AppendUvarint(body, lsn)
	if _, err := t.wal.AppendCommit(body); err != nil {
		_ = err
	}
}

// attachWAL creates a fresh log for a just-created WAL-mode table.
func (t *Table) attachWAL() error {
	if !t.persistent() {
		return fmt.Errorf("table: WAL durability requires a path")
	}
	l, err := wal.Create(t.walOptions(), t.generation)
	if err != nil {
		return err
	}
	t.wal = l
	return nil
}

// attachWALReplay opens the table's log against the restored catalog
// generation, replays the surviving records, and checkpoints so the
// recovered state is itself durable (and the log truncated). Called by
// Open; crash-safe at any point: until the final checkpoint publishes, the
// old catalog and the full log remain on disk.
func (t *Table) attachWALReplay() error {
	sp := t.opts.Obs.StartOp("wal_replay")
	defer sp.End()
	l, records, err := wal.Open(t.walOptions(), t.generation)
	if err != nil {
		return err
	}
	t.wal = l
	// On any replay failure, detach and close the log WITHOUT rotating:
	// the caller must leave the on-disk log intact for the next attempt.
	fail := func(err error) error {
		err = errors.Join(err, t.wal.Close())
		t.wal = nil
		return err
	}
	if len(records) == 0 {
		sp.Detailf("0 records")
		return nil
	}
	// First pass: collect abort markers so the records they cancel are
	// skipped below.
	aborted := make(map[uint64]bool)
	for _, r := range records {
		if len(r.Payload) > 0 && r.Payload[0] == recAbort {
			lsn, w := binary.Uvarint(r.Payload[1:])
			if w <= 0 {
				return fail(fmt.Errorf("table: wal abort record truncated (lsn %d)", r.LSN))
			}
			aborted[lsn] = true
		}
	}
	applied := 0
	for _, r := range records {
		if aborted[r.LSN] || len(r.Payload) == 0 {
			continue
		}
		kind := r.Payload[0]
		if kind == recAbort {
			continue
		}
		tuples, err := t.decodeTupleRec(r.Payload[1:])
		if err != nil {
			return fail(fmt.Errorf("table: wal replay lsn %d: %w", r.LSN, err))
		}
		// Replay is deliberately ctx-blind: recovery must run to
		// completion or fail; there is no caller to hand a partial state
		// back to.
		if err := t.replayRecord(kind, tuples); err != nil {
			return fail(fmt.Errorf("table: wal replay lsn %d: %w", r.LSN, err))
		}
		applied++
	}
	sp.Detailf("%d records, %d applied", len(records), applied)
	// Fold the replayed state into a durable catalog; Checkpoint also
	// rotates the log, truncating the segments just replayed.
	if err := t.checkpoint(); err != nil {
		return fail(err)
	}
	return nil
}

// replayRecord applies one logged mutation during recovery.
func (t *Table) replayRecord(kind byte, tuples []relation.Tuple) error {
	//avqlint:ignore ctxflow replay is uninterruptible recovery work with no caller context
	ctx := context.Background()
	switch kind {
	case recInsert:
		if len(tuples) != 1 {
			return fmt.Errorf("table: insert record with %d tuples", len(tuples))
		}
		return t.insertApply(tuples[0])
	case recDelete:
		if len(tuples) != 1 {
			return fmt.Errorf("table: delete record with %d tuples", len(tuples))
		}
		_, err := t.deleteApply(ctx, tuples[0])
		return err
	case recInsertBatch:
		return t.insertBatchApply(ctx, tuples, nil)
	case recDeleteBatch:
		for _, tu := range tuples {
			// A tuple can be legitimately absent if the original run
			// logged a batch it then only partially applied and re-logged;
			// deletes are idempotent at replay.
			if _, err := t.deleteApply(ctx, tu); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("table: unknown wal record kind %d", kind)
	}
}
