// Crash matrix: kill the I/O model at EVERY mutating syscall of a mixed
// write workload, reboot, recover, and prove the reopened table holds
// exactly a group-committed prefix of the acknowledged operations — never
// less than what was acknowledged, never a torn in-between state.
//
// This lives in package wal_test (not wal) so it can drive the full table
// stack without an import cycle.
package wal_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/simdisk"
	"repro/internal/table"
)

const crashDBPath = "crashdb.avq"

func crashSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Domain{Name: "a", Size: 32},
		relation.Domain{Name: "b", Size: 64},
		relation.Domain{Name: "c", Size: 256},
	)
}

func crashOpts(fs *simdisk.FaultFS) []table.Option {
	return []table.Option{
		table.WithPageSize(512),
		table.WithPath(crashDBPath),
		table.WithVFS(fs),
		table.WithDurability(table.DurabilityWAL),
		// Small segments so the matrix also crosses mid-workload segment
		// rotations.
		table.WithWALSegmentSize(1024),
	}
}

func ctup(a, b, c uint64) relation.Tuple { return relation.Tuple{a, b, c} }

// tkey is the oracle's comparable tuple form.
type tkey [3]uint64

func toKey(tu relation.Tuple) tkey { return tkey{tu[0], tu[1], tu[2]} }

type crashHarness struct {
	fs  *simdisk.FaultFS
	tbl *table.Table
}

// crashOp is one acknowledged unit of the workload: run drives the real
// table, apply advances the in-memory oracle by the same logical mutation.
type crashOp struct {
	name  string
	run   func(h *crashHarness) error
	apply func(st map[tkey]int)
}

func crashOpsList() []crashOp {
	ctx := context.Background()
	var ops []crashOp
	add := func(name string, run func(h *crashHarness) error, apply func(map[tkey]int)) {
		ops = append(ops, crashOp{name, run, apply})
	}
	insertOp := func(tu relation.Tuple) {
		add("insert", func(h *crashHarness) error {
			return h.tbl.InsertContext(ctx, tu)
		}, func(st map[tkey]int) { st[toKey(tu)]++ })
	}
	deleteOp := func(tu relation.Tuple) {
		add("delete", func(h *crashHarness) error {
			_, err := h.tbl.DeleteContext(ctx, tu)
			return err
		}, func(st map[tkey]int) {
			k := toKey(tu)
			if st[k] > 0 {
				st[k]--
				if st[k] == 0 {
					delete(st, k)
				}
			}
		})
	}

	add("create", func(h *crashHarness) error {
		tbl, err := table.Create(crashSchema(), crashOpts(h.fs)...)
		if err != nil {
			return err
		}
		h.tbl = tbl
		return nil
	}, func(map[tkey]int) {})

	// Seed batch: exercises the empty-table bulk path under logging.
	var seed []relation.Tuple
	for i := 0; i < 24; i++ {
		seed = append(seed, ctup(uint64(i%32), uint64(i*7%64), uint64(i*9%256)))
	}
	add("seed-batch", func(h *crashHarness) error {
		return h.tbl.InsertBatchContext(ctx, seed)
	}, func(st map[tkey]int) {
		for _, tu := range seed {
			st[toKey(tu)]++
		}
	})

	for _, tu := range []relation.Tuple{
		ctup(1, 2, 3), ctup(5, 6, 7), ctup(9, 10, 11),
		ctup(13, 14, 15), ctup(17, 18, 19), ctup(21, 22, 23),
	} {
		insertOp(tu)
	}
	deleteOp(seed[3])
	deleteOp(ctup(31, 63, 255)) // absent: logged, no-op at replay

	// Merge-path batch into a non-empty table.
	var batch2 []relation.Tuple
	for i := 0; i < 12; i++ {
		batch2 = append(batch2, ctup(uint64(i*2%32), uint64(i*11%64), uint64(i*17%256)))
	}
	add("merge-batch", func(h *crashHarness) error {
		return h.tbl.InsertBatchContext(ctx, batch2)
	}, func(st map[tkey]int) {
		for _, tu := range batch2 {
			st[toKey(tu)]++
		}
	})

	add("checkpoint", func(h *crashHarness) error {
		return h.tbl.Checkpoint()
	}, func(map[tkey]int) {})

	insertOp(ctup(2, 3, 4))
	insertOp(ctup(6, 7, 8))
	insertOp(ctup(30, 60, 250))

	// Predicate delete: one logged batch record for the whole match set.
	add("delete-where", func(h *crashHarness) error {
		_, err := h.tbl.DeleteWhereContext(ctx, []table.Predicate{{Attr: 0, Lo: 1, Hi: 2}})
		return err
	}, func(st map[tkey]int) {
		for k := range st {
			if k[0] >= 1 && k[0] <= 2 {
				delete(st, k)
			}
		}
	})

	add("compact", func(h *crashHarness) error {
		_, _, err := h.tbl.CompactContext(ctx)
		return err
	}, func(map[tkey]int) {})

	insertOp(ctup(11, 12, 13))
	insertOp(ctup(19, 20, 21))
	return ops
}

// buildSnapshots returns the oracle state after each acknowledged prefix:
// snaps[i] is the multiset after ops[0..i-1].
func buildSnapshots(ops []crashOp) []map[tkey]int {
	snaps := make([]map[tkey]int, len(ops)+1)
	cur := map[tkey]int{}
	clone := func() map[tkey]int {
		c := make(map[tkey]int, len(cur))
		for k, v := range cur {
			c[k] = v
		}
		return c
	}
	snaps[0] = clone()
	for i, o := range ops {
		o.apply(cur)
		snaps[i+1] = clone()
	}
	return snaps
}

// runCrashWorkload executes the workload until completion or the first
// error (the injected crash), returning how many ops were acknowledged.
func runCrashWorkload(fs *simdisk.FaultFS, ops []crashOp) (acked int, err error) {
	h := &crashHarness{fs: fs}
	for i, o := range ops {
		if err := o.run(h); err != nil {
			return i, fmt.Errorf("%s: %w", o.name, err)
		}
	}
	// Close is the final crash window; it changes no logical state.
	return len(ops), h.tbl.Close()
}

func sameMultiset(a, b map[tkey]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// verifyCrashState reopens the recovered image and proves it is exactly
// the oracle state after `acked` ops, or after acked+1 (the in-flight
// operation is a single atomic log record: it may surface fully, never
// partially).
func verifyCrashState(t *testing.T, fs *simdisk.FaultFS, snaps []map[tkey]int, acked int, tag string) {
	t.Helper()
	tbl, err := table.Open(crashDBPath, crashOpts(fs)...)
	if err != nil {
		if acked == 0 {
			// The crash predates a durable create; there is nothing to open.
			return
		}
		t.Fatalf("%s: reopen failed with %d ops acked: %v\ndisk:\n%s", tag, acked, err, fs.DumpTree())
	}
	defer tbl.Close()
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants after recovery: %v", tag, err)
	}
	got := map[tkey]int{}
	if err := tbl.ScanContext(context.Background(), func(tu relation.Tuple) bool {
		got[toKey(tu)]++
		return true
	}); err != nil {
		t.Fatalf("%s: scan after recovery: %v", tag, err)
	}
	lo := acked
	hi := acked + 1
	if hi >= len(snaps) {
		hi = len(snaps) - 1
	}
	if !sameMultiset(got, snaps[lo]) && !sameMultiset(got, snaps[hi]) {
		t.Fatalf("%s: recovered state matches neither %d nor %d acked ops (got %d tuples, want %d or %d)\ndisk:\n%s",
			tag, lo, hi, tupleCount(got), tupleCount(snaps[lo]), tupleCount(snaps[hi]), fs.DumpTree())
	}
	if n := tbl.PinnedFrames(); n != 0 {
		t.Fatalf("%s: %d buffer frames left pinned after recovery", tag, n)
	}
	if n := tbl.LiveSnapshots(); n != 0 {
		t.Fatalf("%s: %d store snapshots leaked after recovery", tag, n)
	}
}

func tupleCount(st map[tkey]int) int {
	n := 0
	for _, v := range st {
		n += v
	}
	return n
}

// TestKillEverySyscall is the crash matrix. For every operation tick k of
// the workload it boots a fresh filesystem, kills it at tick k, reboots
// (strict mode: unsynced writes lost; torn mode: unsynced writes
// independently lost, persisted, or torn), reopens, and verifies recovery.
func TestKillEverySyscall(t *testing.T) {
	ops := crashOpsList()
	snaps := buildSnapshots(ops)

	// Size the matrix with one fault-free run.
	probe := simdisk.NewFaultFS()
	if acked, err := runCrashWorkload(probe, ops); err != nil {
		t.Fatalf("fault-free run failed at op %d: %v", acked, err)
	}
	total := probe.OpCount()
	if total < 50 {
		t.Fatalf("suspiciously small workload: %d ticks", total)
	}
	t.Logf("kill matrix: %d syscall ticks x 2 crash modes", total)

	modes := []struct {
		name string
		torn func(k int64) *rand.Rand
	}{
		{"strict", func(int64) *rand.Rand { return nil }},
		{"torn", func(k int64) *rand.Rand { return rand.New(rand.NewSource(0x5EED + k)) }},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			kills := int64(0)
			for k := int64(1); k <= total; k++ {
				fs := simdisk.NewFaultFS()
				fs.CrashAt(k)
				acked, err := runCrashWorkload(fs, ops)
				if err == nil {
					// Tick counts can drift slightly between runs; this run
					// simply finished before reaching tick k.
					break
				}
				kills++
				fs.Recover(mode.torn(k))
				verifyCrashState(t, fs, snaps, acked, fmt.Sprintf("%s kill@%d/%d", mode.name, k, total))
			}
			// Guard against the matrix silently degenerating: nearly every
			// tick must actually have produced a kill + recovery cycle.
			if kills < total*9/10 {
				t.Fatalf("matrix only exercised %d of %d kill points", kills, total)
			}
		})
	}
}

// TestKillDuringRecovery crashes a recovering table at every syscall of
// the recovery itself (replay + fold checkpoint), then recovers again:
// recovery must be idempotent.
func TestKillDuringRecovery(t *testing.T) {
	ops := crashOpsList()
	snaps := buildSnapshots(ops)

	// Build a disk image that dies mid-workload with a non-empty log.
	build := func() (*simdisk.FaultFS, int) {
		fs := simdisk.NewFaultFS()
		fs.CrashAt(1 << 60)
		acked := 0
		h := &crashHarness{fs: fs}
		for i, o := range ops {
			if err := o.run(h); err != nil {
				break
			}
			acked = i + 1
			if o.name == "delete-where" {
				break // leave logged-but-uncheckpointed ops in the WAL
			}
		}
		fs.Recover(nil)
		return fs, acked
	}

	fs0, acked := build()
	// Count recovery's own ticks.
	fs0.CrashAt(1 << 60)
	tbl, err := table.Open(crashDBPath, crashOpts(fs0)...)
	if err != nil {
		t.Fatalf("baseline recovery failed: %v", err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	recoveryTicks := fs0.OpCount()
	if recoveryTicks < 5 {
		t.Fatalf("suspiciously small recovery: %d ticks", recoveryTicks)
	}

	for k := int64(1); k <= recoveryTicks; k++ {
		fs, acked2 := build()
		if acked2 != acked {
			t.Fatalf("non-deterministic build: %d vs %d acked", acked2, acked)
		}
		fs.CrashAt(k)
		if tbl, err := table.Open(crashDBPath, crashOpts(fs)...); err == nil {
			// Recovery got far enough before tick k; close may still crash.
			tbl.Close() //nolint:errcheck // crash injection: error expected
		}
		fs.Recover(nil)
		verifyCrashState(t, fs, snaps, acked, fmt.Sprintf("recovery-kill@%d/%d", k, recoveryTicks))
	}
}
