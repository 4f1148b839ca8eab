// Crash matrix for the sharded database: kill the filesystem at strided
// syscall ticks of a mixed WAL-logged workload, recover, reopen, and
// prove the recovered database (a) passes the shard-aware Check and
// (b) holds an acknowledged prefix of the workload — each shard's WAL
// guarantees acked mutations survive; the one in-flight op may surface
// fully, never partially.
package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/simdisk"
	"repro/internal/storage"
	"repro/internal/table"
)

const crashDir = "db"

func crashConfig(kind backend.Kind, fs *simdisk.FaultFS) shard.Config {
	return shard.Config{
		Kind: kind, Dir: crashDir, FS: fs, Shards: 4,
		Options: []table.Option{
			table.WithPageSize(512),
			table.WithDurability(table.DurabilityWAL),
			table.WithWALSegmentSize(2048),
		},
	}
}

type skey [4]uint64

func sKey(tu relation.Tuple) skey { return skey{tu[0], tu[1], tu[2], tu[3]} }

// shardCrashOp is one acknowledged workload unit with its oracle effect.
type shardCrashOp struct {
	name  string
	run   func(db *shard.DB) error
	apply func(st map[skey]int)
}

func shardCrashOps() []shardCrashOp {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	var ops []shardCrashOp
	add := func(name string, run func(*shard.DB) error, apply func(map[skey]int)) {
		ops = append(ops, shardCrashOp{name, run, apply})
	}
	ins := func(tu relation.Tuple) {
		add("insert", func(db *shard.DB) error { return db.InsertContext(ctx, tu) },
			func(st map[skey]int) { st[sKey(tu)]++ })
	}
	del := func(tu relation.Tuple) {
		add("delete", func(db *shard.DB) error {
			_, err := db.DeleteContext(ctx, tu)
			return err
		}, func(st map[skey]int) {
			k := sKey(tu)
			if st[k] > 0 {
				st[k]--
				if st[k] == 0 {
					delete(st, k)
				}
			}
		})
	}

	// Seed batch spanning all four shards.
	var seed []relation.Tuple
	for i := 0; i < 60; i++ {
		seed = append(seed, randTuple(rng))
	}
	add("seed-batch", func(db *shard.DB) error { return db.InsertBatchContext(ctx, seed) },
		func(st map[skey]int) {
			for _, tu := range seed {
				st[sKey(tu)]++
			}
		})
	for i := 0; i < 8; i++ {
		ins(randTuple(rng))
	}
	del(seed[5])
	del(seed[40])
	del(relation.Tuple{63, 15, 63, 4095}) // absent: logged no-op
	add("checkpoint", func(db *shard.DB) error { return db.Checkpoint() }, func(map[skey]int) {})
	for i := 0; i < 6; i++ {
		ins(randTuple(rng))
	}
	del(seed[10])
	return ops
}

func buildShardSnapshots(ops []shardCrashOp) []map[skey]int {
	snaps := make([]map[skey]int, len(ops)+1)
	cur := map[skey]int{}
	clone := func() map[skey]int {
		c := make(map[skey]int, len(cur))
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

// runShardCrashWorkload creates the DB and drives the workload; acked
// counts completed ops (create itself is op 0's precondition).
func runShardCrashWorkload(kind backend.Kind, fs *simdisk.FaultFS, ops []shardCrashOp) (acked int, err error) {
	db, err := shard.Create(oracleSchema(), crashConfig(kind, fs))
	if err != nil {
		return -1, err
	}
	for i, o := range ops {
		if err := o.run(db); err != nil {
			return i, fmt.Errorf("%s: %w", o.name, err)
		}
	}
	return len(ops), db.Close()
}

func sameShardMultiset(a, b map[skey]int) bool {
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

func verifyShardCrashState(t *testing.T, kind backend.Kind, fs *simdisk.FaultFS, snaps []map[skey]int, acked int, tag string) {
	t.Helper()
	db, err := shard.Open(crashConfig(kind, fs))
	if err != nil {
		if acked < 0 {
			return // crash predates a durable create; nothing to open
		}
		t.Fatalf("%s: reopen with %d acked: %v", tag, acked, err)
	}
	defer db.Close()
	if err := db.Check(); err != nil {
		t.Fatalf("%s: Check after recovery: %v", tag, err)
	}
	got := map[skey]int{}
	if err := db.ScanContext(context.Background(), func(tu relation.Tuple) bool {
		got[sKey(tu)]++
		return true
	}); err != nil {
		t.Fatalf("%s: scan after recovery: %v", tag, err)
	}
	// Every acked op is durable on every shard it touched. The single
	// in-flight op commits through per-shard WALs, so a multi-shard
	// batch may land on some shards and not others — but within any one
	// shard it is all-or-nothing. Verify each shard's φ-slice of the
	// recovered state against the pre- and post-op snapshots.
	lo := acked
	if lo < 0 {
		lo = 0
	}
	hi := lo + 1
	if hi >= len(snaps) {
		hi = len(snaps) - 1
	}
	cat := db.Catalog()
	restrict := func(m map[skey]int, shard int) map[skey]int {
		out := map[skey]int{}
		for k, v := range m {
			if cat.Route(k[0]) == shard {
				out[k] = v
			}
		}
		return out
	}
	for i := 0; i < cat.NumShards(); i++ {
		g := restrict(got, i)
		if !sameShardMultiset(g, restrict(snaps[lo], i)) && !sameShardMultiset(g, restrict(snaps[hi], i)) {
			t.Fatalf("%s: shard %d slice matches neither %d nor %d acked ops", tag, i, lo, hi)
		}
	}
}

// TestShardKillAndRecover strides kill points across the workload's
// syscall ticks for both durable kinds, in strict and torn modes, then
// across an object-kind bulk load (testKillDuringBulkLoad).
func TestShardKillAndRecover(t *testing.T) {
	ops := shardCrashOps()
	snaps := buildShardSnapshots(ops)

	for _, kind := range []backend.Kind{backend.KindFilesystem, backend.KindObject} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			probe := simdisk.NewFaultFS()
			if acked, err := runShardCrashWorkload(kind, probe, ops); err != nil {
				t.Fatalf("fault-free run failed at op %d: %v", acked, err)
			}
			total := probe.OpCount()
			if total < 100 {
				t.Fatalf("suspiciously small workload: %d ticks", total)
			}
			// Stride the matrix: ~120 kill points per kind x mode keeps the
			// sweep dense enough to cross create, batch, WAL commit,
			// checkpoint, and close windows without minutes of runtime.
			stride := total / 120
			if stride < 1 {
				stride = 1
			}
			for _, mode := range []string{"strict", "torn"} {
				mode := mode
				t.Run(mode, func(t *testing.T) {
					kills := 0
					for k := int64(1); k <= total; k += stride {
						fs := simdisk.NewFaultFS()
						fs.CrashAt(k)
						acked, err := runShardCrashWorkload(kind, fs, ops)
						if err == nil {
							break // run finished before tick k
						}
						kills++
						var rng *rand.Rand
						if mode == "torn" {
							rng = rand.New(rand.NewSource(0xC0FFEE + k))
						}
						fs.Recover(rng)
						verifyShardCrashState(t, kind, fs, snaps, acked,
							fmt.Sprintf("%s/%s kill@%d/%d", kind, mode, k, total))
					}
					if kills < 60 {
						t.Fatalf("matrix only exercised %d kill points", kills)
					}
				})
			}
		})
	}
	t.Run("object-bulkload", testKillDuringBulkLoad)
}

// opLog is a storage.FS that records every call it forwards, in order, so
// a failing kill point can show the interleaving that led to it: the
// pager's page writes run concurrently, so the order of syscalls, and
// which one a tick-numbered kill lands on, varies from run to run.
type opLog struct {
	storage.FS
	mu  sync.Mutex
	ops []string
}

func (l *opLog) add(op, path string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	line := op + " " + filepath.Base(path)
	if err != nil {
		line += " (" + err.Error() + ")"
	}
	l.ops = append(l.ops, line)
}

// tail returns the calls up to and a few past the first failed one.
func (l *opLog) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	end := len(l.ops)
	for i, op := range l.ops {
		if strings.HasSuffix(op, ")") {
			end = min(i+8, len(l.ops))
			break
		}
	}
	return strings.Join(l.ops[max(0, end-48):end], "\n")
}

func (l *opLog) OpenFile(path string, flag int) (storage.File, error) {
	f, err := l.FS.OpenFile(path, flag)
	l.add("open", path, err)
	if err != nil {
		return nil, err
	}
	return &opLogFile{File: f, log: l, path: path}, nil
}

func (l *opLog) Remove(path string) error {
	err := l.FS.Remove(path)
	l.add("remove", path, err)
	return err
}

func (l *opLog) Rename(oldpath, newpath string) error {
	err := l.FS.Rename(oldpath, newpath)
	l.add("rename", newpath, err)
	return err
}

func (l *opLog) SyncDir(path string) error {
	err := l.FS.SyncDir(path)
	l.add("syncdir", path, err)
	return err
}

type opLogFile struct {
	storage.File
	log  *opLog
	path string
}

func (f *opLogFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.log.add("write", f.path, err)
	return n, err
}

func (f *opLogFile) Sync() error {
	err := f.File.Sync()
	f.log.add("fsync", f.path, err)
	return err
}

// bulkCrashConfig is crashConfig with a four-frame pool per shard, so the
// load writes pages back as it goes, not only at the checkpoint.
func bulkCrashConfig(fs storage.FS) shard.Config {
	cfg := crashConfig(backend.KindObject, nil)
	cfg.FS = fs
	cfg.Options = append(cfg.Options, table.WithPoolFrames(4))
	return cfg
}

// runShardBulkLoad creates an object-kind database, bulk-loads tuples,
// checkpoints and closes it. created reports whether Create returned, and
// loaded the ticks consumed when it did.
func runShardBulkLoad(fs *simdisk.FaultFS, log *opLog, tuples []relation.Tuple) (created bool, loaded int64, err error) {
	log.FS = fs
	db, err := shard.Create(oracleSchema(), bulkCrashConfig(log))
	if err != nil {
		return false, 0, err
	}
	loaded = fs.OpCount()
	if err := db.BulkLoad(context.Background(), tuples); err != nil {
		return true, loaded, err
	}
	if err := db.Checkpoint(); err != nil {
		return true, loaded, err
	}
	return true, loaded, db.Close()
}

// testKillDuringBulkLoad kills an object-kind database at every tick
// (strided) of a bulk load and the checkpoint after it, including inside
// the pager's write-behind window: after a page Write has returned and
// before the Sync barrier drains it. The reopened database must pass
// Check with no pinned frame or live snapshot, and every shard must hold
// its previous durable state — empty, since Create — or its whole load,
// never part of it.
func testKillDuringBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tuples := make([]relation.Tuple, 1500)
	for i := range tuples {
		tuples[i] = randTuple(rng)
	}
	probe := simdisk.NewFaultFS()
	created, from, err := runShardBulkLoad(probe, &opLog{}, tuples)
	if !created || err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	total := probe.OpCount()
	if total-from < 200 {
		t.Fatalf("suspiciously small load: %d ticks", total-from)
	}
	stride := max(1, (total-from)/150)
	for _, mode := range []string{"strict", "torn"} {
		t.Run(mode, func(t *testing.T) {
			kills := 0
			for k := from + 1; k <= total; k += stride {
				fs := simdisk.NewFaultFS()
				fs.CrashAt(k)
				log := &opLog{}
				created, _, err := runShardBulkLoad(fs, log, tuples)
				if err == nil {
					break // run finished before tick k
				}
				kills++
				var torn *rand.Rand
				if mode == "torn" {
					torn = rand.New(rand.NewSource(0xB0 + k))
				}
				fs.Recover(torn)
				tag := fmt.Sprintf("%s kill@%d/%d", mode, k, total)
				if msg := verifyBulkLoadCrash(fs, tuples, created); msg != "" {
					t.Fatalf("%s: %s\nsyscalls up to the kill:\n%s", tag, msg, log.tail())
				}
			}
			if kills < 100 {
				t.Fatalf("matrix only exercised %d kill points", kills)
			}
		})
	}
}

// verifyBulkLoadCrash reopens a crashed bulk load and returns what is
// wrong with it, or "".
func verifyBulkLoadCrash(fs *simdisk.FaultFS, tuples []relation.Tuple, created bool) string {
	db, err := shard.Open(bulkCrashConfig(fs))
	if err != nil {
		if !created {
			return "" // the crash predates a durable create
		}
		return fmt.Sprintf("reopen: %v", err)
	}
	defer db.Close()
	if err := db.Check(); err != nil {
		return fmt.Sprintf("Check: %v", err)
	}
	got := map[skey]int{}
	if err := db.ScanContext(context.Background(), func(tu relation.Tuple) bool {
		got[sKey(tu)]++
		return true
	}); err != nil {
		return fmt.Sprintf("scan: %v", err)
	}
	if n, s := db.PinnedFrames(), db.LiveSnapshots(); n != 0 || s != 0 {
		return fmt.Sprintf("%d pinned frames, %d live snapshots after a scan", n, s)
	}
	all := map[skey]int{}
	for _, tu := range tuples {
		all[sKey(tu)]++
	}
	cat := db.Catalog()
	restrict := func(m map[skey]int, shard int) map[skey]int {
		out := map[skey]int{}
		for k, v := range m {
			if cat.Route(k[0]) == shard {
				out[k] = v
			}
		}
		return out
	}
	for i := 0; i < cat.NumShards(); i++ {
		g := restrict(got, i)
		if len(g) != 0 && !sameShardMultiset(g, restrict(all, i)) {
			return fmt.Sprintf("shard %d holds %d distinct tuples, neither none nor its whole load", i, len(g))
		}
	}
	return ""
}
