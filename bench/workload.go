package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/backend"
	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/table"
)

const (
	pageSize = 8192
	// fitFrames sizes the pool and the decoded-block cache of the
	// workloads whose data must fit. flat8 has ~780 blocks at 1M tuples,
	// but write_mix rewrites a block onto a fresh page per write and the
	// old page stays allocated until the next checkpoint, which never
	// comes: ~15k pages by the end of a 10 s run. A pool that started
	// evicting dirty pages two thirds into the timed phase would make the
	// run's second half a different workload from its first. setUp refuses
	// a relation that outgrows the cache.
	fitFrames = 65536
	// scanFrames is the pool of the workloads whose data must not fit:
	// ~8 % of flat8's blocks, ~3 % of wide38's.
	scanFrames = 64
	numShards  = 4
)

// workloadDef is one workload: which relation, which engine, which mix.
// Names are fixed; later issues cite them.
type workloadDef struct {
	name    string
	why     string
	rel     *relSpec
	mix     [numClasses]int // twentieths per class
	primary class           // the class primary_p50_ms reports
	frames  int             // pool frames (per engine; split across shards)
	cache   int             // decoded-block cache blocks, 0 = off
	wal     bool            // DurabilityWAL with group commit and real fsync
	shards  int             // 0 = one table.Sync on a page file
}

var workloads = []workloadDef{
	{
		name: "point_hot", rel: &flat8, primary: classPoint,
		mix:    [numClasses]int{classPoint: 20},
		frames: fitFrames, cache: fitFrames,
		why: "flat8 fully cached, 100% point selects: server, JSON, plan and fence search dominate; decode-kernel work must not show",
	},
	{
		name: "scan_flat", rel: &flat8, primary: classAgg,
		mix:    [numClasses]int{classAgg: 19, classFull: 1},
		frames: scanFrames,
		why:    "flat8 on a 64-frame pool, no block cache, 95% agg + 5% full: phi-slab decode, batch kernels and pool misses dominate",
	},
	{
		name: "scan_wide38", rel: &wide38, primary: classAgg,
		mix:    [numClasses]int{classAgg: 19, classFull: 1},
		frames: scanFrames,
		why:    "wide38 (not flat), same pool and mix as scan_flat: the same operators through the tuple-decode read path",
	},
	{
		name: "write_mix", rel: &flat8, primary: classWrite,
		mix:    [numClasses]int{classWrite: 10, classPoint: 10},
		frames: fitFrames, cache: fitFrames, wal: true,
		why: "flat8 with WAL group commit and real fsync, 50% writes + 50% point: WAL, block re-encode, splits and writer-vs-reader contention",
	},
	{
		name: "shard_mix", rel: &flat8, primary: classAgg,
		mix:    [numClasses]int{classPoint: 14, classAgg: 5, classFull: 1},
		frames: scanFrames, shards: numShards,
		why: "flat8 in 4 object-backend shards, 70% point + 25% agg + 5% full: routing, scatter-gather and backend.Pager overhead",
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// fsyncPolicy is stated in every result.
func (def *workloadDef) fsyncPolicy() string {
	switch {
	case def.wal:
		return "wal group commit, one real fsync per commit group, acknowledged after fsync"
	case def.shards > 0:
		return "read-only after set-up; object backend fsyncs every page object at bulk load"
	default:
		return "read-only after set-up; page file synced at checkpoint/close"
	}
}

// setupTimes splits setup_s into the load.* per-layer metrics.
type setupTimes struct {
	gen, bulkload, reopen, listen float64
}

func (t setupTimes) total() float64 { return t.gen + t.bulkload + t.reopen + t.listen }

// instance is one served engine: the relation, the engine opened on it,
// and a server.Server on a loopback listener with a keep-alive client.
type instance struct {
	def   *workloadDef
	rd    *relData
	dir   string
	eng   server.Engine
	sync  *table.Sync // the engine when def.shards == 0
	db    *shard.DB   // the engine otherwise
	reg   *obs.Registry
	tr    *tracer // wraps the engine's two seams in a traced run's staircase engine; nil otherwise
	srv   *server.Server
	base  string
	done  chan error
	hc    *http.Client
	times setupTimes
	store blockstore.Stats // physical layout right after set-up
}

// tableOptions are the engine options the workload fixes.
func (def *workloadDef) tableOptions(reg *obs.Registry) []table.Option {
	frames := def.frames
	if def.shards > 0 {
		frames /= def.shards
	}
	opts := []table.Option{
		table.WithCodec(core.CodecAVQ),
		table.WithPageSize(pageSize),
		table.WithPoolFrames(frames),
		table.WithBlockCache(def.cache),
	}
	if def.wal {
		opts = append(opts, table.WithDurability(table.DurabilityWAL))
	}
	if reg != nil {
		opts = append(opts, table.WithObs(reg))
	}
	return opts
}

// splits are the sharded workload's interior attribute-0 split points:
// equal shares of the used domain. A single table has none.
func (def *workloadDef) splits() []uint64 {
	if def.shards == 0 {
		return nil
	}
	splits := make([]uint64, def.shards-1)
	for i := range splits {
		splits[i] = def.rel.usedRange(0) * uint64(i+1) / uint64(def.shards)
	}
	return splits
}

func (def *workloadDef) shardConfig(dir string, reg *obs.Registry) shard.Config {
	return shard.Config{Kind: backend.KindObject, Dir: dir, Splits: def.splits(), Options: def.tableOptions(nil), Obs: reg}
}

func (def *workloadDef) pagePath(dir string) string { return filepath.Join(dir, def.name+".avq") }

// workDir makes a fresh scratch directory under the output directory.
func workDir(cfg config, name string) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.outDir, "work-"+name+"-")
}

// setUp is what setup_s times: generate the relation (skipped when rd is
// handed in), create the engine in a fresh directory and bulk-load it,
// close it, open it again the way a serving process would, and listen.
// reg attaches an obs.Registry to engine and server, tr the staircase's
// tracer to the engine's file system and its face towards the server; the
// timed runs pass nil for both. On failure nothing is left behind.
func setUp(ctx context.Context, cfg config, def *workloadDef, rd *relData, reg *obs.Registry, tr *tracer) (in *instance, err error) {
	in = &instance{def: def, rd: rd, reg: reg, tr: tr}
	if in.rd == nil {
		if in.rd, err = generate(def.rel, cfg.tuples, cfg.seed); err != nil {
			return nil, err
		}
	}
	in.times.gen = in.rd.genS
	if in.dir, err = workDir(cfg, def.name); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			in.tearDown(ctx) //nolint:errcheck // already failing
		}
	}()
	t0 := time.Now()
	if err := in.load(ctx); err != nil {
		return nil, fmt.Errorf("%s: bulk load: %w", def.name, err)
	}
	t1 := time.Now()
	if err := in.open(); err != nil {
		return nil, fmt.Errorf("%s: open: %w", def.name, err)
	}
	t2 := time.Now()
	if err := in.listen(cfg.clients); err != nil {
		return nil, err
	}
	in.times.bulkload = t1.Sub(t0).Seconds()
	in.times.reopen = t2.Sub(t1).Seconds()
	in.times.listen = time.Since(t2).Seconds()
	if def.cache > 0 && in.store.Blocks > def.cache {
		return nil, fmt.Errorf("%s: %d blocks do not fit the %d-block cache this workload requires", def.name, in.store.Blocks, def.cache)
	}
	return in, nil
}

// load creates the engine, bulk-loads the generated tuples and closes it,
// leaving a checkpointed database in in.dir.
func (in *instance) load(ctx context.Context) error {
	def := in.def
	if def.shards > 0 {
		db, err := shard.Create(in.rd.schema, def.shardConfig(in.dir, nil))
		if err != nil {
			return err
		}
		if err := db.BulkLoad(ctx, in.rd.tuples); err != nil {
			db.Close() //nolint:errcheck // already failing
			return err
		}
		return db.Close()
	}
	opts := append(def.tableOptions(nil), table.WithPath(def.pagePath(in.dir)))
	tb, err := table.Create(in.rd.schema, opts...)
	if err != nil {
		return err
	}
	if err := tb.BulkLoadContext(ctx, in.rd.tuples); err != nil {
		tb.Close() //nolint:errcheck // already failing
		return err
	}
	return tb.Close()
}

// open reattaches to the database load left behind and records its
// physical layout.
func (in *instance) open() error {
	def := in.def
	var fs storage.FS // nil is the real one
	if in.tr != nil {
		fs = tracedFS{FS: storage.OSFS{}, tr: in.tr}
	}
	if def.shards > 0 {
		cfg := def.shardConfig(in.dir, in.reg)
		cfg.FS = fs
		db, err := shard.Open(cfg)
		if err != nil {
			return err
		}
		in.db, in.eng = db, db
		return in.refreshStoreStats()
	}
	tb, err := table.Open(def.pagePath(in.dir), append(def.tableOptions(in.reg), table.WithVFS(fs))...)
	if err != nil {
		return err
	}
	in.sync = table.NewSync(tb)
	in.eng = in.sync
	return in.refreshStoreStats()
}

// refreshStoreStats re-reads the physical layout. The engine must be
// quiescent: it walks the tables underneath their Sync wrappers.
func (in *instance) refreshStoreStats() error {
	tables := []*table.Table{}
	if in.db != nil {
		for i := 0; i < in.db.NumShards(); i++ {
			tables = append(tables, in.db.Shard(i).Table())
		}
	} else {
		tables = append(tables, in.sync.Table())
	}
	in.store = blockstore.Stats{}
	for _, tb := range tables {
		st, err := tb.StoreStats()
		if err != nil {
			return err
		}
		in.store.Blocks += st.Blocks
		in.store.Tuples += st.Tuples
		in.store.StreamBytes += st.StreamBytes
		in.store.PageBytes += st.PageBytes
		in.store.RawDataBytes += st.RawDataBytes
	}
	return nil
}

// storedPerUserByte is page bytes over fixed-width raw bytes.
func (in *instance) storedPerUserByte() float64 {
	return float64(in.store.PageBytes) / float64(in.store.RawDataBytes)
}

// listen serves the engine on a loopback TCP listener: real HTTP with
// keep-alive, server Limits left at their defaults.
func (in *instance) listen(clients int) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := in.eng
	if in.tr != nil {
		served = tracedEngine{Engine: in.eng, tr: in.tr}
	}
	in.srv = server.New(server.Config{Engine: served, Obs: in.reg})
	in.base = "http://" + l.Addr().String()
	in.done = make(chan error, 1)
	go func() { in.done <- in.srv.Serve(l) }()
	in.hc = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients},
	}
	return nil
}

// drain stops the server and waits for its goroutine. Shutdown itself
// fails if a request leaked a pinned frame or a live snapshot.
func (in *instance) drain(ctx context.Context) error {
	if in.srv == nil {
		return nil
	}
	in.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if serr := <-in.done; err == nil {
		err = serr
	}
	in.srv = nil
	return err
}

// tearDown drains, closes the engine and removes its directory.
func (in *instance) tearDown(ctx context.Context) error {
	err := in.drain(ctx)
	if in.eng != nil {
		err = errors.Join(err, in.eng.Close())
		in.eng = nil
	}
	return errors.Join(err, os.RemoveAll(in.dir))
}
