package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
)

// What the issue fixes and no flag changes: every ledger row is measured
// on relations of this size, from this many clients at most.
const (
	relTuples    = 1_000_000
	maxClients   = 4 // closed-loop clients are min(CPUs, maxClients)
	setupsPerRun = 3 // set-ups per timed run; setup_s is their median
)

// config is one invocation's settings. Only seed, seconds and outDir are
// flags; the tests shrink the rest.
type config struct {
	tuples  int
	seed    int64
	seconds float64 // timed phase of a --trace 0 run; whole budget of the measuring part of a --trace 1 run
	clients int     // closed-loop client goroutines, each with its own keep-alive connection
	setups  int
	outDir  string // trace dumps, result files and scratch databases
}

// warmupShare is the warm-up's length as a share of the timed phase (3 s
// before a 20 s phase in the issue's proportions).
const warmupShare = 0.15

// classRow is one request class's latency under the closed loop.
type classRow struct {
	Samples int     `json:"samples"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	P99Ms   float64 `json:"p99_ms"`
}

// result is one workload's entry in the ledger.
type result struct {
	Workload    string            `json:"workload"`
	Why         string            `json:"why"`
	Trace       bool              `json:"trace"`
	Closed      string            `json:"loop"`
	FsyncPolicy string            `json:"fsync_policy"`
	Relation    map[string]any    `json:"relation"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	ErrorRate   float64           `json:"error_rate"`
	Errors      []string          `json:"errors,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	// Classes holds every class's percentiles with their sample counts; a
	// percentile with fewer than ten samples beyond it is left at 0.
	Classes map[string]classRow `json:"classes"`
	// Staircase is the traced run's per-class layer summary.
	Staircase map[string]stairSummary `json:"staircase,omitempty"`
	Notes     []string                `json:"notes,omitempty"`
	// Skipped names what this host could not measure, and why.
	Skipped map[string]string `json:"skipped,omitempty"`
}

func newResult(def *workloadDef, cfg config, trace bool) *result {
	return &result{
		Workload: def.name, Why: def.why, Trace: trace,
		Closed:      fmt.Sprintf("closed loop, %d clients, each waits for its reply", cfg.clients),
		FsyncPolicy: def.fsyncPolicy(),
		Classes:     map[string]classRow{},
	}
}

func (res *result) finish(p *phase, ms *metricSet) {
	res.Attempted, res.Failed, res.Errors = p.attempted, p.failed, p.errs
	res.Correct = p.failed == 0 && p.attempted > 0
	res.ErrorRate = per(float64(p.failed), float64(p.attempted))
	res.Metrics = ms.complete()
}

// classRows reports each class's percentiles: the median always, p95 and
// p99 only when at least ten samples lie beyond them.
func classRows(p *phase) map[string]classRow {
	rows := map[string]classRow{}
	for c, lat := range p.lat {
		if len(lat) == 0 {
			continue
		}
		row := classRow{Samples: len(lat), P50Ms: quantileMs(lat, 0.50)}
		if len(lat) >= 200 {
			row.P95Ms = quantileMs(lat, 0.95)
		}
		if len(lat) >= 1000 {
			row.P99Ms = quantileMs(lat, 0.99)
		}
		rows[class(c).String()] = row
	}
	return rows
}

// runTimed is a --trace 0 run: set up (cfg.setups times, keeping the
// last), warm up, drive the closed loop for cfg.seconds with no registry
// attached anywhere, then check what the engine is left holding.
func runTimed(ctx context.Context, cfg config, def *workloadDef) (*result, error) {
	res := newResult(def, cfg, false)
	var in *instance
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if in != nil {
			if err := in.tearDown(ctx); err != nil {
				return nil, err
			}
		}
		var err error
		if in, err = setUp(ctx, cfg, def, nil, nil, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, in.times.total())
	}
	res.Relation = in.rd.params()
	in.rd.ora, _ = buildOracle(in.rd)
	in.rd.release()

	streams := newStreams(def, cfg.seed, cfg.clients)
	warm := in.closedLoop(streams, time.Duration(warmupShare*cfg.seconds*float64(time.Second)))
	settle()
	timed := in.closedLoop(streams, time.Duration(cfg.seconds*float64(time.Second)))

	// Warm-up requests are checked and counted like any other; only the
	// metrics leave them out.
	total := &phase{}
	total.merge(warm)
	total.merge(timed)
	total.attempted++
	if err := in.drain(ctx); err != nil {
		total.fail(fmt.Errorf("drain: %w", err))
	}
	if def.wal {
		replayS := in.killReopen(ctx, total, streams)
		res.Notes = append(res.Notes,
			fmt.Sprintf("kill-reopen: WAL replay and reopen took %.3f s", replayS),
			"kill-reopen is process-kill semantics (OS cache intact); power loss stays with the WAL kill-at-every-syscall matrix")
	}
	in.finalChecks(ctx, total, streams)
	stored := in.storedPerUserByte()
	if def.mix[classWrite] > 0 {
		if err := in.refreshStoreStats(); err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes, fmt.Sprintf("stored_bytes_per_user_byte after the churn: %.4f", in.storedPerUserByte()))
	}
	if err := in.tearDown(ctx); err != nil {
		return nil, err
	}

	res.Classes = classRows(timed)
	ms := newMetricSet(endToEnd)
	res.Notes = append(res.Notes, fmt.Sprintf("set-ups took %.3f s; setup_s is their median", setupS))
	ms.set("setup_s", medianFloat(setupS))
	ms.set("ops_per_s", timed.opsPerS())
	prim := res.Classes[def.primary.String()]
	ms.set("primary_p50_ms", prim.P50Ms)
	// Gated, so always a number: computed even below the 200 samples the
	// class rows ask of a p95 (the note beside it states the count).
	ms.set("primary_p95_ms", quantileMs(timed.lat[def.primary], 0.95))
	ms.set("stored_bytes_per_user_byte", stored)
	res.Notes = append(res.Notes, fmt.Sprintf("timed phase %.3f s after a %.3f s warm-up; primary class %s, %d samples",
		timed.elapsed, warm.elapsed, def.primary, prim.Samples))
	res.finish(total, ms)
	return res, nil
}

// settle lets set-up's leftovers finish before a measured phase: the
// kernel writes the set-ups' dirty pages back now rather than during the
// phase, and the phase starts from a collected heap, not mid-cycle.
func settle() {
	syscall.Sync()
	runtime.GC()
}

// Shares of a --trace 1 run's cfg.seconds: a plain closed loop for the
// per-class latencies, a closed loop with a registry attached for the
// counts and the tracing overhead, and the staircase.
const (
	plainShare    = 0.25
	observedShare = 0.25
	stairShare    = 0.5
)

// runTraced is a --trace 1 run.
func runTraced(ctx context.Context, cfg config, def *workloadDef) (res *result, err error) {
	res = newResult(def, cfg, true)
	ms := newMetricSet(perLayer)
	total := &phase{}
	share := func(s float64) time.Duration { return time.Duration(s * cfg.seconds * float64(time.Second)) }

	// Engine A: no registry, like the timed runs. The staircase's tracer
	// sits at its two seams and stays switched off until the staircase.
	a, err := setUp(ctx, cfg, def, nil, nil, new(tracer))
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, a.tearDown(ctx)) }()
	rd := a.rd
	res.Relation = rd.params()
	ms.set("load.gen_s", a.times.gen)
	ms.set("load.bulkload_s", a.times.bulkload)
	ms.set("load.reopen_s", a.times.reopen)
	ms.set("load.tuples_per_s", per(float64(rd.n), a.times.bulkload))
	ms.set("core.tuples_per_block", per(float64(a.store.Tuples), float64(a.store.Blocks)))
	ms.set("core.stream_bytes_per_tuple", per(float64(a.store.StreamBytes), float64(a.store.Tuples)))

	ora, sorted := buildOracle(rd)
	rd.ora = ora

	// Engine B: the same database with an obs.Registry on engine and server.
	reg := obs.NewRegistry()
	b, err := setUp(ctx, cfg, def, rd, reg, nil)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, b.tearDown(ctx)) }()

	// The twin, for the decode replay and the per-call costs.
	dirT, err := workDir(cfg, def.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dirT) //nolint:errcheck // scratch
	tw, err := buildTwin(ctx, def, rd.schema, sorted, dirT)
	if err != nil {
		return nil, fmt.Errorf("%s: twin: %w", def.name, err)
	}
	defer func() { err = errors.Join(err, tw.close()) }()
	rd.release()

	// Phases 1-3: plain loop on A, the same loop on B with the registry
	// attached, plain loop on A again. Splitting the plain loop around the
	// observed one cancels a drift of the host between them out of
	// obs.overhead_pct.
	streamsA := newStreams(def, cfg.seed, cfg.clients)
	a.closedLoop(streamsA, share(plainShare*warmupShare))
	settle()
	plain := a.closedLoop(streamsA, share(plainShare/2))

	streamsB := newStreams(def, cfg.seed, cfg.clients)
	b.closedLoop(streamsB, share(observedShare*warmupShare))
	fileBefore := b.bytesOnDisk()
	snap0 := reg.Snapshot()
	runtime.GC()
	observed := b.closedLoop(streamsB, share(observedShare))
	snap1 := reg.Snapshot()

	runtime.GC()
	plain2 := a.closedLoop(streamsA, share(plainShare/2))
	plain.merge(plain2)
	plain.sortLat()

	total.merge(plain)
	total.merge(observed)
	res.Classes = classRows(plain)
	for c := class(0); c < numClasses; c++ {
		row := res.Classes[c.String()]
		ms.set(c.String()+"_p50_ms", row.P50Ms)
		ms.set(c.String()+"_p95_ms", row.P95Ms)
	}
	ms.set("server.point_p99_ms", res.Classes["point"].P99Ms)
	ms.set("server.agg_p99_ms", res.Classes["agg"].P99Ms)
	ms.set("server.write_p99_ms", res.Classes["write"].P99Ms)
	ms.set("server.rejects_429", float64(plain.rejects))
	ops := float64(plain.attempted - plain.failed)
	ms.set("process.cpu_s_per_kop", per(plain.cpuS*1000, ops))
	ms.set("process.alloc_kb_per_op", per(float64(plain.allocBytes)/1024, ops))
	ms.set("process.gc_pause_ms", float64(plain.gcPauseNs)/1e6)
	ms.set("obs.overhead_pct", pct(plain.opsPerS()-observed.opsPerS(), plain.opsPerS()))
	observedMetrics(ms, b, observed, counterDeltas(snap0, snap1), snap1, fileBefore)
	if err := b.drain(ctx); err != nil {
		total.attempted++
		total.fail(fmt.Errorf("drain: %w", err))
	}
	if def.mix[classWrite] > 0 {
		if err := b.refreshStoreStats(); err != nil {
			return nil, err
		}
	}
	ms.set("storage.stored_after_churn", b.storedPerUserByte())
	if def.wal {
		ms.set("wal.replay_s", b.killReopen(ctx, total, streamsB))
	}

	// Phase 4: the staircase on A.
	sc := newStaircase(a, tw, total)
	sc.run(cfg.seed, share(stairShare))
	res.Staircase = map[string]stairSummary{}
	for c := class(0); c < numClasses; c++ {
		if sum := sc.summarize(c); sum.Requests > 0 {
			res.Staircase[c.String()] = sum
		}
	}
	sc.stairMetrics(ms, res.Staircase[def.primary.String()])
	if err := sc.dump(filepath.Join(cfg.outDir, "trace-"+def.name+".json")); err != nil {
		return nil, err
	}

	if err := measureMicro(ctx, tw, ms); err != nil {
		return nil, fmt.Errorf("%s: micro: %w", def.name, err)
	}

	var msNow runtime.MemStats
	runtime.ReadMemStats(&msNow)
	ms.set("process.heap_peak_mb", float64(msNow.HeapSys)/(1<<20))

	res.Notes = append(res.Notes,
		fmt.Sprintf("plain loop %.3f s, registry-attached loop %.3f s, staircase %d requests", plain.elapsed, observed.elapsed, len(sc.reqs)),
		"self times are the median share of the http span, and trace.* are, over the staircase's "+def.primary.String()+" requests; exec.* and blockstore.cache_hit_pct are over every replayed read")
	res.Skipped = map[string]string{}
	if _, flat := rd.schema.FlatSpace(); !flat {
		res.Skipped["core.decode_phis_ns_per_tuple"] = "schema is not flat: no phi-slab decode exists for it"
	}
	if def.shards > 0 {
		res.Skipped["exec.batch_blocks_pct"] = "shard.DB folds its shards' statistics without the batch counts"
	}
	res.finish(total, ms)
	return res, nil
}

// bytesOnDisk is the size of everything under the instance's directory:
// page file (or page objects) plus WAL segments.
func (in *instance) bytesOnDisk() int64 {
	var n int64
	filepath.WalkDir(in.dir, func(_ string, d os.DirEntry, err error) error { //nolint:errcheck // a vanished file only lowers the sum
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// observedMetrics fills the metrics that only a registry (or the file
// system) can give from outside: pool, shard and WAL counters over the
// registry-attached loop.
func observedMetrics(ms *metricSet, b *instance, p *phase, d map[string]float64, snap obs.Snapshot, fileBefore int64) {
	ops := float64(p.attempted - p.failed)
	ms.set("buffer.hit_pct", pct(d["pool.hits"], d["pool.hits"]+d["pool.misses"]))
	ms.set("buffer.evictions_per_op", per(d["pool.evictions"], ops))
	ms.set("shard.shards_scanned_per_op", per(d["shard.shards_scanned"], d["shard.queries"]))
	ms.set("shard.shards_pruned_pct", pct(d["shard.shards_pruned"], d["shard.shards_pruned"]+d["shard.shards_scanned"]))
	writes := d["wal.appends"]
	ms.set("wal.fsyncs_per_write", per(d["wal.fsyncs"], writes))
	ms.set("wal.bytes_per_write", per(d["wal.bytes"], writes))
	ms.set("wal.rotations", d["wal.rotations"])
	for _, h := range snap.Histograms {
		if h.Name == "wal.group_size" {
			// Values, not durations: the sum is the number of commits retired.
			ms.set("wal.group_size_avg", per(float64(h.SumNs), float64(h.Count)))
		}
	}
	if writes > 0 {
		// Tuples the loop inserted (6 in 10 writes insert one, 1 in 10 a
		// batch), at the fixed-width row size.
		inserted := float64(len(p.lat[classWrite])) * (0.6 + 0.1*batchSize)
		raw := inserted * float64(b.rd.schema.RowSize())
		ms.set("storage.bytes_written_per_user_byte", per(float64(b.bytesOnDisk()-fileBefore), raw))
	}
}
