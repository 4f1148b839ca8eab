// Command avqserve is the network front-end for AVQ databases: a
// concurrent HTTP/JSON query service over the Engine seam, with
// admission control, per-request deadlines, and graceful drain.
//
// Usage:
//
//	avqserve -db table.avqdb [-listen :8080] [flags]
//	avqserve -db sharddir/   [-listen :8080] [flags]
//
// -db names either a single-file table or a sharded database directory;
// the two are distinguished automatically (a directory with a shard
// catalog opens as a shard.DB, anything else as a table). Both engines
// serve the same API and return byte-identical responses.
//
//	POST /v1/query   {"op":"select|count|aggregate|groupby|scan", ...}
//	POST /v1/mutate  {"op":"insert|delete|batch", ...}
//	GET  /healthz    liveness (503 once draining)
//	GET  /statusz    engine summary
//
// Admission control runs two token-bucket lanes (reads and writes) with
// bounded wait queues; a full queue answers 429 + Retry-After instead of
// queueing unboundedly. SIGINT/SIGTERM starts a graceful drain: the
// listener stops accepting, inflight requests finish under their own
// deadlines, and the process exits only after the engine is verified to
// hold zero pinned frames and zero live snapshots.
//
// -debug additionally mounts /metrics, /slowops, and /debug/pprof; these
// are unauthenticated, so bind them to localhost.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/table"
)

func main() {
	var (
		db         = flag.String("db", "", "table file or shard directory (required)")
		listen     = flag.String("listen", ":8080", "listen address")
		readSlots  = flag.Int("read-slots", 0, "concurrent read cap (0 = 2x GOMAXPROCS)")
		writeSlots = flag.Int("write-slots", 0, "concurrent write cap (0 = GOMAXPROCS)")
		readQueue  = flag.Int("read-queue", 0, "read wait-queue depth before 429 (0 = 4x slots)")
		writeQueue = flag.Int("write-queue", 0, "write wait-queue depth before 429 (0 = 4x slots)")
		timeoutMs  = flag.Int("timeout-ms", 10_000, "default per-request deadline")
		maxMs      = flag.Int("max-timeout-ms", 60_000, "ceiling for client-requested timeout_ms")
		slowMs     = flag.Int("slowms", 50, "slow-op log threshold in milliseconds")
		drainSec   = flag.Int("drain-secs", 30, "max seconds to wait for inflight requests on shutdown")
		debug      = flag.Bool("debug", false, "mount /metrics, /slowops, /debug/pprof")
	)
	flag.Parse()
	if *db == "" {
		fmt.Fprintln(os.Stderr, "avqserve: -db is required")
		os.Exit(2)
	}
	if err := run(*db, *listen, server.Config{
		Limits: server.Limits{
			ReadSlots: *readSlots, WriteSlots: *writeSlots,
			ReadQueue: *readQueue, WriteQueue: *writeQueue,
		},
		DefaultTimeout: time.Duration(*timeoutMs) * time.Millisecond,
		MaxTimeout:     time.Duration(*maxMs) * time.Millisecond,
		Debug:          *debug,
	}, time.Duration(*slowMs)*time.Millisecond, time.Duration(*drainSec)*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "avqserve:", err)
		os.Exit(1)
	}
}

// openEngine opens path as a sharded database when it is a directory
// holding a shard catalog, and as a single-file table otherwise. Both
// engines tolerate the server's concurrent handlers.
func openEngine(path string, reg *obs.Registry) (server.Engine, string, error) {
	opts := []table.Option{table.WithObs(reg)}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		cat, err := shard.ReadCatalogDir(nil, path)
		if err != nil {
			return nil, "", fmt.Errorf("%s is a directory but has no shard catalog: %w", path, err)
		}
		db, err := shard.Open(shard.Config{Kind: cat.Kind, Dir: path, Options: opts, Obs: reg})
		if err != nil {
			return nil, "", err
		}
		live := db.Catalog()
		return db, fmt.Sprintf("sharded (%d shards, %s)", live.NumShards(), cat.Kind), nil
	}
	tb, err := table.Open(path, opts...)
	if err != nil {
		return nil, "", err
	}
	return tb, "single-file", nil
}

func run(db, listen string, cfg server.Config, slow, drainMax time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.NewRegistry()
	reg.SetSlowOpThreshold(slow)
	eng, kind, err := openEngine(db, reg)
	if err != nil {
		return err
	}
	cfg.Engine = eng
	cfg.Obs = reg

	s := server.New(cfg)
	l, err := net.Listen("tcp", listen)
	if err != nil {
		closeErr := eng.Close()
		if closeErr != nil {
			return errors.Join(err, closeErr)
		}
		return err
	}
	fmt.Printf("avqserve: %s engine %s (%d tuples, %d blocks) on http://%s\n",
		kind, db, eng.Len(), eng.NumBlocks(), l.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	select {
	case err := <-serveErr:
		// Listener died on its own; still close the engine.
		return errors.Join(err, eng.Close())
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the hard way
	fmt.Println("avqserve: draining...")

	drainCtx, cancel := context.WithTimeout(context.Background(), drainMax)
	defer cancel()
	drainErr := s.Shutdown(drainCtx)
	if err := <-serveErr; err != nil {
		drainErr = errors.Join(drainErr, err)
	}
	if err := eng.Close(); err != nil {
		drainErr = errors.Join(drainErr, err)
	}
	if drainErr != nil {
		return drainErr
	}
	fmt.Println("avqserve: drained clean (0 pins, 0 snapshots)")
	return nil
}
