// Command avqdb manages persistent AVQ tables: single-file compressed
// relations with a catalog, primary and secondary indexes, and localized
// updates.
//
// Usage:
//
//	avqdb create -db file -schema "region:16,store:128,units:1000" [-codec avq] [-index 1,2]
//	avqdb load   -db file -in data.rel
//	avqdb insert -db file -tuple "3,77,999"
//	avqdb delete -db file -tuple "3,77,999"
//	avqdb query   -db file -attr 0 -lo 3 -hi 4 [-limit 20]
//	avqdb count   -db file -attr 0 -lo 3 -hi 4
//	avqdb agg     -db file -attr 0 -lo 3 -hi 4 -agg 2
//	avqdb groupby -db file -attr 0 -lo 3 -hi 4 -group 1 -agg 2
//	avqdb join    -db file -with other.avq [-limit 20]
//	avqdb explain -db file -attr 0 -lo 3 -hi 4
//	avqdb compact -db file
//	avqdb stats   -db file [-live]
//	avqdb verify  -db file
//	avqdb wal     -db file
//	avqdb serve   -db file -listen :6060 [-slowms 50]
//	avqdb shard status -db dir
//
// shard status reads the shard catalog under -db (a sharded database
// directory), reopens every shard, and prints the φ-range layout with
// live per-shard sizes and the cross-layer invariant check.
//
// stats -live opens the table instrumented, replays a representative
// workload, and prints the live metrics registry. serve runs the full
// HTTP/JSON query service (see avqserve) over an instrumented table with
// the debug endpoints (/metrics, /slowops, /debug/pprof) mounted; it has
// no authentication, so bind it to localhost.
//
// The data commands (query, count, agg, insert, delete) build the same
// server.QueryRequest/MutateRequest the HTTP endpoints decode, so a CLI
// flag and a JSON field validate and execute through one shared path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/relfile"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/table"
	"repro/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	// Commands with subcommands (avqdb shard status ...) take the verb as
	// the next positional argument, flags after it.
	sub := ""
	flagArgs := os.Args[2:]
	if cmd == "shard" && len(os.Args) > 2 && !strings.HasPrefix(os.Args[2], "-") {
		sub = os.Args[2]
		flagArgs = os.Args[3:]
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		db        = fs.String("db", "", "table file (required)")
		schemaStr = fs.String("schema", "", "create: comma-separated name:size attribute list")
		codecName = fs.String("codec", "avq", fmt.Sprintf("create: block codec, one of %v", core.Codecs()))
		indexStr  = fs.String("index", "", "create: comma-separated secondary attribute positions")
		in        = fs.String("in", "", "load: plain .rel file")
		tupleStr  = fs.String("tuple", "", "insert/delete: comma-separated attribute values")
		attr      = fs.Int("attr", 0, "query/count: attribute position")
		lo        = fs.Uint64("lo", 0, "query/count: lower bound")
		hi        = fs.Uint64("hi", 0, "query/count: upper bound")
		limit     = fs.Int("limit", 20, "query: max rows to print")
		aggAttr   = fs.Int("agg", 0, "agg/groupby: attribute to aggregate")
		groupAttr = fs.Int("group", 0, "groupby: attribute to group by")
		with      = fs.String("with", "", "join: right-hand table file")
		live      = fs.Bool("live", false, "stats: replay a workload against an instrumented table and print the metrics registry")
		listen    = fs.String("listen", "localhost:6060", "serve: debug endpoint listen address")
		slowMs    = fs.Int("slowms", 50, "serve: slow-op log threshold in milliseconds")
	)
	fs.Parse(flagArgs)
	if *db == "" {
		fmt.Fprintln(os.Stderr, "avqdb: -db is required")
		os.Exit(2)
	}
	// Ctrl-C cancels the running command at the next block boundary
	// instead of killing it mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, cmd, args{
		sub: sub,
		db:  *db, schema: *schemaStr, codec: *codecName, index: *indexStr,
		in: *in, tuple: *tupleStr,
		attr: *attr, lo: *lo, hi: *hi, limit: *limit, aggAttr: *aggAttr,
		group: *groupAttr, with: *with,
		live: *live, listen: *listen, slowMs: *slowMs,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "avqdb:", err)
		os.Exit(1)
	}
}

type args struct {
	sub                                 string
	db, schema, codec, index, in, tuple string
	with                                string
	live                                bool
	attr, aggAttr, group                int
	lo, hi                              uint64
	limit, slowMs                       int
	listen                              string
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: avqdb create|load|insert|delete|query|count|agg|groupby|join|explain|compact|stats|verify|wal|serve|shard -db FILE [flags]")
}

func run(ctx context.Context, cmd string, a args) error {
	switch cmd {
	case "create":
		return create(a)
	case "load":
		return load(ctx, a)
	case "insert", "delete":
		return mutate(ctx, cmd, a)
	case "query":
		return query(ctx, a)
	case "count":
		return count(ctx, a)
	case "agg":
		return agg(ctx, a)
	case "groupby":
		return groupBy(ctx, a)
	case "join":
		return joinCmd(ctx, a)
	case "explain":
		return explain(a)
	case "compact":
		return compact(ctx, a)
	case "stats":
		return stats(ctx, a)
	case "verify":
		return verify(a)
	case "wal":
		return walInspect(a)
	case "serve":
		return serve(ctx, a)
	case "shard":
		return shardStatus(a)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// parseSchema parses "name:size,name:size,...".
func parseSchema(s string) (*relation.Schema, error) {
	if s == "" {
		return nil, fmt.Errorf("create needs -schema")
	}
	var doms []relation.Domain
	for _, part := range strings.Split(s, ",") {
		name, sizeStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("attribute %q is not name:size", part)
		}
		size, err := strconv.ParseUint(sizeStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %w", part, err)
		}
		doms = append(doms, relation.Domain{Name: name, Size: size})
	}
	return relation.NewSchema(doms...)
}

// parseValues parses "v1,v2,..." into raw values. Arity and domain
// checks happen in server.MutateRequest.Validate — the same path an HTTP
// mutation goes through.
func parseValues(str string) ([]uint64, error) {
	parts := strings.Split(str, ",")
	vals := make([]uint64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("value %d: %w", i, err)
		}
		vals[i] = v
	}
	return vals, nil
}

func create(a args) error {
	schema, err := parseSchema(a.schema)
	if err != nil {
		return err
	}
	codec, err := core.ParseCodec(a.codec)
	if err != nil {
		return err
	}
	var secondaries []int
	if a.index != "" {
		for _, p := range strings.Split(a.index, ",") {
			i, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("index position %q: %w", p, err)
			}
			secondaries = append(secondaries, i)
		}
	}
	tb, err := table.Create(schema,
		table.WithCodec(codec),
		table.WithPath(a.db),
		table.WithSecondaryAttrs(secondaries...),
	)
	if err != nil {
		return err
	}
	defer tb.Close()
	fmt.Printf("created %s: schema %s, codec %s, %d secondary indexes\n",
		a.db, schema, codec, len(secondaries))
	return nil
}

func openDB(a args) (*table.Table, error) {
	return table.Open(a.db)
}

func load(ctx context.Context, a args) error {
	if a.in == "" {
		return fmt.Errorf("load needs -in")
	}
	f, err := os.Open(a.in)
	if err != nil {
		return err
	}
	defer f.Close()
	tb, err := openDB(a)
	if err != nil {
		return err
	}
	defer tb.Close()
	var tuples []relation.Tuple
	if strings.HasSuffix(a.in, ".csv") {
		_, tuples, err = relfile.ReadCSV(f, tb.Schema())
	} else {
		var schema *relation.Schema
		schema, tuples, err = relfile.ReadPlain(f)
		if err == nil && !tb.Schema().Equal(schema) {
			return fmt.Errorf("file schema %s does not match table schema %s", schema, tb.Schema())
		}
	}
	if err != nil {
		return err
	}
	if tb.Len() == 0 {
		if err := tb.BulkLoadContext(ctx, tuples); err != nil {
			return err
		}
	} else if err := tb.InsertBatchContext(ctx, tuples); err != nil {
		return err
	}
	fmt.Printf("loaded %d tuples; table now holds %d in %d blocks\n",
		len(tuples), tb.Len(), tb.NumBlocks())
	return nil
}

func compact(ctx context.Context, a args) error {
	tb, err := openDB(a)
	if err != nil {
		return err
	}
	defer tb.Close()
	before, after, err := tb.CompactContext(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("compacted %d blocks into %d\n", before, after)
	return nil
}

// runQuery opens the table and executes one QueryRequest through the
// exact validation and execution path the HTTP endpoint uses.
func runQuery(ctx context.Context, a args, req server.QueryRequest) (*server.QueryResponse, int, error) {
	tb, err := openDB(a)
	if err != nil {
		return nil, 0, err
	}
	defer tb.Close()
	if err := req.Validate(tb.Schema()); err != nil {
		return nil, 0, err
	}
	resp, err := req.Run(ctx, tb)
	if err != nil {
		return nil, 0, err
	}
	return resp, tb.NumBlocks(), nil
}

func mutate(ctx context.Context, cmd string, a args) error {
	if a.tuple == "" {
		return fmt.Errorf("%s needs -tuple", cmd)
	}
	vals, err := parseValues(a.tuple)
	if err != nil {
		return err
	}
	tb, err := openDB(a)
	if err != nil {
		return err
	}
	defer tb.Close()
	req := server.MutateRequest{Op: cmd, Tuple: vals}
	if err := req.Validate(tb.Schema()); err != nil {
		return err
	}
	resp, err := req.Run(ctx, tb)
	if err != nil {
		return err
	}
	tu := relation.Tuple(vals)
	switch {
	case cmd == "insert":
		fmt.Printf("inserted %v; table holds %d tuples in %d blocks\n", tu, resp.Len, tb.NumBlocks())
	case !resp.Found:
		fmt.Printf("%v not found\n", tu)
	default:
		fmt.Printf("deleted %v; table holds %d tuples in %d blocks\n", tu, resp.Len, tb.NumBlocks())
	}
	return nil
}

func query(ctx context.Context, a args) error {
	resp, blocks, err := runQuery(ctx, a, server.QueryRequest{
		Op: server.OpSelect, Attr: a.attr, Lo: a.lo, Hi: a.hi,
		Limit: a.limit, Stats: true,
	})
	if err != nil {
		return err
	}
	for _, row := range resp.Rows {
		fmt.Println(relation.Tuple(row))
	}
	if resp.Truncated {
		fmt.Printf("... and %d more\n", resp.Count-len(resp.Rows))
	}
	fmt.Printf("%d rows via %s\n", resp.Count, pathLine(resp.Stats, blocks))
	return nil
}

// pathLine renders a query's access-path counters: the blocks read (the
// paper's N), the blocks the φ-fences pruned, and how many reads decoded
// only a span of the block. Folds that read whole φ slabs (a flat
// schema) also report the slabs and the rows they held.
func pathLine(st *server.StatsJSON, total int) string {
	line := fmt.Sprintf("%s path: %d of %d blocks read, %d pruned by fence, %d partial decodes",
		st.Strategy, st.BlocksRead, total, st.BlocksPruned, st.PartialDecodes)
	if st.BatchBlocks > 0 {
		line += fmt.Sprintf("; batch: %d slabs, %d rows", st.BatchBlocks, st.SlabRows)
	}
	return line
}

func count(ctx context.Context, a args) error {
	resp, blocks, err := runQuery(ctx, a, server.QueryRequest{
		Op: server.OpCount, Attr: a.attr, Lo: a.lo, Hi: a.hi, Stats: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%d rows via %s\n", resp.Count, pathLine(resp.Stats, blocks))
	return nil
}

func agg(ctx context.Context, a args) error {
	resp, blocks, err := runQuery(ctx, a, server.QueryRequest{
		Op: server.OpAggregate, Attr: a.attr, Lo: a.lo, Hi: a.hi,
		AggAttr: a.aggAttr, Stats: true,
	})
	if err != nil {
		return err
	}
	res := resp.Agg
	fmt.Printf("count=%d sum=%d min=%d max=%d (attr %d over %d<=A%d<=%d; %s)\n",
		res.Count, res.Sum, res.Min, res.Max, a.aggAttr, a.lo, a.attr+1, a.hi, pathLine(resp.Stats, blocks))
	return nil
}

func groupBy(ctx context.Context, a args) error {
	resp, blocks, err := runQuery(ctx, a, server.QueryRequest{
		Op: server.OpGroupBy, Attr: a.attr, Lo: a.lo, Hi: a.hi,
		GroupAttr: a.group, AggAttr: a.aggAttr, Stats: true,
	})
	if err != nil {
		return err
	}
	for _, g := range resp.Groups {
		fmt.Printf("A%d=%d: count=%d sum=%d min=%d max=%d\n",
			a.group+1, g.Value, g.Agg.Count, g.Agg.Sum, g.Agg.Min, g.Agg.Max)
	}
	fmt.Printf("%d groups over %d rows via %s\n", len(resp.Groups), resp.Count, pathLine(resp.Stats, blocks))
	return nil
}

// joinCmd merge-joins the -db table with the -with table on both
// clustering attributes, printing a row count and the join's access-path
// accounting: per-side I/O, fence-level pruning from the sparse-key
// seeks, and the whole-φ-slab counters.
func joinCmd(ctx context.Context, a args) error {
	if a.with == "" {
		return fmt.Errorf("join needs -with")
	}
	left, err := openDB(a)
	if err != nil {
		return err
	}
	defer left.Close()
	right, err := table.Open(a.with)
	if err != nil {
		return err
	}
	defer right.Close()
	rows := 0
	st, err := table.MergeJoinEachContext(ctx, left, right, func(row table.JoinRow) bool {
		rows++
		if rows <= a.limit {
			fmt.Printf("%v ⋈ %v\n", row.Left, row.Right)
		}
		return true
	})
	if err != nil {
		return err
	}
	if rows > a.limit {
		fmt.Printf("... and %d more\n", rows-a.limit)
	}
	both := st.Left
	both.Add(st.Right)
	fmt.Printf("%d join rows; left %d blocks read, right %d blocks read, %d pruned by fence",
		st.Matches, st.Left.BlocksRead, st.Right.BlocksRead, both.BlocksPruned)
	if both.BatchBlocks > 0 {
		fmt.Printf("; batch: %d slabs, %d rows", both.BatchBlocks, both.SlabRows)
	}
	fmt.Println()
	return nil
}

func explain(a args) error {
	tb, err := openDB(a)
	if err != nil {
		return err
	}
	defer tb.Close()
	plan, err := tb.Explain([]table.Predicate{{Attr: a.attr, Lo: a.lo, Hi: a.hi}})
	if err != nil {
		return err
	}
	fmt.Print(plan)
	return nil
}

func stats(ctx context.Context, a args) error {
	if a.live {
		return statsLive(ctx, a)
	}
	tb, err := openDB(a)
	if err != nil {
		return err
	}
	defer tb.Close()
	st, err := tb.StoreStats()
	if err != nil {
		return err
	}
	fmt.Printf("schema: %s\n", tb.Schema())
	fmt.Printf("codec: %s\n", tb.Codec())
	fmt.Printf("tuples: %d in %d blocks (%d directory entries, %d secondary index nodes)\n",
		tb.Len(), tb.NumBlocks(), tb.NumBlocks(), tb.IndexNodeCount())
	fmt.Printf("coded payload: %d bytes; raw rows would be %d bytes (%.1f%% reduction)\n",
		st.StreamBytes, st.RawDataBytes, st.StreamSavingsPercent())
	ps := tb.PoolStats()
	fmt.Printf("buffer pool: %d hits, %d misses, %d evictions\n", ps.Hits, ps.Misses, ps.Evictions)
	return nil
}

// statsLive opens the table instrumented, replays a representative
// workload (full scan plus a range count and aggregate per attribute), and
// prints the registry snapshot — counters, gauges, latency histograms, and
// any ops that crossed the slow threshold.
func statsLive(ctx context.Context, a args) error {
	reg := obs.NewRegistry()
	reg.SetSlowOpThreshold(time.Duration(a.slowMs) * time.Millisecond)
	tb, err := table.Open(a.db, table.WithObs(reg))
	if err != nil {
		return err
	}
	defer tb.Close()
	if err := replayWorkload(ctx, tb); err != nil {
		return err
	}
	fmt.Printf("live metrics for %s (%d tuples, %d blocks):\n", a.db, tb.Len(), tb.NumBlocks())
	return reg.Snapshot().WriteText(os.Stdout)
}

// replayWorkload drives every read path once so each instrumented layer
// has something to report: a full scan, then per-attribute range counts
// and an aggregate over the lower half of each domain.
func replayWorkload(ctx context.Context, tb *table.Table) error {
	if err := tb.ScanContext(ctx, func(relation.Tuple) bool { return true }); err != nil {
		return err
	}
	s := tb.Schema()
	for attr := 0; attr < s.NumAttrs(); attr++ {
		hi := s.Domain(attr).Size / 2
		if _, _, err := tb.CountRangeContext(ctx, attr, 0, hi); err != nil {
			return err
		}
	}
	if s.NumAttrs() > 1 {
		if _, _, err := tb.AggregateRangeContext(ctx, 0, 0, s.Domain(0).Size, 1); err != nil {
			return err
		}
	}
	return nil
}

// walInspect prints the write-ahead log's segments without opening (or
// replaying into) the table, so it is safe to run on a crashed image.
func walInspect(a args) error {
	segs, err := wal.Inspect(nil, a.db+".wal")
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		fmt.Printf("%s: no write-ahead log (checkpoint-only durability)\n", a.db)
		return nil
	}
	fmt.Printf("%-28s %12s %8s %8s %6s %s\n", "segment", "generation", "records", "bytes", "torn", "header")
	var records int
	for _, s := range segs {
		head := "ok"
		if !s.HeaderOK {
			head = "DAMAGED"
		}
		torn := "-"
		if s.TornTail {
			torn = "yes"
		}
		fmt.Printf("%-28s %12d %8d %8d %6s %s\n", s.Name, s.BaseGen, s.Records, s.Bytes, torn, head)
		records += s.Records
	}
	fmt.Printf("%d segment(s), %d replayable record(s)\n", len(segs), records)
	return nil
}

// serve runs the full HTTP/JSON query service over an instrumented
// table — the same internal/server stack avqserve uses, with the debug
// endpoints mounted. The workload is replayed once at startup so
// /metrics is not empty, and SIGINT/SIGTERM drains gracefully: inflight
// requests finish, then the engine is asserted to hold zero pinned
// frames and zero live snapshots.
func serve(ctx context.Context, a args) error {
	reg := obs.NewRegistry()
	reg.SetSlowOpThreshold(time.Duration(a.slowMs) * time.Millisecond)
	tb, err := table.Open(a.db, table.WithObs(reg))
	if err != nil {
		return err
	}
	if err := replayWorkload(ctx, tb); err != nil {
		return errors.Join(err, tb.Close())
	}
	s := server.New(server.Config{Engine: tb, Obs: reg, Debug: true})
	l, err := net.Listen("tcp", a.listen)
	if err != nil {
		return errors.Join(err, tb.Close())
	}
	fmt.Printf("serving /v1/query, /v1/mutate, /metrics, /slowops, /debug/pprof on %s (table %s: %d tuples, %d blocks)\n",
		a.listen, a.db, tb.Len(), tb.NumBlocks())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	select {
	case err := <-serveErr:
		return errors.Join(err, tb.Close())
	case <-ctx.Done():
	}
	fmt.Println("draining...")
	// The signal ctx is already cancelled; give the drain its own
	// deadline derived from it so inflight requests can still finish.
	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
	defer cancel()
	err = s.Shutdown(drainCtx)
	err = errors.Join(err, <-serveErr, tb.Close())
	if err != nil {
		return err
	}
	fmt.Println("drained clean (0 pins, 0 snapshots)")
	return nil
}

func verify(a args) error {
	tb, err := openDB(a)
	if err != nil {
		return err
	}
	defer tb.Close()
	if err := tb.CheckInvariants(); err != nil {
		return err
	}
	fmt.Printf("%s: OK — %d tuples, %d blocks, all invariants hold\n", a.db, tb.Len(), tb.NumBlocks())
	return nil
}

// shardStatus prints the shard catalog under a.db — the φ-range split
// points, backend kind, and epoch — then reopens the shards for live
// tuple/block counts and runs the cross-layer invariant check.
func shardStatus(a args) error {
	if a.sub != "" && a.sub != "status" {
		return fmt.Errorf("unknown shard subcommand %q (want status)", a.sub)
	}
	cat, err := shard.ReadCatalogDir(nil, a.db)
	if err != nil {
		return err
	}
	fmt.Printf("shard catalog: kind=%s epoch=%d domain=%d shards=%d\n",
		cat.Kind, cat.Epoch, cat.Domain, cat.NumShards())
	db, err := shard.Open(shard.Config{Kind: cat.Kind, Dir: a.db})
	if err != nil {
		return fmt.Errorf("open shards: %w", err)
	}
	defer db.Close()
	live := db.Catalog()
	fmt.Printf("%-12s %14s %10s %10s\n", "shard", "phi-range", "tuples", "blocks")
	for i := 0; i < live.NumShards(); i++ {
		lo, hi := live.RangeOf(i)
		sh := db.Shard(i)
		fmt.Printf("shard-%04d   [%5d,%5d] %10d %10d\n", i, lo, hi, sh.Len(), sh.NumBlocks())
	}
	fmt.Printf("total: %d tuples in %d blocks\n", db.Len(), db.NumBlocks())
	if err := db.Check(); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	fmt.Println("check: ok")
	return nil
}
