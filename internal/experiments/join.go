package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/table"
)

// JoinConfig parameterizes the columnar batch-execution experiment: the
// φ-space merge join and φ-prefix group-by against their tuple-at-a-time
// oracles, the slab-kernel allocation check, and the differential gates.
type JoinConfig struct {
	// Tuples is the left (dense) relation size; default 120_000.
	Tuples int
	// RightTuples is the right (sparse-key) relation size; default 12_000.
	RightTuples int
	// Stride is the sparse-key spacing: the right relation only holds
	// clustering keys that are multiples of it, so the merge join's
	// lagging side has long fence-skippable gaps. Default 64.
	Stride int
	// PageSize is the block size; default 1024 (small blocks keep each
	// block's key span narrow, which is what fence-level skipping needs).
	PageSize int
	// Rounds is how many times each timed measurement repeats; the best
	// round is kept. Default 5.
	Rounds int
	// Shards is the φ-range shard count for the sharded differential.
	// Default 4.
	Shards int
	// Seed makes the workload deterministic.
	Seed int64
}

func (c *JoinConfig) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 120_000
	}
	if c.RightTuples == 0 {
		c.RightTuples = 12_000
	}
	if c.Stride == 0 {
		c.Stride = 64
	}
	if c.PageSize == 0 {
		c.PageSize = 1024
	}
	if c.Rounds == 0 {
		c.Rounds = 5
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
}

// JoinResult reports the batch-execution measurements. Gates:
//   - the φ-space merge join is at least MinJoinSpeedup times faster
//     than the tuple-at-a-time merge join on the sparse-key workload
//     (JoinPass);
//   - the φ-prefix group-by is at least MinGroupSpeedup times faster
//     than the tuple path (GroupPass);
//   - the slab decode kernel allocates zero objects per block at steady
//     state, for every codec (ZeroAllocPass);
//   - the batch join and group-by results are identical to the tuple
//     path, and the 4-shard chained-stream join is identical to the
//     single-table join (DifferentialPass).
type JoinResult struct {
	Tuples      int `json:"tuples"`
	RightTuples int `json:"right_tuples"`
	Stride      int `json:"stride"`
	PageSize    int `json:"page_size"`
	Rounds      int `json:"rounds"`
	Shards      int `json:"shards"`

	JoinBatchMillis float64 `json:"join_batch_ms"`
	JoinTupleMillis float64 `json:"join_tuple_ms"`
	JoinSpeedup     float64 `json:"join_speedup"`
	MinJoinSpeedup  float64 `json:"min_join_speedup"`
	JoinMatches     int     `json:"join_matches"`
	JoinPrunedPct   float64 `json:"join_pruned_pct"`

	GroupBatchMillis float64 `json:"group_batch_ms"`
	GroupTupleMillis float64 `json:"group_tuple_ms"`
	GroupSpeedup     float64 `json:"group_speedup"`
	MinGroupSpeedup  float64 `json:"min_group_speedup"`
	Groups           int     `json:"groups"`

	SlabAllocsPerOp map[string]float64 `json:"slab_allocs_per_op"`

	JoinPass         bool `json:"join_pass"`
	GroupPass        bool `json:"group_pass"`
	ZeroAllocPass    bool `json:"zero_alloc_pass"`
	DifferentialPass bool `json:"differential_pass"`
	Pass             bool `json:"pass"`
}

// Acceptance floors for the columnar batch executor.
const (
	joinMinSpeedup  = 3.0
	groupMinSpeedup = 2.0
)

// joinSchema is the experiment schema: a wide clustering domain (so
// sparse keys leave multi-block gaps) over a flat ordinal space.
func joinSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Domain{Name: "key", Size: 4096},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "units", Size: 256},
	)
}

// joinWorkload builds the dense left and sparse right relations.
func joinWorkload(cfg JoinConfig) (left, right []relation.Tuple) {
	s := joinSchema()
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	rnd := func(keyMask uint64) relation.Tuple {
		tu := make(relation.Tuple, s.NumAttrs())
		for j := 0; j < s.NumAttrs(); j++ {
			tu[j] = uint64(rng.Int63n(int64(s.Domain(j).Size)))
		}
		if keyMask != 0 {
			tu[0] -= tu[0] % keyMask
		}
		return tu
	}
	left = make([]relation.Tuple, cfg.Tuples)
	for i := range left {
		left[i] = rnd(0)
	}
	right = make([]relation.Tuple, cfg.RightTuples)
	for i := range right {
		right[i] = rnd(uint64(cfg.Stride))
	}
	return left, right
}

// joinTable loads tuples into a fresh memory table, on the batch path or
// the tuple-path oracle. frames sizes the buffer pool (0: the default);
// the group-by measurement sizes it to hold every coded page so both
// paths run from a warm pool.
func joinTable(ctx context.Context, cfg JoinConfig, tuples []relation.Tuple, batch bool, frames int) (*table.Table, error) {
	tb, err := table.Create(joinSchema(),
		table.WithCodec(core.CodecAVQ),
		table.WithPageSize(cfg.PageSize),
		table.WithBatch(batch),
		table.WithPoolFrames(frames),
	)
	if err != nil {
		return nil, err
	}
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		return nil, err
	}
	return tb, nil
}

// bestMillis times f cfg.Rounds times and keeps the fastest run.
func bestMillis(rounds int, f func() error) (float64, error) {
	var best time.Duration
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if r == 0 || d < best {
			best = d
		}
	}
	return float64(best.Microseconds()) / 1e3, nil
}

// RunJoin measures the columnar batch executor: φ-space merge join and
// φ-prefix group-by against the tuple path, slab-kernel allocations, and
// the single-table and 4-shard differential gates.
func RunJoin(ctx context.Context, cfg JoinConfig) (*JoinResult, error) {
	cfg.fillDefaults()
	res := &JoinResult{
		Tuples:          cfg.Tuples,
		RightTuples:     cfg.RightTuples,
		Stride:          cfg.Stride,
		PageSize:        cfg.PageSize,
		Rounds:          cfg.Rounds,
		Shards:          cfg.Shards,
		MinJoinSpeedup:  joinMinSpeedup,
		MinGroupSpeedup: groupMinSpeedup,
		SlabAllocsPerOp: map[string]float64{},
		ZeroAllocPass:   true,
	}

	leftTuples, rightTuples := joinWorkload(cfg)
	var tables []*table.Table
	mk := func(tuples []relation.Tuple, batch bool, frames int) (*table.Table, error) {
		tb, err := joinTable(ctx, cfg, tuples, batch, frames)
		if err == nil {
			tables = append(tables, tb)
		}
		return tb, err
	}
	defer func() {
		for _, tb := range tables {
			_ = tb.Close()
		}
	}()
	lb, err := mk(leftTuples, true, 0)
	if err != nil {
		return nil, err
	}
	rb, err := mk(rightTuples, true, 0)
	if err != nil {
		return nil, err
	}
	lo, err := mk(leftTuples, false, 0)
	if err != nil {
		return nil, err
	}
	ro, err := mk(rightTuples, false, 0)
	if err != nil {
		return nil, err
	}

	// Merge join: batch (φ-space, fence skipping) versus tuple oracle.
	drain := func(left, right *table.Table) (table.JoinStats, error) {
		return table.MergeJoinEachContext(ctx, left, right, func(table.JoinRow) bool { return true })
	}
	var batchStats table.JoinStats
	res.JoinBatchMillis, err = bestMillis(cfg.Rounds, func() error {
		st, err := drain(lb, rb)
		batchStats = st
		return err
	})
	if err != nil {
		return nil, err
	}
	var tupleStats table.JoinStats
	res.JoinTupleMillis, err = bestMillis(cfg.Rounds, func() error {
		st, err := drain(lo, ro)
		tupleStats = st
		return err
	})
	if err != nil {
		return nil, err
	}
	if batchStats.BatchBlocks == 0 {
		return nil, fmt.Errorf("join: batch run did not take the columnar path")
	}
	res.JoinMatches = batchStats.Matches
	if total := batchStats.BatchBlocks + batchStats.BlocksPruned; total > 0 {
		res.JoinPrunedPct = float64(batchStats.BlocksPruned) / float64(total) * 100
	}
	if res.JoinBatchMillis > 0 {
		res.JoinSpeedup = res.JoinTupleMillis / res.JoinBatchMillis
	}
	res.JoinPass = res.JoinSpeedup >= res.MinJoinSpeedup

	// Differential: identical rows from both paths, and from the sharded
	// chained-stream join.
	batchRows, _, err := table.MergeJoinContext(ctx, lb, rb)
	if err != nil {
		return nil, err
	}
	tupleRows, _, err := table.MergeJoinContext(ctx, lo, ro)
	if err != nil {
		return nil, err
	}
	res.DifferentialPass = len(batchRows) == len(tupleRows) &&
		batchStats.Matches == tupleStats.Matches &&
		reflect.DeepEqual(batchRows, tupleRows)

	shardRows, err := shardJoinRows(ctx, cfg, leftTuples, rightTuples)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(shardRows, tupleRows) {
		res.DifferentialPass = false
	}

	// Group-by on the φ prefix: contiguous key runs on raw ordinals
	// versus the tuple path's hash map. Both tables get a buffer pool that
	// holds every coded page, warmed by one scan, so the timed passes
	// compare the read paths from memory — φ-slab decode and digit
	// arithmetic against tuple decode and materialization — not pager I/O.
	dom := joinSchema().Domain(0).Size
	gb, err := mk(leftTuples, true, lb.NumBlocks()+1)
	if err != nil {
		return nil, err
	}
	go_, err := mk(leftTuples, false, lb.NumBlocks()+1)
	if err != nil {
		return nil, err
	}
	for _, tb := range []*table.Table{gb, go_} {
		if _, err := tb.SelectRangeFuncContext(ctx, 0, 0, dom-1, func(relation.Tuple) bool { return true }); err != nil {
			return nil, err
		}
	}
	var batchGroups []table.GroupResult
	res.GroupBatchMillis, err = bestMillis(cfg.Rounds, func() error {
		g, _, err := gb.GroupByContext(ctx, 0, 0, dom-1, 0, 3)
		batchGroups = g
		return err
	})
	if err != nil {
		return nil, err
	}
	var tupleGroups []table.GroupResult
	res.GroupTupleMillis, err = bestMillis(cfg.Rounds, func() error {
		g, _, err := go_.GroupByContext(ctx, 0, 0, dom-1, 0, 3)
		tupleGroups = g
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Groups = len(batchGroups)
	if res.GroupBatchMillis > 0 {
		res.GroupSpeedup = res.GroupTupleMillis / res.GroupBatchMillis
	}
	res.GroupPass = res.GroupSpeedup >= res.MinGroupSpeedup
	if !reflect.DeepEqual(batchGroups, tupleGroups) {
		res.DifferentialPass = false
	}

	// Slab kernel: steady-state DecodeBlockPhis must allocate nothing,
	// for every codec.
	s, block := decodeMicroBlock(DecodeConfig{BlockTuples: 256, Seed: cfg.Seed})
	for _, c := range core.Codecs() {
		enc, err := core.EncodeBlock(c, s, block, nil)
		if err != nil {
			return nil, fmt.Errorf("%v: encode: %w", c, err)
		}
		a := core.NewArena()
		got := allocsPerOp(100, func() {
			a.Reset()
			if _, err := core.DecodeBlockPhis(s, enc, a); err != nil {
				panic(err)
			}
		})
		res.SlabAllocsPerOp[c.String()] = got
		if got != 0 {
			res.ZeroAllocPass = false
		}
	}

	res.Pass = res.JoinPass && res.GroupPass && res.ZeroAllocPass && res.DifferentialPass
	return res, nil
}

// shardJoinRows loads the workload into two cfg.Shards-way sharded
// memory databases and joins them through the chained per-shard batch
// streams.
func shardJoinRows(ctx context.Context, cfg JoinConfig, left, right []relation.Tuple) ([]table.JoinRow, error) {
	mk := func(tuples []relation.Tuple) (*shard.DB, error) {
		db, err := shard.Create(joinSchema(), shard.Config{
			Kind:    backend.KindMemory,
			Shards:  cfg.Shards,
			Options: []table.Option{table.WithPageSize(cfg.PageSize)},
		})
		if err != nil {
			return nil, err
		}
		if err := db.BulkLoad(ctx, tuples); err != nil {
			return nil, errors.Join(err, db.Close())
		}
		return db, nil
	}
	ldb, err := mk(left)
	if err != nil {
		return nil, err
	}
	defer ldb.Close()
	rdb, err := mk(right)
	if err != nil {
		return nil, err
	}
	defer rdb.Close()
	rows, _, err := ldb.MergeJoin(ctx, rdb)
	return rows, err
}

// WriteText renders the result as an aligned report.
func (r *JoinResult) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "Columnar batch execution: %d ⋈ %d tuples (stride %d), %d-byte pages, best of %d rounds\n",
		r.Tuples, r.RightTuples, r.Stride, r.PageSize, r.Rounds)
	fmt.Fprintf(w, "merge join: batch %.2f ms vs tuple %.2f ms (%.1fx, %d matches, %.1f%% of blocks fence-pruned)\n",
		r.JoinBatchMillis, r.JoinTupleMillis, r.JoinSpeedup, r.JoinMatches, r.JoinPrunedPct)
	fmt.Fprintf(w, "group-by(A1): batch %.2f ms vs tuple %.2f ms (%.1fx, %d groups)\n",
		r.GroupBatchMillis, r.GroupTupleMillis, r.GroupSpeedup, r.Groups)
	fmt.Fprintf(w, "slab kernel allocs/op:")
	for _, c := range core.Codecs() {
		if v, ok := r.SlabAllocsPerOp[c.String()]; ok {
			fmt.Fprintf(w, " %s=%.1f", c, v)
		}
	}
	fmt.Fprintln(w)
	verdict := func(b bool) string {
		if b {
			return "PASS"
		}
		return "FAIL"
	}
	fmt.Fprintf(w, "gate: batch merge join >= %.1fx tuple path: %s\n", r.MinJoinSpeedup, verdict(r.JoinPass))
	fmt.Fprintf(w, "gate: φ-prefix group-by >= %.1fx tuple path: %s\n", r.MinGroupSpeedup, verdict(r.GroupPass))
	fmt.Fprintf(w, "gate: slab kernels allocate 0 objects/op: %s\n", verdict(r.ZeroAllocPass))
	fmt.Fprintf(w, "gate: batch and %d-shard results identical to tuple path: %s\n", r.Shards, verdict(r.DifferentialPass))
	return nil
}

// WriteJSON renders the result as indented JSON.
func (r *JoinResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
