package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/table"
)

// DecodeConfig parameterizes the decode-kernel experiment: the
// zero-allocation full-block and φ-slab decode of every codec, the
// flat-ordinal span walk, both decode walks over page-sized blocks shaped
// like the end-to-end ledger's relations, and the same macro workload
// RunObs times so the benchgate can compare across PRs.
type DecodeConfig struct {
	// Tuples is the macro relation size; default 100_000.
	Tuples int
	// PageSize is the block size; default 8192.
	PageSize int
	// BlockTuples sizes the micro-benchmark block; default 256.
	BlockTuples int
	// Rounds is how many times each measurement repeats; the best round
	// is kept. Default 5.
	Rounds int
	// Iters is the number of timed iterations per round. Default 2000.
	Iters int
	// CountIters is how many CountRange queries the macro round times.
	// Default 50.
	CountIters int
	// Seed makes the workload deterministic.
	Seed int64
}

func (c *DecodeConfig) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 100_000
	}
	if c.PageSize == 0 {
		c.PageSize = 8192
	}
	if c.BlockTuples == 0 {
		c.BlockTuples = 256
	}
	if c.Rounds == 0 {
		c.Rounds = 5
	}
	if c.Iters == 0 {
		c.Iters = 2000
	}
	if c.CountIters == 0 {
		c.CountIters = 50
	}
}

// DecodeCodecResult is one codec's steady-state full-block decode of the
// micro block, both ways: tuples (DecodeBlockArena) and the φ slab the
// batch executor reads (DecodeBlockPhis).
type DecodeCodecResult struct {
	Codec            string  `json:"codec"`
	ArenaNsPerOp     float64 `json:"arena_ns_per_op"`
	ArenaAllocsPerOp float64 `json:"arena_allocs_per_op"`
	PhisNsPerOp      float64 `json:"phis_ns_per_op"`
	PhisAllocsPerOp  float64 `json:"phis_allocs_per_op"`
}

// DecodeShapeResult is one ledger-shaped relation cut into page-sized
// blocks: each codec's decode cost per tuple beside a memmove of the same
// coded bytes, the roofline a byte-oriented decode cannot beat.
type DecodeShapeResult struct {
	Shape         string                   `json:"shape"`
	Tuples        int                      `json:"tuples"`
	RowBytes      int                      `json:"row_bytes"`
	Flat          bool                     `json:"flat"`
	MemmoveMBPerS float64                  `json:"memmove_mb_per_s"`
	Codecs        []DecodeShapeCodecResult `json:"codecs"`
}

// DecodeShapeCodecResult is one codec over one shape's blocks. CodedMBPerS
// is coded stream bytes decoded per second on the shape the table's reads
// take: the φ slab on a flat schema, tuples otherwise.
type DecodeShapeCodecResult struct {
	Codec            string  `json:"codec"`
	Blocks           int     `json:"blocks"`
	TuplesPerBlock   float64 `json:"tuples_per_block"`
	PhisNsPerTuple   float64 `json:"phis_ns_per_tuple,omitempty"`
	TuplesNsPerTuple float64 `json:"tuples_ns_per_tuple"`
	CodedMBPerS      float64 `json:"coded_mb_per_s"`
	AllocsPerOp      float64 `json:"allocs_per_op"`
}

// DecodeResult reports the decode-kernel measurements. One gate: every
// codec's steady-state arena and φ-slab decode, on the micro block and on
// every shape's blocks, and the PhiSpan walk, allocate zero objects per
// block (ZeroAllocPass).
//
// LoadMillis and CountMillis repeat RunObs's uninstrumented workload so
// scripts/benchgate.sh can hold this PR against the committed
// BENCH_obs.json baseline.
type DecodeResult struct {
	Tuples      int `json:"tuples"`
	PageSize    int `json:"page_size"`
	BlockTuples int `json:"block_tuples"`
	Rounds      int `json:"rounds"`
	CountIters  int `json:"count_iters"`

	Codecs []DecodeCodecResult `json:"codecs"`
	Shapes []DecodeShapeResult `json:"shapes"`

	PhiSpanNsPerOp     float64 `json:"phispan_ns_per_op"`
	PhiSpanAllocsPerOp float64 `json:"phispan_allocs_per_op"`

	LoadMillis  float64 `json:"load_ms"`
	CountMillis float64 `json:"count_ms"`

	ZeroAllocPass bool `json:"zero_alloc_pass"`
	Pass          bool `json:"pass"`
}

// bestNsPerOp times f over cfg.Iters iterations, cfg.Rounds times, and
// returns the fastest round's per-iteration nanoseconds.
func bestNsPerOp(rounds, iters int, f func()) float64 {
	best := 0.0
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(iters)
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// allocsPerOp measures f's steady-state heap allocations per call, the
// same way testing.AllocsPerRun does: one warm-up call, then a counted
// run under GOMAXPROCS(1) so other goroutines' allocations cannot bleed
// into the window. The GC is paused for the measurement and the best of
// three windows is kept: a single clean window proves the operation
// itself does not allocate, whereas runtime background activity can add
// strays to any one window.
func allocsPerOp(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	best := 0.0
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / float64(runs)
		if w == 0 || got < best {
			best = got
		}
	}
	return best
}

// decodeMicroBlock builds a sorted block of cfg.BlockTuples random
// tuples over the paper's five-attribute employee schema, whose
// cross-product space fits a uint64 so the flat-ordinal path is live.
func decodeMicroBlock(cfg DecodeConfig) (*relation.Schema, []relation.Tuple) {
	s := relation.MustSchema(
		relation.Domain{Name: "dept", Size: 8},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "hours", Size: 64},
		relation.Domain{Name: "empno", Size: 64},
	)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	tuples := make([]relation.Tuple, cfg.BlockTuples)
	for i := range tuples {
		tu := make(relation.Tuple, s.NumAttrs())
		for j := 0; j < s.NumAttrs(); j++ {
			tu[j] = uint64(rng.Int63n(int64(s.Domain(j).Size)))
		}
		tuples[i] = tu
	}
	s.SortTuples(tuples)
	return s, tuples
}

// shapeTuples sizes each ledger-shaped relation of the decode experiment.
const shapeTuples = 20_000

// runDecodeShape generates the end-to-end benchmark's relation of that
// name (gen.BenchShapeSpec), cuts it into page-sized blocks per codec the
// way a bulk load does (core.Pack), and times whole-relation passes of
// each decode walk over those blocks.
func runDecodeShape(cfg DecodeConfig, name string, codecs []core.Codec) (DecodeShapeResult, error) {
	spec, err := gen.BenchShapeSpec(name, shapeTuples, cfg.Seed)
	if err != nil {
		return DecodeShapeResult{}, err
	}
	s, tuples, err := spec.Build()
	if err != nil {
		return DecodeShapeResult{}, err
	}
	s.SortTuples(tuples)
	_, flat := s.FlatSpace()
	res := DecodeShapeResult{Shape: name, Tuples: len(tuples), RowBytes: s.RowSize(), Flat: flat}
	// Each timed op is one pass over the whole relation; a handful per
	// round keeps a round near cfg.Iters small-block decodes.
	iters := max(1, cfg.Iters*cfg.BlockTuples/len(tuples))
	var coded int
	for _, c := range codecs {
		runs, _, err := core.Pack(c, s, tuples, blockstore.StreamCapacity(cfg.PageSize))
		if err != nil {
			return res, fmt.Errorf("%s/%v: %w", name, c, err)
		}
		blocks := make([][]byte, len(runs))
		bytes := 0
		for i, run := range runs {
			if blocks[i], err = core.EncodeBlock(c, s, run, nil); err != nil {
				return res, err
			}
			bytes += len(blocks[i])
		}
		if c == core.CodecAVQ {
			coded = bytes
		}
		a := core.NewArena()
		tuplesOp := func() {
			for _, b := range blocks {
				a.Reset()
				if _, err := core.DecodeBlockArena(s, b, a); err != nil {
					panic(err)
				}
			}
		}
		phisOp := func() {
			for _, b := range blocks {
				a.Reset()
				if _, err := core.DecodeBlockPhis(s, b, a); err != nil {
					panic(err)
				}
			}
		}
		n := float64(len(tuples))
		cr := DecodeShapeCodecResult{
			Codec:            c.String(),
			Blocks:           len(blocks),
			TuplesPerBlock:   n / float64(len(blocks)),
			TuplesNsPerTuple: bestNsPerOp(cfg.Rounds, iters, tuplesOp) / n,
			AllocsPerOp:      allocsPerOp(3, tuplesOp) / float64(len(blocks)),
		}
		pathNs := cr.TuplesNsPerTuple
		if flat {
			cr.PhisNsPerTuple = bestNsPerOp(cfg.Rounds, iters, phisOp) / n
			cr.AllocsPerOp = max(cr.AllocsPerOp, allocsPerOp(3, phisOp)/float64(len(blocks)))
			pathNs = cr.PhisNsPerTuple
		}
		cr.CodedMBPerS = float64(bytes) / (pathNs * n) * 1e3
		res.Codecs = append(res.Codecs, cr)
	}
	// The roofline: copy the AVQ blocks' coded bytes once per op.
	src, dst := make([]byte, coded), make([]byte, coded)
	copyNs := bestNsPerOp(cfg.Rounds, 20*iters, func() { copy(dst, src) })
	res.MemmoveMBPerS = float64(coded) / copyNs * 1e3
	return res, nil
}

// RunDecode measures the zero-allocation decode kernels: per-codec
// full-block tuple and φ-slab decode, the flat-ordinal PhiSpan walk, both
// walks over ledger-shaped page-sized blocks, and the BulkLoad/CountRange
// macro workload shared with RunObs.
func RunDecode(ctx context.Context, cfg DecodeConfig) (*DecodeResult, error) {
	cfg.fillDefaults()
	res := &DecodeResult{
		Tuples:        cfg.Tuples,
		PageSize:      cfg.PageSize,
		BlockTuples:   cfg.BlockTuples,
		Rounds:        cfg.Rounds,
		CountIters:    cfg.CountIters,
		ZeroAllocPass: true,
	}

	s, block := decodeMicroBlock(cfg)

	codecs := core.Codecs()
	for _, c := range codecs {
		enc, err := core.EncodeBlock(c, s, block, nil)
		if err != nil {
			return nil, fmt.Errorf("%v: encode: %w", c, err)
		}
		a := core.NewArena()
		arenaOp := func() {
			a.Reset()
			if _, err := core.DecodeBlockArena(s, enc, a); err != nil {
				panic(err)
			}
		}
		phisOp := func() {
			a.Reset()
			if _, err := core.DecodeBlockPhis(s, enc, a); err != nil {
				panic(err)
			}
		}
		cr := DecodeCodecResult{
			Codec:            c.String(),
			ArenaNsPerOp:     bestNsPerOp(cfg.Rounds, cfg.Iters, arenaOp),
			ArenaAllocsPerOp: allocsPerOp(100, arenaOp),
			PhisNsPerOp:      bestNsPerOp(cfg.Rounds, cfg.Iters, phisOp),
			PhisAllocsPerOp:  allocsPerOp(100, phisOp),
		}
		if cr.ArenaAllocsPerOp != 0 || cr.PhisAllocsPerOp != 0 {
			res.ZeroAllocPass = false
		}
		res.Codecs = append(res.Codecs, cr)
	}
	for _, name := range []string{"flat8", "wide38"} {
		sr, err := runDecodeShape(cfg, name, codecs)
		if err != nil {
			return nil, err
		}
		for _, cr := range sr.Codecs {
			if cr.AllocsPerOp != 0 {
				res.ZeroAllocPass = false
			}
		}
		res.Shapes = append(res.Shapes, sr)
	}

	// Flat-ordinal span walk on the clustering-range shape exec's partial
	// path uses.
	w, ok := s.FlatWeights()
	if !ok {
		return nil, fmt.Errorf("micro schema unexpectedly non-flat")
	}
	enc, err := core.EncodeBlock(core.CodecAVQ, s, block, nil)
	if err != nil {
		return nil, err
	}
	lo, hi := uint64(2), uint64(5)
	a := core.NewArena()
	spanOp := func() {
		a.Reset()
		if _, _, err := core.PhiSpan(s, enc, lo*w[0], hi*w[0]+(w[0]-1), a); err != nil {
			panic(err)
		}
	}
	res.PhiSpanNsPerOp = bestNsPerOp(cfg.Rounds, cfg.Iters, spanOp)
	res.PhiSpanAllocsPerOp = allocsPerOp(100, spanOp)
	if res.PhiSpanAllocsPerOp != 0 {
		res.ZeroAllocPass = false
	}

	// Macro workload: RunObs's uninstrumented BulkLoad + CountRange, so
	// the benchgate can hold this result against BENCH_obs.json.
	spec := gen.Fig57Spec(cfg.Tuples, true, gen.VarianceLarge, cfg.Seed)
	schema, tuples, err := spec.Build()
	if err != nil {
		return nil, err
	}
	schema.SortTuples(tuples)
	var load, count time.Duration
	for r := 0; r < cfg.Rounds; r++ {
		tb, err := table.Create(schema,
			table.WithCodec(core.CodecAVQ),
			table.WithPageSize(cfg.PageSize),
			table.WithPoolFrames(256),
		)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := tb.BulkLoadContext(ctx, tuples); err != nil {
			return nil, err
		}
		l := time.Since(start)
		dom := schema.Domain(0).Size
		start = time.Now()
		for i := 0; i < cfg.CountIters; i++ {
			if _, _, err := tb.CountRangeContext(ctx, 0, dom/4, dom/2); err != nil {
				return nil, err
			}
		}
		c := time.Since(start)
		if r == 0 || l < load {
			load = l
		}
		if r == 0 || c < count {
			count = c
		}
	}
	res.LoadMillis = float64(load.Microseconds()) / 1e3
	res.CountMillis = float64(count.Microseconds()) / 1e3

	res.Pass = res.ZeroAllocPass
	return res, nil
}

// WriteText renders the result as an aligned report.
func (r *DecodeResult) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "Decode kernels: %d-tuple blocks, best of %d rounds\n", r.BlockTuples, r.Rounds)
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n", "codec", "tuple ns/op", "allocs/op", "φ ns/op", "allocs/op")
	for _, c := range r.Codecs {
		fmt.Fprintf(w, "%-12s %12.0f %12.1f %12.0f %12.1f\n", c.Codec, c.ArenaNsPerOp, c.ArenaAllocsPerOp, c.PhisNsPerOp, c.PhisAllocsPerOp)
	}
	for _, sh := range r.Shapes {
		fmt.Fprintf(w, "%s-shaped %d-byte blocks (%d tuples, %d-byte rows), memmove roofline %.0f MB/s\n",
			sh.Shape, r.PageSize, sh.Tuples, sh.RowBytes, sh.MemmoveMBPerS)
		fmt.Fprintf(w, "%-12s %8s %10s %12s %12s %10s %10s\n", "codec", "blocks", "tuples/blk", "φ ns/tuple", "tuple ns/t", "coded MB/s", "allocs/blk")
		for _, c := range sh.Codecs {
			fmt.Fprintf(w, "%-12s %8d %10.0f %12.1f %12.1f %10.0f %10.1f\n", c.Codec, c.Blocks, c.TuplesPerBlock,
				c.PhisNsPerTuple, c.TuplesNsPerTuple, c.CodedMBPerS, c.AllocsPerOp)
		}
	}
	fmt.Fprintf(w, "flat-ordinal span: PhiSpan %.0f ns/op (%.1f allocs/op)\n",
		r.PhiSpanNsPerOp, r.PhiSpanAllocsPerOp)
	fmt.Fprintf(w, "macro (%d tuples, %d-byte pages): bulk load %.2f ms, count-range x%d %.2f ms\n",
		r.Tuples, r.PageSize, r.LoadMillis, r.CountIters, r.CountMillis)
	verdict := "PASS"
	if !r.ZeroAllocPass {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "gate: steady-state tuple and φ-slab decode and PhiSpan allocate 0 objects/op: %s\n", verdict)
	return nil
}

// WriteJSON renders the result as indented JSON.
func (r *DecodeResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
