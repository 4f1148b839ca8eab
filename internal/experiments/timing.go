package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/storage"
)

// TimingConfig parameterizes the Section 5.2 coding/decoding measurement.
type TimingConfig struct {
	// Tuples is the relation size; the paper uses 10^5.
	Tuples int
	// PageSize is the block size; the paper uses 8192.
	PageSize int
	// Repetitions is how many times each block is coded and decoded; the
	// paper performs each operation 100 times.
	Repetitions int
	// Seed makes the relation deterministic.
	Seed int64
}

func (c *TimingConfig) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 100000
	}
	if c.PageSize == 0 {
		c.PageSize = storage.DefaultPageSize
	}
	if c.Repetitions == 0 {
		c.Repetitions = 100
	}
}

// TimingResult holds the measured per-block times on this host for the
// Section 5.2 relation: 16 attributes, 38-byte tuples.
type TimingResult struct {
	Tuples       int
	Blocks       int
	TuplesPerBlk float64
	// Code, Decode (t2) and Extract (t3) are averages per block.
	Code    time.Duration
	Decode  time.Duration
	Extract time.Duration
	// Host is the measured profile as a Machine.
	Host Machine
}

// RunTiming performs the Section 5.2 measurement on this host: it loads
// the 38-byte-tuple relation into memory (offsetting any I/O time, as the
// paper does), then times AVQ coding and decoding of every block,
// averaged over the configured repetitions. Extraction time t3 is measured
// the same way over the uncoded representation.
func RunTiming(ctx context.Context, cfg TimingConfig) (*TimingResult, error) {
	cfg.fillDefaults()
	schema, tuples, err := gen.Spec38Byte(cfg.Tuples, false, cfg.Seed).Build()
	if err != nil {
		return nil, err
	}
	schema.SortTuples(tuples)
	capacity := blockstore.StreamCapacity(cfg.PageSize)

	runs, _, err := core.Pack(core.CodecAVQ, schema, tuples, capacity)
	if err != nil {
		return nil, err
	}

	// Encode timing.
	buf := make([]byte, 0, cfg.PageSize)
	start := time.Now()
	for rep := 0; rep < cfg.Repetitions; rep++ {
		for _, run := range runs {
			buf = buf[:0]
			if buf, err = core.EncodeBlock(core.CodecAVQ, schema, run, buf); err != nil {
				return nil, err
			}
		}
	}
	codeTotal := time.Since(start)

	// Materialize streams once for decode timing.
	streams := make([][]byte, len(runs))
	for i, run := range runs {
		streams[i], err = core.EncodeBlock(core.CodecAVQ, schema, run, nil)
		if err != nil {
			return nil, err
		}
	}
	arena := core.NewArena()
	start = time.Now()
	for rep := 0; rep < cfg.Repetitions; rep++ {
		for _, stream := range streams {
			arena.Reset()
			if _, err := core.DecodeBlockArena(schema, stream, arena); err != nil {
				return nil, err
			}
		}
	}
	decodeTotal := time.Since(start)

	// Extraction (t3): decode the uncoded representation's blocks.
	rawRuns, _, err := core.Pack(core.CodecRaw, schema, tuples, capacity)
	if err != nil {
		return nil, err
	}
	rawStreams := make([][]byte, len(rawRuns))
	for i, run := range rawRuns {
		rawStreams[i], err = core.EncodeBlock(core.CodecRaw, schema, run, nil)
		if err != nil {
			return nil, err
		}
	}
	start = time.Now()
	for rep := 0; rep < cfg.Repetitions; rep++ {
		for _, stream := range rawStreams {
			arena.Reset()
			if _, err := core.DecodeBlockArena(schema, stream, arena); err != nil {
				return nil, err
			}
		}
	}
	extractTotal := time.Since(start)

	nOps := cfg.Repetitions * len(runs)
	nRawOps := cfg.Repetitions * len(rawRuns)
	res := &TimingResult{
		Tuples:       cfg.Tuples,
		Blocks:       len(runs),
		TuplesPerBlk: float64(cfg.Tuples) / float64(len(runs)),
		Code:         codeTotal / time.Duration(nOps),
		Decode:       decodeTotal / time.Duration(nOps),
		Extract:      extractTotal / time.Duration(nRawOps),
	}
	res.Host = hostMachine(res.Code, res.Decode, res.Extract)
	return res, nil
}

// WriteText renders the measurement next to the paper's three machines.
func (r *TimingResult) WriteText(w io.Writer) error {
	fmt.Fprintln(w, "Section 5.2 — Coding/decoding time per block (38-byte tuples, 8 KiB blocks)")
	fmt.Fprintf(w, "relation: %d tuples in %d AVQ blocks (%.1f tuples/block)\n\n",
		r.Tuples, r.Blocks, r.TuplesPerBlk)
	tbl := &textTable{header: []string{"machine", "code/block", "decode/block (t2)", "extract/block (t3)"}}
	for _, m := range append(PaperMachines(), r.Host) {
		tbl.addRow(m.Name,
			fmt.Sprintf("%.3fms", float64(m.BlockCode)/1e6),
			fmt.Sprintf("%.3fms", float64(m.BlockDecode)/1e6),
			fmt.Sprintf("%.3fms", float64(m.Extract)/1e6),
		)
	}
	return tbl.write(w)
}
