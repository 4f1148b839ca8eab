package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/storage"
)

// AblationConfig parameterizes the design-choice ablation.
type AblationConfig struct {
	// Tuples is the relation size per configuration.
	Tuples int
	// PageSize is the block size; default 8192.
	PageSize int
	// Seed makes the sweep deterministic.
	Seed int64
}

func (c *AblationConfig) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 25000
	}
	if c.PageSize == 0 {
		c.PageSize = storage.DefaultPageSize
	}
}

// AblationCell is the block count of one layout on one test configuration.
type AblationCell struct {
	Test int
	// Layout is a core.Codec name or one of the two sized-only ablation
	// arms, "rep-only" and "delta-chain".
	Layout string
	Blocks int
	// ReductionPct is relative to CodecRaw on the same data.
	ReductionPct float64
}

// AblationResult compares the paper's two design choices against their
// ablations across the Figure 5.7 test configurations:
//
//   - chained differencing (Example 3.3) vs direct differences from the
//     representative (CodecAVQ vs rep-only);
//   - median representative vs first-tuple anchor (CodecAVQ vs
//     delta-chain) — identical differences by construction, so the
//     interesting comparison there is decode reach, covered by
//     BenchmarkPointAccess;
//   - byte-granular vs bit-packed difference storage (CodecAVQ vs
//     CodecPacked), the natural further-compression extension.
//
// The stored codecs are bulk-loaded; the two arms are never stored, only
// sized (ablationArms).
type AblationResult struct {
	Tuples int
	Cells  []AblationCell
}

// ablationArms are the two layouts the ablation sizes but no store holds,
// each an exact coded size on the AVQ Sizer, whose pair cost is the
// byte-RLE size of any nonnegative difference:
//
//   - rep-only (Figure 3.3 (b)): every tuple stores its distance from the
//     median representative, unchained;
//   - delta-chain: AVQ's chain anchored at the first tuple, which needs no
//     representative index — AVQ's size less that varint.
var ablationArms = []struct {
	name string
	size func(z *core.Sizer, run []relation.Tuple) (int, error)
}{
	{"rep-only", func(z *core.Sizer, run []relation.Tuple) (int, error) {
		mid, acc := len(run)/2, 0
		for i, tu := range run {
			lo, hi := tu, run[mid]
			if i > mid {
				lo, hi = hi, lo
			}
			if i != mid {
				cost, err := z.PairCost(lo, hi)
				if err != nil {
					return 0, err
				}
				acc += cost
			}
		}
		return z.BlockSize(len(run), acc), nil
	}},
	{"delta-chain", func(z *core.Sizer, run []relation.Tuple) (int, error) {
		acc := 0
		for i := 1; i < len(run); i++ {
			cost, err := z.PairCost(run[i-1], run[i])
			if err != nil {
				return 0, err
			}
			acc += cost
		}
		return z.BlockSize(len(run), acc) - len(binary.AppendUvarint(nil, uint64(len(run)/2))), nil
	}},
}

// armBlocks packs tuples greedily under an arm's size, returning the block
// count. Rep-only's size is not additive over pairs — its median moves as
// a run grows — so each block's length is found by galloping to bracket
// the largest run that fits and bisecting the bracket.
func armBlocks(schema *relation.Schema, tuples []relation.Tuple, capacity int, size func(*core.Sizer, []relation.Tuple) (int, error)) (int, error) {
	z := core.NewSizer(core.CodecAVQ, schema)
	var err error
	fits := func(run []relation.Tuple) bool {
		n, e := size(z, run)
		if e != nil {
			err = e
		}
		return e == nil && n <= capacity
	}
	blocks := 0
	for rest := tuples; len(rest) > 0; blocks++ {
		lo, hi := 0, 1 // rest[:lo] fits; rest[:hi] is the next probe
		for hi <= len(rest) && fits(rest[:hi]) {
			lo, hi = hi, 2*hi
		}
		if hi > len(rest) {
			if hi = len(rest); lo < hi && fits(rest) {
				lo = hi
			}
		}
		for lo+1 < hi {
			if mid := (lo + hi) / 2; fits(rest[:mid]) {
				lo = mid
			} else {
				hi = mid
			}
		}
		if err != nil {
			return 0, err
		}
		if lo == 0 {
			return 0, core.ErrTupleTooLarge
		}
		rest = rest[lo:]
	}
	return blocks, nil
}

// RunAblation measures block counts for every codec, and for the two
// sized-only arms, on each Figure 5.7 test configuration.
func RunAblation(ctx context.Context, cfg AblationConfig) (*AblationResult, error) {
	cfg.fillDefaults()
	res := &AblationResult{Tuples: cfg.Tuples}
	capacity := blockstore.StreamCapacity(cfg.PageSize)
	for _, test := range Fig57Tests() {
		spec := gen.Fig57Spec(cfg.Tuples, test.Skew, test.Variance, cfg.Seed+int64(test.Number))
		schema, tuples, err := spec.Build()
		if err != nil {
			return nil, err
		}
		schema.SortTuples(tuples)
		blocks := map[string]int{}
		for _, codec := range core.Codecs() {
			if blocks[codec.String()], err = blockCount(ctx, schema, tuples, codec, cfg.PageSize); err != nil {
				return nil, err
			}
		}
		for _, arm := range ablationArms {
			if blocks[arm.name], err = armBlocks(schema, tuples, capacity, arm.size); err != nil {
				return nil, err
			}
		}
		raw := float64(blocks["raw"])
		for _, layout := range []string{"raw", "avq", "rep-only", "delta-chain", "packed"} {
			res.Cells = append(res.Cells, AblationCell{
				Test:         test.Number,
				Layout:       layout,
				Blocks:       blocks[layout],
				ReductionPct: 100 * (1 - float64(blocks[layout])/raw),
			})
		}
	}
	return res, nil
}

// WriteText renders the ablation table.
func (r *AblationResult) WriteText(w io.Writer) error {
	fmt.Fprintln(w, "Ablation — block counts per codec across the Figure 5.7 tests")
	fmt.Fprintf(w, "relation size: %d tuples\n\n", r.Tuples)
	tbl := &textTable{header: []string{"test", "codec", "blocks", "reduction vs raw"}}
	for _, c := range r.Cells {
		tbl.addRow(
			fmt.Sprintf("%d", c.Test),
			c.Layout,
			fmt.Sprintf("%d", c.Blocks),
			fmt.Sprintf("%.1f%%", c.ReductionPct),
		)
	}
	return tbl.write(w)
}
