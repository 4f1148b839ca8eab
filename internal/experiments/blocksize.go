package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/gen"
)

// BlockSizeConfig parameterizes the block-size sweep.
type BlockSizeConfig struct {
	// Tuples is the relation size.
	Tuples int
	// Sizes are the block sizes to sweep; default 1 KiB..64 KiB.
	Sizes []int
	// Seed makes the relation deterministic.
	Seed int64
}

func (c *BlockSizeConfig) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 40000
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1024, 2048, 4096, 8192, 16384, 32768, 65536}
	}
}

// BlockSizeCell is one point of the sweep.
type BlockSizeCell struct {
	BlockSize    int
	RawBlocks    int
	AVQBlocks    int
	TuplesPerBlk float64
	// ReductionPct is the block-count reduction of AVQ over the packed raw
	// layout at this block size.
	ReductionPct float64
	// WastePct is the average unused space per AVQ block: the quantity
	// Section 3.4 says packing must minimize.
	WastePct float64
}

// BlockSizeResult is the block-size sensitivity study. The paper fixes
// 8192-byte blocks (Section 3.3: "the size of a memory page or disk
// sector"); this experiment shows how that choice trades coding scope
// (bigger blocks amortize the representative and lengthen chains) against
// decode granularity.
type BlockSizeResult struct {
	Tuples int
	Cells  []BlockSizeCell
}

// RunBlockSize sweeps the block size over the Section 5.2 relation.
func RunBlockSize(ctx context.Context, cfg BlockSizeConfig) (*BlockSizeResult, error) {
	cfg.fillDefaults()
	spec := gen.Spec38Byte(cfg.Tuples, false, cfg.Seed)
	schema, tuples, err := spec.Build()
	if err != nil {
		return nil, err
	}
	schema.SortTuples(tuples)
	res := &BlockSizeResult{Tuples: cfg.Tuples}
	for _, size := range cfg.Sizes {
		capacity := blockstore.StreamCapacity(size)
		raw, _, err := core.Pack(core.CodecRaw, schema, tuples, capacity)
		if err != nil {
			return nil, err
		}
		avq, sizes, err := core.Pack(core.CodecAVQ, schema, tuples, capacity)
		if err != nil {
			return nil, err
		}
		rawBlocks, avqBlocks := len(raw), len(avq)
		// Waste: coded payload vs page-granular footprint.
		payload := 0
		for _, sz := range sizes {
			payload += sz
		}
		res.Cells = append(res.Cells, BlockSizeCell{
			BlockSize:    size,
			RawBlocks:    rawBlocks,
			AVQBlocks:    avqBlocks,
			TuplesPerBlk: float64(cfg.Tuples) / float64(avqBlocks),
			ReductionPct: 100 * (1 - float64(avqBlocks)/float64(rawBlocks)),
			WastePct:     100 * (1 - float64(payload)/float64(avqBlocks*size)),
		})
	}
	return res, nil
}

// WriteText renders the sweep.
func (r *BlockSizeResult) WriteText(w io.Writer) error {
	fmt.Fprintln(w, "Block-size sensitivity — Section 3.3's 8 KiB choice in context")
	fmt.Fprintf(w, "relation: %d tuples (Section 5.2 characteristics)\n\n", r.Tuples)
	tbl := &textTable{header: []string{
		"block size", "raw blocks", "avq blocks", "tuples/blk", "reduction", "waste/blk",
	}}
	for _, c := range r.Cells {
		tbl.addRow(
			fmt.Sprintf("%d", c.BlockSize),
			fmt.Sprintf("%d", c.RawBlocks),
			fmt.Sprintf("%d", c.AVQBlocks),
			fmt.Sprintf("%.1f", c.TuplesPerBlk),
			fmt.Sprintf("%.1f%%", c.ReductionPct),
			fmt.Sprintf("%.2f%%", c.WastePct),
		)
	}
	return tbl.write(w)
}
