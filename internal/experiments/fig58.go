package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/table"
)

// Fig58Config parameterizes the blocks-accessed experiment.
type Fig58Config struct {
	// Tuples is the relation size. The default 40000 reproduces the
	// paper's apparent scale: 40k 38-byte tuples occupy about 189 uncoded
	// 8 KiB blocks, the figure's "No coding" block count.
	Tuples int
	// PageSize is the block size; default 8192.
	PageSize int
	// Seed makes the relation deterministic.
	Seed int64
}

func (c *Fig58Config) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 40000
	}
	if c.PageSize == 0 {
		c.PageSize = storage.DefaultPageSize
	}
}

// Fig58Row is one attribute's measurement.
type Fig58Row struct {
	Attr     int // 1-based attribute number, as the paper labels them
	RawN     int // blocks accessed, uncoded
	AVQN     int // blocks accessed, AVQ
	Matches  int
	Strategy exec.Strategy
}

// Fig58Result is the regenerated Figure 5.8.
type Fig58Result struct {
	Rows      []Fig58Row
	RawBlocks int // total data blocks, uncoded (the ceiling for N)
	AVQBlocks int // total data blocks, AVQ
	RawAvgN   float64
	AVQAvgN   float64
}

// loadFig58Table loads the generated relation into a table with the given
// codec, with secondary indexes on every attribute so each query has its
// Figure 4.5 access path.
func loadFig58Table(ctx context.Context, cfg Fig58Config, codec core.Codec, schema *relation.Schema, tuples []relation.Tuple) (*table.Table, error) {
	tb, err := table.Create(schema,
		table.WithCodec(codec),
		table.WithPageSize(cfg.PageSize),
		table.WithSecondaryAttrs(table.AllAttrs(schema)...),
	)
	if err != nil {
		return nil, err
	}
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		return nil, err
	}
	return tb, nil
}

// fig58Range returns the selection bounds for attribute attr. The paper
// sets a = 0.5|A_k| over the values the attribute actually takes; b is not
// printed, and this reproduction uses b = 0.6|A_k| (a 10% band). For the
// unique key attribute the query is the point selection the paper
// describes ("only one block is accessed when A_k is the primary key").
func fig58Range(spec gen.Spec, schema *relation.Schema, attr int) (lo, hi uint64) {
	size := spec.EffectiveRange(attr, schema)
	lo = size / 2
	if attr == schema.NumAttrs()-1 {
		return lo, lo // point query on the primary key
	}
	hi = size * 6 / 10
	if hi <= lo {
		hi = lo
	}
	return lo, hi
}

// RunFig58 regenerates Figure 5.8: for every attribute k it executes
// sigma_{a<=A_k<=b}(R) cold against both representations and reports N,
// the number of data blocks accessed.
func RunFig58(ctx context.Context, cfg Fig58Config) (*Fig58Result, error) {
	cfg.fillDefaults()
	spec := gen.Spec38Byte(cfg.Tuples, true, cfg.Seed)
	schema, tuples, err := spec.Build()
	if err != nil {
		return nil, err
	}
	raw, err := loadFig58Table(ctx, cfg, core.CodecRaw, schema, tuples)
	if err != nil {
		return nil, err
	}
	avq, err := loadFig58Table(ctx, cfg, core.CodecAVQ, schema, tuples)
	if err != nil {
		return nil, err
	}
	res := &Fig58Result{RawBlocks: raw.NumBlocks(), AVQBlocks: avq.NumBlocks()}
	n := raw.Schema().NumAttrs()
	var rawSum, avqSum int
	for attr := 0; attr < n; attr++ {
		lo, hi := fig58Range(spec, schema, attr)
		if err := raw.DropCache(); err != nil {
			return nil, err
		}
		_, rawStats, err := raw.SelectRangeContext(ctx, attr, lo, hi)
		if err != nil {
			return nil, err
		}
		if err := avq.DropCache(); err != nil {
			return nil, err
		}
		_, avqStats, err := avq.SelectRangeContext(ctx, attr, lo, hi)
		if err != nil {
			return nil, err
		}
		if rawStats.Matches != avqStats.Matches {
			return nil, fmt.Errorf("experiments: representations disagree on attr %d: %d vs %d matches",
				attr+1, rawStats.Matches, avqStats.Matches)
		}
		res.Rows = append(res.Rows, Fig58Row{
			Attr:     attr + 1,
			RawN:     rawStats.BlocksRead,
			AVQN:     avqStats.BlocksRead,
			Matches:  rawStats.Matches,
			Strategy: avqStats.Strategy,
		})
		rawSum += rawStats.BlocksRead
		avqSum += avqStats.BlocksRead
	}
	res.RawAvgN = float64(rawSum) / float64(n)
	res.AVQAvgN = float64(avqSum) / float64(n)
	return res, nil
}

// WriteText renders the result in the shape of Figure 5.8.
func (r *Fig58Result) WriteText(w io.Writer) error {
	fmt.Fprintln(w, "Figure 5.8 — N, number of blocks accessed per attribute")
	fmt.Fprintf(w, "data blocks: uncoded=%d  avq=%d\n", r.RawBlocks, r.AVQBlocks)
	fmt.Fprintln(w, "query: sigma_{0.5|Ak| <= Ak <= 0.6|Ak|}; point query on the primary-key attribute")
	fmt.Fprintln(w)
	tbl := &textTable{header: []string{"attribute", "no coding", "avq", "strategy", "matches"}}
	for _, row := range r.Rows {
		tbl.addRow(
			fmt.Sprintf("%d", row.Attr),
			fmt.Sprintf("%d", row.RawN),
			fmt.Sprintf("%d", row.AVQN),
			row.Strategy.String(),
			fmt.Sprintf("%d", row.Matches),
		)
	}
	if err := tbl.write(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\naverage N: uncoded=%.1f  avq=%.1f  reduction=%s (paper: 153.6, 55.0, 64.2%%)\n",
		r.RawAvgN, r.AVQAvgN, pct(1-r.AVQAvgN/r.RawAvgN))
	return nil
}
