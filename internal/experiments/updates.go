package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/table"
)

// UpdatesConfig parameterizes the Section 4.2 operation-cost experiment.
type UpdatesConfig struct {
	// Tuples is the base relation size.
	Tuples int
	// Operations is the number of inserts and deletes measured.
	Operations int
	// PageSize is the block size; default 8192.
	PageSize int
	// Seed makes the workload deterministic.
	Seed int64
}

func (c *UpdatesConfig) fillDefaults() {
	if c.Tuples == 0 {
		c.Tuples = 40000
	}
	if c.Operations == 0 {
		c.Operations = 2000
	}
	if c.PageSize == 0 {
		c.PageSize = storage.DefaultPageSize
	}
}

// UpdatesRow is one codec's measured mutation costs.
type UpdatesRow struct {
	Codec       core.Codec
	Blocks      int
	InsertPerOp time.Duration
	DeletePerOp time.Duration
	BatchPerOp  time.Duration // batched insertion, amortized
	BlocksAfter int

	// InsertPages and BatchPages are fresh pages written per inserted tuple
	// (the commit hook's CommitEvent.Pages, as store.pages_written), single
	// inserts vs one batch: the deterministic form of the batched path's
	// saving.
	InsertPages float64
	BatchPages  float64

	// InsertEncodes and BatchEncodes are blocks re-encoded whole per
	// inserted tuple (store.encodes). A write whose block still fits its
	// page is an edit of the coded block instead (store.edits), so only
	// splits re-encode.
	InsertEncodes float64
	BatchEncodes  float64
}

// UpdatesResult quantifies Section 4.2: tuple insertion and deletion are
// confined to one block, so their cost is one block decode, one edit of its
// coded stream (or a re-encode when it splits) and one fresh page, plus
// index maintenance — compared here between the compressed and
// uncompressed representations, with the batched path alongside.
type UpdatesResult struct {
	Tuples     int
	Operations int
	Rows       []UpdatesRow
}

// RunUpdates measures per-operation wall time for Insert, Delete, and
// InsertBatch on the Section 5.2 relation under each representation, and
// counts the pages single and batched inserts write and the blocks they
// re-encode.
func RunUpdates(ctx context.Context, cfg UpdatesConfig) (*UpdatesResult, error) {
	cfg.fillDefaults()
	spec := gen.Spec38Byte(cfg.Tuples, false, cfg.Seed)
	schema, base, err := spec.Build()
	if err != nil {
		return nil, err
	}
	// The mutation workload: fresh tuples to insert, existing ones to delete.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	inserts := make([]relation.Tuple, cfg.Operations)
	for i := range inserts {
		tu := base[rng.Intn(len(base))].Clone()
		tu[len(tu)-1] = uint64(rng.Int63n(int64(schema.Domain(schema.NumAttrs() - 1).Size)))
		inserts[i] = tu
	}
	res := &UpdatesResult{Tuples: cfg.Tuples, Operations: cfg.Operations}
	for _, codec := range []core.Codec{core.CodecRaw, core.CodecAVQ, core.CodecPacked} {
		reg := obs.NewRegistry()
		encodes, pages := reg.Counter("store.encodes"), reg.Counter("store.pages_written")
		tb, err := table.Create(schema, table.WithCodec(codec), table.WithPageSize(cfg.PageSize), table.WithObs(reg))
		if err != nil {
			return nil, err
		}
		if err := tb.BulkLoadContext(ctx, base); err != nil {
			return nil, err
		}
		row := UpdatesRow{Codec: codec, Blocks: tb.NumBlocks()}

		perTuple := func(c *obs.Counter, since int64) float64 {
			return float64(c.Value()-since) / float64(cfg.Operations)
		}

		start, encoded, written := time.Now(), encodes.Value(), pages.Value()
		for _, tu := range inserts {
			if err := tb.InsertContext(ctx, tu); err != nil {
				return nil, err
			}
		}
		row.InsertPerOp = time.Since(start) / time.Duration(cfg.Operations)
		row.InsertEncodes = perTuple(encodes, encoded)
		row.InsertPages = perTuple(pages, written)

		start = time.Now()
		for _, tu := range inserts {
			if _, err := tb.DeleteContext(ctx, tu); err != nil {
				return nil, err
			}
		}
		row.DeletePerOp = time.Since(start) / time.Duration(cfg.Operations)

		start, encoded, written = time.Now(), encodes.Value(), pages.Value()
		if err := tb.InsertBatchContext(ctx, inserts); err != nil {
			return nil, err
		}
		row.BatchPerOp = time.Since(start) / time.Duration(cfg.Operations)
		row.BatchEncodes = perTuple(encodes, encoded)
		row.BatchPages = perTuple(pages, written)
		row.BlocksAfter = tb.NumBlocks()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteText renders the operation-cost table.
func (r *UpdatesResult) WriteText(w io.Writer) error {
	fmt.Fprintln(w, "Section 4.2 — localized insert/delete cost per operation (this host)")
	fmt.Fprintf(w, "base relation: %d tuples; %d operations per cell\n\n", r.Tuples, r.Operations)
	tbl := &textTable{header: []string{
		"codec", "blocks", "insert/op", "delete/op", "batch insert/op",
		"pages/insert", "batch pages/insert", "encodes/insert", "batch encodes/insert", "blocks after",
	}}
	for _, row := range r.Rows {
		tbl.addRow(
			row.Codec.String(),
			fmt.Sprintf("%d", row.Blocks),
			fmt.Sprintf("%.1fµs", float64(row.InsertPerOp)/1e3),
			fmt.Sprintf("%.1fµs", float64(row.DeletePerOp)/1e3),
			fmt.Sprintf("%.1fµs", float64(row.BatchPerOp)/1e3),
			fmt.Sprintf("%.2f", row.InsertPages),
			fmt.Sprintf("%.2f", row.BatchPages),
			fmt.Sprintf("%.2f", row.InsertEncodes),
			fmt.Sprintf("%.2f", row.BatchEncodes),
			fmt.Sprintf("%d", row.BlocksAfter),
		)
	}
	return tbl.write(w)
}
