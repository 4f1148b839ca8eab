// Rangequery: a miniature of the paper's Figure 5.8 — how many blocks the
// selection sigma_{a<=Ak<=b}(R) touches under each access path, uncoded vs
// AVQ, and what that costs on the simulated 1995 disk.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/simdisk"
	"repro/internal/storage"
	"repro/internal/table"
)

func main() {
	ctx := context.Background()
	spec := gen.Spec38Byte(20000, true, 42)
	schema, tuples, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("relation: %d tuples, %d attributes, %d-byte rows\n",
		len(tuples), schema.NumAttrs(), schema.RowSize())

	build := func(codec core.Codec) *table.Table {
		tbl, err := table.Create(schema,
			table.WithCodec(codec),
			table.WithSecondaryAttrs(table.AllAttrs(schema)...),
		)
		if err != nil {
			log.Fatal(err)
		}
		if err := tbl.BulkLoadContext(ctx, tuples); err != nil {
			log.Fatal(err)
		}
		return tbl
	}
	// coldSelect runs the selection on an empty pool and prices its pool
	// misses, one block read each, on the paper's 1995 disk.
	t1 := simdisk.PaperParams().BlockTime(storage.DefaultPageSize)
	coldSelect := func(tbl *table.Table, attr int, lo, hi uint64) (table.QueryStats, time.Duration) {
		if err := tbl.DropCache(); err != nil {
			log.Fatal(err)
		}
		before := tbl.PoolStats().Misses
		_, stats, err := tbl.SelectRangeContext(ctx, attr, lo, hi)
		if err != nil {
			log.Fatal(err)
		}
		return stats, time.Duration(tbl.PoolStats().Misses-before) * t1
	}
	raw := build(core.CodecRaw)
	avq := build(core.CodecAVQ)
	fmt.Printf("data blocks: uncoded=%d  avq=%d (%.1fx compression)\n\n",
		raw.NumBlocks(), avq.NumBlocks(),
		float64(raw.NumBlocks())/float64(avq.NumBlocks()))

	// Every query below streams through the snapshot executor, which
	// prunes blocks on their φ-fences and span-decodes blocks that only
	// straddle the range boundary; the counters make that visible.
	fmt.Printf("%-28s %-10s %12s %12s %14s\n", "query", "path", "uncoded N", "avq N", "avq pruned")
	for _, q := range []struct {
		name string
		attr int
	}{
		{"clustering prefix (a01)", 0},
		{"middle attribute (a08)", 7},
		{"primary key (point)", schema.NumAttrs() - 1},
	} {
		span := spec.EffectiveRange(q.attr, schema)
		lo := span / 2
		hi := span * 6 / 10
		if q.attr == schema.NumAttrs()-1 || hi <= lo {
			hi = lo
		}
		rawStats, rawTime := coldSelect(raw, q.attr, lo, hi)
		avqStats, avqTime := coldSelect(avq, q.attr, lo, hi)
		fmt.Printf("%-28s %-10s %12d %12d %9d/%-4d\n", q.name, avqStats.Strategy,
			rawStats.BlocksRead, avqStats.BlocksRead, avqStats.BlocksPruned, avq.NumBlocks())
		fmt.Printf("%-28s %-10s %11.2fs %11.2fs  (%d partial decodes, simulated disk)\n", "", "",
			rawTime.Seconds(), avqTime.Seconds(),
			avqStats.PartialDecodes)
	}
}
