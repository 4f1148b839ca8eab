// Join: equi-joins executed directly over AVQ-compressed relations. Blocks
// decode independently (Section 3.3), so a merge join on the clustering
// attribute makes one ordered pass over each compressed relation, one
// decompressed block at a time.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/table"
)

func main() {
	ctx := context.Background()
	// Orders clustered by region; one row per order.
	orders := relation.MustSchema(
		relation.Domain{Name: "region", Size: 32},
		relation.Domain{Name: "product", Size: 256},
		relation.Domain{Name: "qty", Size: 100},
		relation.Domain{Name: "orderid", Size: 1 << 20},
	)
	// Warehouses clustered by region; a few per region.
	warehouses := relation.MustSchema(
		relation.Domain{Name: "region", Size: 32},
		relation.Domain{Name: "warehouse", Size: 512},
		relation.Domain{Name: "capacity", Size: 10000},
	)

	rng := rand.New(rand.NewSource(11))
	orderRows := make([]relation.Tuple, 30000)
	for i := range orderRows {
		orderRows[i] = relation.Tuple{
			uint64(rng.Intn(32)), uint64(rng.Intn(256)),
			uint64(rng.Intn(100)), uint64(i),
		}
	}
	whRows := make([]relation.Tuple, 96)
	for i := range whRows {
		whRows[i] = relation.Tuple{
			uint64(i % 32), uint64(rng.Intn(512)), uint64(rng.Intn(10000)),
		}
	}

	load := func(s *relation.Schema, rows []relation.Tuple) *table.Table {
		tb, err := table.Create(s, table.WithCodec(core.CodecAVQ))
		if err != nil {
			log.Fatal(err)
		}
		if err := tb.BulkLoadContext(ctx, rows); err != nil {
			log.Fatal(err)
		}
		return tb
	}
	ot := load(orders, orderRows)
	wt := load(warehouses, whRows)
	fmt.Printf("orders: %d tuples in %d AVQ blocks; warehouses: %d tuples in %d blocks\n",
		ot.Len(), ot.NumBlocks(), wt.Len(), wt.NumBlocks())

	// Merge join on the shared clustering attribute: one pass per side.
	rows, stats, err := table.MergeJoinContext(ctx, ot, wt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merge join on region: %d result rows, %d+%d blocks read (one pass each)\n",
		len(rows), stats.Left.BlocksRead, stats.Right.BlocksRead)

	// The join result of compressed tables equals the uncompressed join.
	otRaw := func() *table.Table {
		tb, err := table.Create(orders, table.WithCodec(core.CodecRaw))
		if err != nil {
			log.Fatal(err)
		}
		if err := tb.BulkLoadContext(ctx, orderRows); err != nil {
			log.Fatal(err)
		}
		return tb
	}()
	rawRows, _, err := table.MergeJoinContext(ctx, otRaw, wt)
	if err != nil {
		log.Fatal(err)
	}
	mjRows, _, err := table.MergeJoinContext(ctx, ot, wt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed vs uncompressed merge join agree: %v (%d rows)\n",
		len(rawRows) == len(mjRows), len(mjRows))
}
