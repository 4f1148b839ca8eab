// Bigdata: bulk loading a large relation. The example generates 500k
// random tuples, performs the paper's tuple re-ordering (Section 3.2) with
// Schema.SortTuples, and hands the sorted relation to BulkLoadContext, whose
// codec pipeline packs AVQ blocks on GOMAXPROCS workers with a layout that
// does not depend on the worker count.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/table"
)

func main() {
	ctx := context.Background()
	schema := relation.MustSchema(
		relation.Domain{Name: "region", Size: 64},
		relation.Domain{Name: "store", Size: 4096},
		relation.Domain{Name: "product", Size: 65536},
		relation.Domain{Name: "qty", Size: 1000},
	)
	const n = 500_000
	start := time.Now()
	rng := rand.New(rand.NewSource(9))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
			uint64(rng.Intn(65536)), uint64(rng.Intn(1000)),
		}
	}
	schema.SortTuples(tuples)
	fmt.Printf("generated and sorted %d tuples (%v)\n", n, time.Since(start).Round(time.Millisecond))

	tbl, err := table.Create(schema, table.WithCodec(core.CodecAVQ))
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	if err := tbl.BulkLoadContext(ctx, tuples); err != nil {
		log.Fatal(err)
	}
	st, err := tbl.StoreStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded into %d AVQ blocks in %v: %d coded bytes for %d raw bytes (%.1f%% reduction)\n",
		tbl.NumBlocks(), time.Since(start).Round(time.Millisecond),
		st.StreamBytes, st.RawDataBytes, st.StreamSavingsPercent())

	// The loaded table behaves like any other.
	count, qs, err := tbl.CountRangeContext(ctx, 0, 10, 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sigma_{10<=region<=12}: %d rows via %s path, %d of %d blocks read\n",
		count, qs.Strategy, qs.BlocksRead, tbl.NumBlocks())
	if err := tbl.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("all invariants hold")
}
