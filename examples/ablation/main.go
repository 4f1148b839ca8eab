// Ablation: what each of AVQ's design choices buys. Compares the paper's
// codec (median representative + chained differences + leading-zero RLE)
// against the uncoded baseline and the bit-packed extension on the same
// phi-sorted relation.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
)

func main() {
	spec := gen.Fig57Spec(30000, false, gen.VarianceSmall, 77)
	schema, tuples, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}
	schema.SortTuples(tuples)
	fmt.Printf("relation: %d tuples, %d-byte rows, block capacity 8188 bytes\n\n",
		len(tuples), schema.RowSize())

	const capacity = 8192 - 4
	fmt.Printf("%-14s %8s %16s %14s\n", "codec", "blocks", "payload bytes", "bytes/tuple")
	for _, codec := range core.Codecs() {
		runs, sizes, err := core.Pack(codec, schema, tuples, capacity)
		if err != nil {
			log.Fatal(err)
		}
		payload := 0
		for _, size := range sizes {
			payload += size
		}
		fmt.Printf("%-14s %8d %16d %14.2f\n",
			codec, len(runs), payload, float64(payload)/float64(len(tuples)))
	}

	fmt.Println(`
reading the table:
  raw          fixed-width tuples, no coding — the "No coding" baseline
  avq          the paper's codec: median anchor + chained differences
  packed       extension: AVQ with bit-packed digits (ceil(log2|Ai|) bits
               per digit instead of whole bytes)

The two layouts AVQ's design choices rule out — differences from the
median without chaining (Figure 3.3 table (b)), and a chain anchored at
the first tuple — are sized, not stored: go run ./cmd/avqbench -exp ablation`)
}
