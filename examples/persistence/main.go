// Persistence: create a file-backed AVQ table, mutate it, close it, and
// reopen it — the compressed relation, its block layout, and its index
// configuration all come back from the catalog page chain.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/table"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "avq-persistence")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "employees.avqdb")

	// Build and populate a persistent table.
	const n = 20000
	records := gen.EmployeeRecords(n, 7)
	schema, deptDict, jobDict, err := gen.EmployeeSchema(n)
	if err != nil {
		log.Fatal(err)
	}
	tuples, err := gen.EncodeEmployees(records, deptDict, jobDict)
	if err != nil {
		log.Fatal(err)
	}
	tbl, err := table.Create(schema,
		table.WithCodec(core.CodecAVQ),
		table.WithPath(path),
		table.WithSecondaryAttrs(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := tbl.BulkLoadContext(ctx, tuples); err != nil {
		log.Fatal(err)
	}
	newHire := relation.Tuple{2, 5, 0, 40, uint64(n - 1)}
	if err := tbl.InsertContext(ctx, newHire); err != nil {
		log.Fatal(err)
	}
	blocks := tbl.NumBlocks()
	if err := tbl.Close(); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d tuples into %d blocks; file is %d KiB (raw rows would be %d KiB)\n",
		n+1, blocks, st.Size()/1024, (n+1)*schema.RowSize()/1024)

	// Reopen: schema, codec, layout, and secondary indexes come from the
	// catalog; indexes rebuild in one pass over the compressed blocks.
	reopened, err := table.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	fmt.Printf("reopened: %d tuples, %d blocks, codec=%s, schema=%s\n",
		reopened.Len(), reopened.NumBlocks(), reopened.Codec(), reopened.Schema())

	ok, err := reopened.Contains(newHire)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the row inserted before closing is still there: %v\n", ok)

	secCode, err := jobDict.Code("secretary")
	if err != nil {
		log.Fatal(err)
	}
	count, stats, err := reopened.CountRangeContext(ctx, 1, secCode, secCode)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("secretaries: %d (via %s path, %d blocks read)\n",
		count, stats.Strategy, stats.BlocksRead)

	if err := reopened.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("all invariants hold after reopen")
}
