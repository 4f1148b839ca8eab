// Command avqtool compresses, decompresses, inspects, and verifies
// relation files.
//
// Usage:
//
//	avqtool compress   -in data.rel -out data.avq [-codec raw|avq|packed] [-blocksize N]
//	avqtool decompress -in data.avq -out data.rel
//	avqtool inspect    -in file
//	avqtool verify     -in data.avq
//	avqtool stats      -in data.rel [-blocksize N]
//	avqtool convert    -in data.csv -out data.rel   (and .rel -> .csv)
//	avqtool metrics    -in data.rel [-blocksize N] [-json]
//
// compress performs the full AVQ pipeline of Section 3: tuple re-ordering,
// block partitioning, and block coding. verify walks every block checksum
// and decodes the file end to end. stats prints what each codec would do
// to the relation without writing anything. metrics loads the relation
// into an instrumented in-memory table, replays a query workload, and
// dumps the observability registry as text or JSON.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/relfile"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/table"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		in        = fs.String("in", "", "input file (required)")
		out       = fs.String("out", "", "output file")
		codecName = fs.String("codec", "avq", fmt.Sprintf("block codec, one of %v", core.Codecs()))
		blockSize = fs.Int("blocksize", storage.DefaultPageSize, "block size in bytes")
		jsonOut   = fs.Bool("json", false, "metrics: emit the registry snapshot as JSON instead of text")
	)
	fs.Parse(os.Args[2:])
	if *in == "" {
		fmt.Fprintln(os.Stderr, "avqtool: -in is required")
		os.Exit(2)
	}
	if err := run(cmd, *in, *out, *codecName, *blockSize, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "avqtool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: avqtool compress|decompress|inspect|verify|stats|convert|metrics -in FILE [flags]")
}

func run(cmd, in, out, codecName string, blockSize int, jsonOut bool) error {
	switch cmd {
	case "compress":
		return compress(in, out, codecName, blockSize)
	case "decompress":
		return decompress(in, out)
	case "inspect":
		return inspect(in)
	case "verify":
		return verify(in)
	case "stats":
		return stats(in, blockSize)
	case "convert":
		return convert(in, out)
	case "metrics":
		return metrics(in, codecName, blockSize, jsonOut)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func compress(in, out, codecName string, blockSize int) error {
	if out == "" {
		return fmt.Errorf("compress needs -out")
	}
	codec, err := core.ParseCodec(codecName)
	if err != nil {
		return err
	}
	fin, err := os.Open(in)
	if err != nil {
		return err
	}
	defer fin.Close()
	schema, tuples, err := relfile.ReadPlain(fin)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	info, err := relfile.WriteCompressed(&buf, schema, tuples, codec, blockSize)
	if err != nil {
		return err
	}
	// Atomic temp+rename with parent-dir fsync: a crash mid-write leaves
	// either the old file or the complete new one, never a torn output.
	if err := storage.WriteFileAtomic(storage.OSFS{}, out, buf.Bytes()); err != nil {
		return err
	}
	rawBytes := len(tuples) * schema.RowSize()
	fmt.Printf("%s: %d tuples -> %d blocks of %d bytes (%s codec)\n",
		out, info.Tuples, info.Blocks, info.BlockSize, info.Codec)
	fmt.Printf("coded payload %d bytes vs packed rows %d bytes: %.1f%% reduction\n",
		info.StreamBytes, rawBytes, 100*(1-float64(info.StreamBytes)/float64(rawBytes)))
	return nil
}

func decompress(in, out string) error {
	if out == "" {
		return fmt.Errorf("decompress needs -out")
	}
	fin, err := os.Open(in)
	if err != nil {
		return err
	}
	defer fin.Close()
	schema, tuples, err := relfile.ReadCompressed(fin)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := relfile.WritePlain(&buf, schema, tuples); err != nil {
		return err
	}
	if err := storage.WriteFileAtomic(storage.OSFS{}, out, buf.Bytes()); err != nil {
		return err
	}
	fmt.Printf("%s: %d tuples restored in phi order\n", out, len(tuples))
	return nil
}

func inspect(in string) error {
	// A directory is a sharded database: describe its catalog instead of
	// a single relation file.
	if st, err := os.Stat(in); err == nil && st.IsDir() {
		return inspectShardDir(in)
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	// Try compressed first, then plain.
	if info, err := relfile.InspectCompressed(f); err == nil {
		printSchema(info.Schema)
		fmt.Printf("format: compressed v%d (%s codec), %d blocks of %d bytes, %d tuples\n",
			info.Version, info.Codec, info.Blocks, info.BlockSize, info.Tuples)
		fmt.Printf("coded payload: %d bytes; block-granular footprint: %d bytes\n",
			info.StreamBytes, info.BlockBytes)
		printBlockLayout(info)
		return nil
	}
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	schema, tuples, err := relfile.ReadPlain(f)
	if err != nil {
		return err
	}
	printSchema(schema)
	fmt.Printf("format: plain, %d tuples, %d bytes per row\n", len(tuples), schema.RowSize())
	return nil
}

// inspectShardDir prints the shard catalog view for a sharded database
// directory: backend kind, catalog epoch, and each shard's φ-range with
// the tuple and block counts recorded at the last checkpoint.
func inspectShardDir(dir string) error {
	cat, err := shard.ReadCatalogDir(nil, dir)
	if err != nil {
		return fmt.Errorf("%s: not a relation file or sharded database: %w", dir, err)
	}
	fmt.Printf("format: sharded database (kind=%s), catalog epoch %d\n", cat.Kind, cat.Epoch)
	fmt.Printf("phi domain: %d values over %d shard(s)\n", cat.Domain, cat.NumShards())
	var tuples, blocks uint64
	fmt.Printf("%-12s %14s %10s %10s\n", "shard", "phi-range", "tuples", "blocks")
	for i := 0; i < cat.NumShards(); i++ {
		lo, hi := cat.RangeOf(i)
		info := cat.Shards[i]
		fmt.Printf("shard-%04d   [%5d,%5d] %10d %10d\n", i, lo, hi, info.Tuples, info.Blocks)
		tuples += info.Tuples
		blocks += info.Blocks
	}
	fmt.Printf("at last checkpoint: %d tuples in %d blocks\n", tuples, blocks)
	return nil
}

// printBlockLayout lists each block's φ-fence (version-2 files) and the
// ordinal of its representative/anchor tuple, eliding the middle of large
// layouts.
func printBlockLayout(info relfile.CompressedInfo) {
	if len(info.Anchors) == 0 {
		return
	}
	const headTail = 4
	for b := 0; b < info.Blocks; b++ {
		if info.Blocks > 2*headTail && b == headTail {
			fmt.Printf("  ... %d more blocks ...\n", info.Blocks-2*headTail)
			b = info.Blocks - headTail - 1
			continue
		}
		if len(info.Fences) > b {
			f := info.Fences[b]
			fmt.Printf("  block %-4d %4d tuples  fence %v .. %v  anchor @%d\n",
				b, f.Count, []uint64(f.First), []uint64(f.Last), info.Anchors[b])
		} else {
			fmt.Printf("  block %-4d anchor @%d (no fence: v1 file)\n", b, info.Anchors[b])
		}
	}
}

func printSchema(s *relation.Schema) {
	fmt.Printf("schema: %d attributes, %d-byte rows\n", s.NumAttrs(), s.RowSize())
	for i := 0; i < s.NumAttrs(); i++ {
		d := s.Domain(i)
		fmt.Printf("  %-12s |A|=%-8d width=%dB kind=%s\n", d.Name, d.Size, s.AttrWidth(i), d.Kind)
	}
}

func verify(in string) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := relfile.InspectCompressed(f)
	if err != nil {
		return fmt.Errorf("checksum walk failed: %w", err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	schema, tuples, err := relfile.ReadCompressed(f)
	if err != nil {
		return fmt.Errorf("full decode failed: %w", err)
	}
	if len(tuples) != info.Tuples {
		return fmt.Errorf("decode produced %d tuples, headers claim %d", len(tuples), info.Tuples)
	}
	if !schema.TuplesSorted(tuples) {
		return fmt.Errorf("decoded tuples not in phi order")
	}
	fmt.Printf("%s: OK — %d blocks, %d tuples, checksums valid, phi order intact\n",
		in, info.Blocks, info.Tuples)
	return nil
}

// convert translates between the CSV and plain relation formats, keyed on
// the output extension.
func convert(in, out string) error {
	if out == "" {
		return fmt.Errorf("convert needs -out")
	}
	fin, err := os.Open(in)
	if err != nil {
		return err
	}
	defer fin.Close()
	var buf bytes.Buffer
	if strings.HasSuffix(out, ".csv") {
		schema, tuples, err := relfile.ReadPlain(fin)
		if err != nil {
			return err
		}
		if err := relfile.WriteCSV(&buf, schema, tuples); err != nil {
			return err
		}
		if err := storage.WriteFileAtomic(storage.OSFS{}, out, buf.Bytes()); err != nil {
			return err
		}
		fmt.Printf("%s: %d tuples as CSV\n", out, len(tuples))
		return nil
	}
	schema, tuples, err := relfile.ReadCSV(fin, nil)
	if err != nil {
		return err
	}
	if err := relfile.WritePlain(&buf, schema, tuples); err != nil {
		return err
	}
	if err := storage.WriteFileAtomic(storage.OSFS{}, out, buf.Bytes()); err != nil {
		return err
	}
	fmt.Printf("%s: %d tuples over inferred schema %s\n", out, len(tuples), schema)
	return nil
}

// metrics loads a plain relation into an instrumented in-memory table,
// replays a query workload (full scan plus a range count per attribute),
// and dumps the observability registry.
func metrics(in, codecName string, blockSize int, jsonOut bool) error {
	ctx := context.Background()
	codec, err := core.ParseCodec(codecName)
	if err != nil {
		return err
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	schema, tuples, err := relfile.ReadPlain(f)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	tb, err := table.Create(schema,
		table.WithCodec(codec),
		table.WithPageSize(blockSize),
		table.WithObs(reg),
	)
	if err != nil {
		return err
	}
	if err := tb.BulkLoadContext(ctx, tuples); err != nil {
		return err
	}
	if err := tb.ScanContext(ctx, func(relation.Tuple) bool { return true }); err != nil {
		return err
	}
	for attr := 0; attr < schema.NumAttrs(); attr++ {
		if _, _, err := tb.CountRangeContext(ctx, attr, 0, schema.Domain(attr).Size/2); err != nil {
			return err
		}
	}
	snap := reg.Snapshot()
	if jsonOut {
		return snap.WriteJSON(os.Stdout)
	}
	fmt.Printf("metrics for %s: %d tuples in %d blocks (%s codec, %d-byte blocks)\n",
		in, tb.Len(), tb.NumBlocks(), codec, blockSize)
	return snap.WriteText(os.Stdout)
}

func stats(in string, blockSize int) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	schema, tuples, err := relfile.ReadPlain(f)
	if err != nil {
		return err
	}
	sorted := make([]relation.Tuple, len(tuples))
	copy(sorted, tuples)
	schema.SortTuples(sorted)
	fmt.Printf("%d tuples, %d-byte rows, block size %d\n", len(tuples), schema.RowSize(), blockSize)
	for _, codec := range core.Codecs() {
		runs, sizes, err := core.Pack(codec, schema, sorted, blockSize)
		if err != nil {
			return fmt.Errorf("block size %d: %w", blockSize, err)
		}
		payload := 0
		for _, size := range sizes {
			payload += size
		}
		fmt.Printf("  %-12s %6d blocks  %9d payload bytes\n", codec, len(runs), payload)
	}
	return nil
}
