package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/relfile"
)

// writeRel generates a small plain relation file for the tool tests.
func writeRel(t *testing.T, dir string) string {
	t.Helper()
	schema, tuples, err := gen.Fig57Spec(2000, false, gen.VarianceSmall, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "data.rel")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := relfile.WritePlain(f, schema, tuples); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompressDecompressVerifyInspect(t *testing.T) {
	dir := t.TempDir()
	rel := writeRel(t, dir)
	avq := filepath.Join(dir, "data.avq")
	back := filepath.Join(dir, "back.rel")

	if err := run("compress", rel, avq, "avq", 2048, false); err != nil {
		t.Fatalf("compress: %v", err)
	}
	if err := run("verify", avq, "", "avq", 2048, false); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := run("inspect", avq, "", "avq", 2048, false); err != nil {
		t.Fatalf("inspect compressed: %v", err)
	}
	if err := run("inspect", rel, "", "avq", 2048, false); err != nil {
		t.Fatalf("inspect plain: %v", err)
	}
	if err := run("decompress", avq, back, "avq", 2048, false); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if err := run("stats", rel, "", "avq", 2048, false); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := run("metrics", rel, "", "avq", 2048, false); err != nil {
		t.Fatalf("metrics text: %v", err)
	}
	if err := run("metrics", rel, "", "avq", 2048, true); err != nil {
		t.Fatalf("metrics json: %v", err)
	}

	// The decompressed relation has the same content (phi-sorted).
	fa, err := os.Open(rel)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	schema, orig, err := relfile.ReadPlain(fa)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.Open(back)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	_, got, err := relfile.ReadPlain(fb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("round trip has %d tuples, want %d", len(got), len(orig))
	}
	schema.SortTuples(orig)
	for i := range orig {
		if schema.Compare(orig[i], got[i]) != 0 {
			t.Fatalf("tuple %d differs after round trip", i)
		}
	}
}

func TestToolErrors(t *testing.T) {
	dir := t.TempDir()
	rel := writeRel(t, dir)
	if err := run("compress", rel, "", "avq", 2048, false); err == nil {
		t.Fatal("compress without -out succeeded")
	}
	for _, name := range []string{"nope", "rep-only", "delta-chain"} {
		if err := run("compress", rel, filepath.Join(dir, "x.avq"), name, 2048, false); !errors.Is(err, core.ErrBadCodec) {
			t.Fatalf("codec %q: err = %v, want core.ErrBadCodec", name, err)
		}
	}
	if err := run("decompress", rel, "", "avq", 2048, false); err == nil {
		t.Fatal("decompress without -out succeeded")
	}
	if err := run("verify", rel, "", "avq", 2048, false); err == nil {
		t.Fatal("verify of a plain file succeeded")
	}
	if err := run("bogus", rel, "", "avq", 2048, false); err == nil {
		t.Fatal("unknown command succeeded")
	}
	if err := run("inspect", filepath.Join(dir, "missing"), "", "avq", 2048, false); err == nil {
		t.Fatal("inspect of missing file succeeded")
	}
}

func TestAllCodecsThroughTool(t *testing.T) {
	dir := t.TempDir()
	rel := writeRel(t, dir)
	for _, c := range core.Codecs() {
		codec := c.String()
		out := filepath.Join(dir, codec+".avq")
		if err := run("compress", rel, out, codec, 4096, false); err != nil {
			t.Fatalf("%s: compress: %v", codec, err)
		}
		if err := run("verify", out, "", codec, 4096, false); err != nil {
			t.Fatalf("%s: verify: %v", codec, err)
		}
	}
}

func TestConvertCSVBothWays(t *testing.T) {
	dir := t.TempDir()
	rel := writeRel(t, dir)
	csv := filepath.Join(dir, "d.csv")
	back := filepath.Join(dir, "back.rel")
	if err := run("convert", rel, csv, "avq", 0, false); err != nil {
		t.Fatalf("rel->csv: %v", err)
	}
	if err := run("convert", csv, back, "avq", 0, false); err != nil {
		t.Fatalf("csv->rel: %v", err)
	}
	// The round-tripped relation has the same tuples (schema may have
	// tighter inferred domains).
	fa, err := os.Open(rel)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	_, orig, err := relfile.ReadPlain(fa)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.Open(back)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	_, got, err := relfile.ReadPlain(fb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("%d tuples, want %d", len(got), len(orig))
	}
	if err := run("convert", rel, "", "avq", 0, false); err == nil {
		t.Fatal("convert without -out succeeded")
	}
}
