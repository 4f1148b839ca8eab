package shard_test

import (
	"context"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/gen"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/table"
)

// putCountingFS counts what an object store does to its bucket: every
// rename is one object PUT (storage.WriteFileAtomic renames the written
// temporary over the object), and every file or directory fsync.
type putCountingFS struct {
	storage.FS
	mu     sync.Mutex
	puts   map[string]int // object key -> PUTs
	fsyncs int
}

func (c *putCountingFS) Rename(oldpath, newpath string) error {
	err := c.FS.Rename(oldpath, newpath)
	if err == nil {
		key, _ := url.QueryUnescape(filepath.Base(newpath))
		c.mu.Lock()
		c.puts[key]++
		c.mu.Unlock()
	}
	return err
}

func (c *putCountingFS) SyncDir(path string) error {
	c.mu.Lock()
	c.fsyncs++
	c.mu.Unlock()
	return c.FS.SyncDir(path)
}

func (c *putCountingFS) OpenFile(path string, flag int) (storage.File, error) {
	f, err := c.FS.OpenFile(path, flag)
	if err != nil {
		return nil, err
	}
	return &syncCountingFile{File: f, fs: c}, nil
}

type syncCountingFile struct {
	storage.File
	fs *putCountingFS
}

func (f *syncCountingFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.fsyncs++
	f.fs.mu.Unlock()
	return f.File.Sync()
}

// TestObjectBulkLoadWritesEachPageOnce pins the object backend's write
// cost: a sharded bulk load, from Create through Close, writes each data
// page's object once, beside a few catalog objects (each table's two
// catalog heads, the shard catalog), with at most two fsyncs per object.
func TestObjectBulkLoadWritesEachPageOnce(t *testing.T) {
	spec, err := gen.BenchShapeSpec("flat8", 100000, 1)
	if err != nil {
		t.Fatal(err)
	}
	schema, tuples, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	fs := &putCountingFS{FS: storage.OSFS{}, puts: map[string]int{}}
	const shards = 4
	db, err := shard.Create(schema, shard.Config{
		Kind: backend.KindObject, Dir: t.TempDir(), FS: fs, Shards: shards,
		Options: []table.Option{table.WithPoolFrames(16)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BulkLoad(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	blocks := db.NumBlocks()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if blocks < 4*shards {
		t.Fatalf("%d blocks; the count needs several per shard", blocks)
	}

	dataPages, catalogPuts, objectsPut := 0, 0, 0
	for key, n := range fs.puts {
		objectsPut += n
		id := -1
		if i := strings.Index(key, "/pages/"); i >= 0 {
			id, _ = strconv.Atoi(key[i+len("/pages/"):])
		}
		switch {
		case id >= 2: // a data page: pages 0 and 1 head the catalog chains
			dataPages++
			if n != 1 {
				t.Errorf("data page object %s written %d times, want 1", key, n)
			}
		default:
			catalogPuts += n
		}
	}
	if dataPages != blocks {
		t.Errorf("%d data page objects written for %d blocks", dataPages, blocks)
	}
	// Per table: the zeroed slot-0 head and the generation-1 catalog at
	// Create, the generation-2 catalog at Close; and the shard catalog at
	// Create and at Close.
	if want := 3*shards + 2; catalogPuts > want {
		t.Errorf("%d catalog object writes, want at most %d: %v", catalogPuts, want, fs.puts)
	}
	if fs.fsyncs > 2*objectsPut {
		t.Errorf("%d fsyncs for %d object writes, want at most 2 per object", fs.fsyncs, objectsPut)
	}
	t.Logf("%d blocks: %d object writes (%d catalog), %d fsyncs", blocks, objectsPut, catalogPuts, fs.fsyncs)
}
