package shard

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/backend"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/table"
	"sync"
)

// Config describes a sharded database.
type Config struct {
	// Kind selects where shard blocks live (default KindMemory).
	Kind backend.Kind
	// Dir roots the database on the filesystem: the catalog object, the
	// shard page files or object bucket, and the WAL directories all live
	// under it. Ignored for KindMemory.
	Dir string
	// FS overrides the filesystem (crash tests inject simdisk.FaultFS);
	// nil means the real one. Ignored for KindMemory.
	FS storage.FS
	// Shards asks for n equal-width φ-ranges over the attribute-0 domain;
	// Splits, when non-nil, gives the interior split points explicitly and
	// wins. Zero/nil means one shard — the degenerate single-table case.
	Shards int
	Splits []uint64
	// Options configure every shard table (codec, page size, pool frames,
	// durability, secondary indexes...). Path, Pager, and VFS are owned by
	// the shard layer and must not appear here.
	Options []table.Option
	// Obs receives the shard-layer counters (shard.queries,
	// shard.shards_scanned, shard.shards_pruned, shard.checkpoints) and is
	// attached to every shard table.
	Obs *obs.Registry
}

// DB is a φ-range-sharded database: a catalog plus one table per shard,
// all on one backend kind. Each shard's table.Table synchronises itself, so
// DB methods are safe for concurrent use; the catalog itself only changes
// under Checkpoint's lock.
type DB struct {
	kind   backend.Kind
	dir    string
	fsys   storage.FS
	schema *relation.Schema
	cat    *Catalog
	cats   backend.Store
	shards []*table.Table

	mu     sync.Mutex // serializes Checkpoint/Close (catalog publication)
	closed bool

	queries, scanned, pruned, checkpoints *obs.Counter
}

// shardName names shard i's storage: the page file (filesystem kind) or
// object prefix (object kind) and the WAL anchor both derive from it.
func shardName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// objectsDir is the object-kind bucket directory under Dir, kept apart
// from the WAL directories so bucket listings see only objects.
const objectsDir = "objects"

func (cfg *Config) fs() storage.FS {
	if cfg.FS != nil {
		return cfg.FS
	}
	return storage.OSFS{}
}

// Create builds a sharded database: the per-shard tables, then the
// epoch-1 catalog published as one atomic object.
func Create(schema *relation.Schema, cfg Config) (*DB, error) {
	if schema == nil {
		return nil, errors.New("shard: nil schema")
	}
	domain := schema.Domain(0).Size
	splits := cfg.Splits
	if splits == nil {
		n := cfg.Shards
		if n == 0 {
			n = 1
		}
		var err error
		if splits, err = EqualSplits(n, domain); err != nil {
			return nil, err
		}
	}
	pageSize := table.Resolve(cfg.Options).PageSize
	if pageSize == 0 {
		pageSize = storage.DefaultPageSize
	}
	cat := &Catalog{
		Kind:     cfg.Kind,
		Epoch:    0,
		Domain:   domain,
		PageSize: uint32(pageSize),
		Splits:   append([]uint64(nil), splits...),
		Shards:   make([]Info, len(splits)+1),
	}
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	db, err := wire(schema, cat, cfg, false)
	if err != nil {
		return nil, err
	}
	if err := db.publishCatalog(); err != nil {
		return nil, errors.Join(err, db.closeShards())
	}
	return db, nil
}

// Open reattaches to a sharded database created under dir. The catalog
// is the root of trust: its kind and split points drive everything else.
// Memory databases are in-process only and cannot be reopened.
func Open(cfg Config) (*DB, error) {
	if cfg.Kind == backend.KindMemory {
		return nil, errors.New("shard: memory databases are not reopenable")
	}
	cats, _, err := stores(cfg)
	if err != nil {
		return nil, err
	}
	//avqlint:ignore ctxflow opening is uninterruptible setup
	blob, err := cats.ReadBlock(context.Background(), CatalogKey)
	if err = errors.Join(err, cats.Close()); err != nil {
		return nil, fmt.Errorf("shard: read catalog: %w", err)
	}
	cat, err := DecodeCatalog(blob)
	if err != nil {
		return nil, err
	}
	if cat.Kind != cfg.Kind {
		return nil, fmt.Errorf("shard: catalog is %v but config asks for %v", cat.Kind, cfg.Kind)
	}
	db, err := wire(nil, cat, cfg, true)
	if err != nil {
		return nil, err
	}
	db.schema = db.shards[0].Schema()
	return db, nil
}

// stores builds the backend store(s) for a config: the catalog store
// and, for the object kind, the shared page store (identical here).
func stores(cfg Config) (cats backend.Store, pages backend.Store, err error) {
	switch cfg.Kind {
	case backend.KindMemory:
		m := backend.NewMemoryStore()
		return m, m, nil
	case backend.KindFilesystem:
		s, err := backend.NewFilesystemStore(cfg.fs(), cfg.Dir)
		if err != nil {
			return nil, nil, err
		}
		return s, nil, nil
	case backend.KindObject:
		s, err := backend.NewObjectStore(cfg.fs(), filepath.Join(cfg.Dir, objectsDir))
		if err != nil {
			return nil, nil, err
		}
		return s, s, nil
	}
	return nil, nil, fmt.Errorf("shard: invalid backend kind %d", int(cfg.Kind))
}

// wire builds the DB shell: stores, then each shard table (created or
// reopened), with the kind-specific storage wiring.
func wire(schema *relation.Schema, cat *Catalog, cfg Config, reopen bool) (*DB, error) {
	cats, pages, err := stores(cfg)
	if err != nil {
		return nil, err
	}
	pageSize := int(cat.PageSize)
	db := &DB{
		kind:        cfg.Kind,
		dir:         cfg.Dir,
		fsys:        cfg.fs(),
		schema:      schema,
		cat:         cat,
		cats:        cats,
		queries:     cfg.Obs.Counter("shard.queries"),
		scanned:     cfg.Obs.Counter("shard.shards_scanned"),
		pruned:      cfg.Obs.Counter("shard.shards_pruned"),
		checkpoints: cfg.Obs.Counter("shard.checkpoints"),
	}
	for i := 0; i < cat.NumShards(); i++ {
		opts := make([]table.Option, 0, len(cfg.Options)+5)
		// The catalog's page size leads so reopening never depends on the
		// caller re-supplying the create-time options; explicit options
		// still win at create (they produced the catalog value).
		opts = append(opts, table.WithPageSize(pageSize))
		opts = append(opts, cfg.Options...)
		if cfg.Obs != nil {
			opts = append(opts, table.WithObs(cfg.Obs))
		}
		switch cfg.Kind {
		case backend.KindMemory:
			// In-process only: no path, no WAL; durability is meaningless.
			opts = append(opts, table.WithPath(""), table.WithDurability(table.DurabilityCheckpoint))
		case backend.KindFilesystem:
			opts = append(opts, table.WithVFS(db.fsys),
				table.WithPath(filepath.Join(cfg.Dir, shardName(i)+".avq")))
		case backend.KindObject:
			pager, perr := backend.NewPager(pages, shardName(i), pageSize)
			if perr != nil {
				err = perr
				break
			}
			// The pager holds the pages; Path only anchors the WAL directory
			// and the persistence contract.
			opts = append(opts, table.WithVFS(db.fsys),
				table.WithPath(filepath.Join(cfg.Dir, shardName(i))),
				table.WithPager(pager))
		}
		var tb *table.Table
		if err == nil {
			if reopen {
				tb, err = table.Open(pathOf(cfg, i), opts...)
			} else {
				tb, err = table.Create(schema, opts...)
			}
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("shard: %s: %w", shardName(i), err), db.closeShards())
		}
		db.shards = append(db.shards, tb)
	}
	return db, nil
}

// pathOf is the table.Open path for shard i under a config.
func pathOf(cfg Config, i int) string {
	if cfg.Kind == backend.KindFilesystem {
		return filepath.Join(cfg.Dir, shardName(i)+".avq")
	}
	return filepath.Join(cfg.Dir, shardName(i))
}

// publishCatalog writes the catalog object. WriteBlock is atomic and
// durable on return, so this is the checkpoint's second barrier.
func (db *DB) publishCatalog() error {
	//avqlint:ignore ctxflow catalog publication is the commit point and must not be interrupted
	return db.cats.WriteBlock(context.Background(), CatalogKey, db.cat.Encode())
}

// Catalog returns a copy of the current catalog.
func (db *DB) Catalog() Catalog {
	db.mu.Lock()
	defer db.mu.Unlock()
	c := *db.cat
	c.Splits = append([]uint64(nil), db.cat.Splits...)
	c.Shards = append([]Info(nil), db.cat.Shards...)
	return c
}

// Kind returns the backend kind.
func (db *DB) Kind() backend.Kind { return db.kind }

// Schema returns the shared schema.
func (db *DB) Schema() *relation.Schema { return db.schema }

// NumShards returns the shard count.
func (db *DB) NumShards() int { return len(db.shards) }

// Shard exposes shard i's table for status and check tooling.
func (db *DB) Shard(i int) *table.Table { return db.shards[i] }

// Len returns the total tuple count across shards.
func (db *DB) Len() int {
	n := 0
	for _, sh := range db.shards {
		n += sh.Len()
	}
	return n
}

// NumBlocks returns the total block count across shards.
func (db *DB) NumBlocks() int {
	n := 0
	for _, sh := range db.shards {
		n += sh.NumBlocks()
	}
	return n
}

// PinnedFrames sums the pinned buffer-pool frames across the shards; the
// server's graceful-drain path asserts this reaches zero after shutdown.
func (db *DB) PinnedFrames() int {
	n := 0
	for _, sh := range db.shards {
		n += sh.PinnedFrames()
	}
	return n
}

// LiveSnapshots sums the held manifest snapshots across the shards.
func (db *DB) LiveSnapshots() int {
	n := 0
	for _, sh := range db.shards {
		n += sh.LiveSnapshots()
	}
	return n
}

// route returns the shard owning tu, validating just enough to index
// attribute 0 (the shard table re-validates fully).
func (db *DB) route(tu relation.Tuple) (int, error) {
	if len(tu) == 0 {
		return 0, errors.New("shard: empty tuple")
	}
	if tu[0] >= db.cat.Domain {
		return 0, fmt.Errorf("shard: attribute 0 value %d outside domain %d", tu[0], db.cat.Domain)
	}
	return db.cat.Route(tu[0]), nil
}

// InsertContext routes tu to its shard.
func (db *DB) InsertContext(ctx context.Context, tu relation.Tuple) error {
	i, err := db.route(tu)
	if err != nil {
		return err
	}
	return db.shards[i].InsertContext(ctx, tu)
}

// InsertBatchContext partitions tuples by shard and inserts each
// partition as one batch (one WAL group commit per touched shard).
func (db *DB) InsertBatchContext(ctx context.Context, tuples []relation.Tuple) error {
	parts, err := db.partition(tuples)
	if err != nil {
		return err
	}
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		if err := db.shards[i].InsertBatchContext(ctx, part); err != nil {
			return err
		}
	}
	return nil
}

// DeleteContext routes tu to its shard.
func (db *DB) DeleteContext(ctx context.Context, tu relation.Tuple) (bool, error) {
	i, err := db.route(tu)
	if err != nil {
		return false, err
	}
	return db.shards[i].DeleteContext(ctx, tu)
}

// Contains routes the membership probe to tu's shard.
func (db *DB) Contains(tu relation.Tuple) (bool, error) {
	i, err := db.route(tu)
	if err != nil {
		return false, err
	}
	return db.shards[i].Contains(tu)
}

// partition splits tuples into per-shard slices, preserving order.
func (db *DB) partition(tuples []relation.Tuple) ([][]relation.Tuple, error) {
	parts := make([][]relation.Tuple, len(db.shards))
	for _, tu := range tuples {
		i, err := db.route(tu)
		if err != nil {
			return nil, err
		}
		parts[i] = append(parts[i], tu)
	}
	return parts, nil
}

// BulkLoad partitions and loads the shards concurrently. It is an
// exclusive phase per shard, like table.BulkLoadContext.
func (db *DB) BulkLoad(ctx context.Context, tuples []relation.Tuple) error {
	parts, err := db.partition(tuples)
	if err != nil {
		return err
	}
	return exec.ScatterCollect(ctx, len(db.shards), func(ctx context.Context, i int) error {
		if len(parts[i]) == 0 {
			return nil
		}
		return db.shards[i].BulkLoadContext(ctx, parts[i])
	})
}

// Checkpoint runs the shard layer's two-barrier protocol: first every
// shard checkpoints (its own two-barrier pass, leaving all shard data
// durable), then the catalog — refreshed counts, bumped epoch — is
// published as one atomic object. A crash between the barriers leaves
// the previous catalog pointing at shards that are still perfectly
// readable: shard checkpoints never destroy the state their last
// published catalog references.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return table.ErrClosed
	}
	for i, sh := range db.shards {
		if err := sh.Checkpoint(); err != nil {
			return fmt.Errorf("shard: checkpoint %s: %w", shardName(i), err)
		}
	}
	for i, sh := range db.shards {
		db.cat.Shards[i] = Info{Tuples: uint64(sh.Len()), Blocks: uint64(sh.NumBlocks())}
	}
	db.cat.Epoch++
	if err := db.publishCatalog(); err != nil {
		return err
	}
	db.checkpoints.Inc()
	return nil
}

// closeShards closes every shard table, keeping the first error.
func (db *DB) closeShards() error {
	var first error
	for _, sh := range db.shards {
		if sh == nil {
			continue
		}
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close checkpoints implicitly (each shard's Close persists it), then
// publishes the final catalog and closes the stores.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	for i, sh := range db.shards {
		db.cat.Shards[i] = Info{Tuples: uint64(sh.Len()), Blocks: uint64(sh.NumBlocks())}
	}
	err := db.closeShards()
	if err == nil {
		db.cat.Epoch++
		err = db.publishCatalog()
	}
	if cerr := db.cats.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
