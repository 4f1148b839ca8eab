package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/backend"
	"repro/internal/blockstore"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

// The twin is the harness's own copy of the engine's blocks: one
// blockstore.Store per shard (one in all for a single table), bulk-loaded
// from the same tuples with the same codec and page size, so its blocks
// and fences are the engine's. The engine keeps its store private; the
// twin is how the traced run gets at the coded streams a request read
// (for the decode replay) and at a pool and a pager to time one call of.

type twinPart struct {
	pager storage.Pager
	pool  *buffer.Pool
	store *blockstore.Store
}

type twin struct {
	schema *relation.Schema
	obj    backend.Store // the object store under the pagers, nil on page files
	parts  []twinPart    // in phi order
}

// openTwinPager opens the kind of page store the workload's engine uses:
// a page file, or backend.Pager over the object backend.
func (tw *twin) openPager(def *workloadDef, dir, name string) (storage.Pager, error) {
	if def.shards == 0 {
		return storage.OpenFilePager(filepath.Join(dir, name+".pages"), pageSize)
	}
	if tw.obj == nil {
		obj, err := backend.NewObjectStore(storage.OSFS{}, filepath.Join(dir, "twin-objects"))
		if err != nil {
			return nil, err
		}
		tw.obj = obj
	}
	return backend.NewPager(tw.obj, name, pageSize)
}

// buildTwin splits sorted (phi order) at the workload's shard boundaries
// and bulk-loads each slice into a store of its own under dir.
func buildTwin(ctx context.Context, def *workloadDef, schema *relation.Schema, sorted []relation.Tuple, dir string) (tw *twin, err error) {
	tw = &twin{schema: schema}
	defer func() {
		if err != nil {
			tw.close() //nolint:errcheck // already failing
		}
	}()
	bounds := append(def.splits(), def.rel.sizes[0]) // exclusive upper attr-0 bound per part
	from := 0
	for i, bound := range bounds {
		to := from
		for to < len(sorted) && sorted[to][0] < bound {
			to++
		}
		part := twinPart{}
		if part.pager, err = tw.openPager(def, dir, fmt.Sprintf("twin%d", i)); err != nil {
			return nil, err
		}
		tw.parts = append(tw.parts, part)
		p := &tw.parts[i]
		if p.pool, err = buffer.New(p.pager, nil, def.frames); err != nil {
			return nil, err
		}
		if p.store, err = blockstore.New(schema, core.CodecAVQ, p.pool); err != nil {
			return nil, err
		}
		if _, err = p.store.BulkLoadContext(ctx, sorted[from:to]); err != nil {
			return nil, err
		}
		if err = p.pool.Flush(); err != nil {
			return nil, err
		}
		from = to
	}
	return tw, nil
}

func (tw *twin) close() error {
	var err error
	for _, p := range tw.parts {
		if p.pool != nil {
			err = errors.Join(err, p.pool.Close())
		}
		if p.pager != nil {
			err = errors.Join(err, p.pager.Close())
		}
	}
	if tw.obj != nil {
		err = errors.Join(err, tw.obj.Close())
	}
	return err
}
