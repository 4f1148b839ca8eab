package main

import (
	"context"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/relation"
)

// microBlocks bounds the sample: enough blocks (~80k tuples of flat8) for
// a steady per-tuple figure, few enough to cost milliseconds.
const microBlocks = 64

// measureMicro fills the per-call costs of the lowest layers, measured on
// the twin's own pages right after the staircase: what one decode, one
// pool Get, one page read costs on this relation, independent of how many
// of them a request happens to need.
func measureMicro(ctx context.Context, tw *twin, ms *metricSet) error {
	s := tw.schema
	_, flat := s.FlatSpace()
	part := tw.parts[0]
	pages := part.store.Blocks()
	if len(pages) > microBlocks {
		pages = pages[:microBlocks]
	}
	pageBuf := make([]byte, pageSize)
	streams := make([][]byte, len(pages))
	sn := part.store.Snapshot()
	for i := range pages {
		var err error
		if streams[i], err = sn.ReadStreamInto(i, nil); err != nil {
			sn.Release()
			return err
		}
	}
	sn.Release()

	// Codec: whole-block decodes both ways, then re-encode what was decoded.
	arena := core.NewArena()
	tuples := 0
	var phisNs int64
	if flat {
		t0 := time.Now()
		for _, stream := range streams {
			arena.Reset()
			phis, err := core.DecodeBlockPhis(s, stream, arena)
			if err != nil {
				return err
			}
			tuples += len(phis)
		}
		phisNs = int64(time.Since(t0))
		ms.set("core.decode_phis_ns_per_tuple", float64(phisNs)/float64(tuples))
	}
	decoded := make([][]relation.Tuple, len(streams))
	tuples = 0
	t0 := time.Now()
	for i, stream := range streams {
		var err error
		if decoded[i], err = core.DecodeBlockArena(s, stream, nil); err != nil {
			return err
		}
		tuples += len(decoded[i])
	}
	tuplesNs := int64(time.Since(t0))
	ms.set("core.decode_tuples_ns_per_tuple", float64(tuplesNs)/float64(tuples))
	pathNs := tuplesNs
	if flat {
		pathNs = phisNs
	}
	// Fixed-width user bytes produced per second, on the path this
	// relation's reads take.
	ms.set("core.decode_mb_per_s", float64(tuples*s.RowSize())/1e6/(float64(pathNs)/1e9))
	var enc []byte
	t0 = time.Now()
	for _, ts := range decoded {
		var err error
		if enc, err = core.EncodeBlock(core.CodecAVQ, s, ts, enc[:0]); err != nil {
			return err
		}
	}
	ms.set("core.encode_ns_per_tuple", float64(time.Since(t0))/float64(tuples))

	// Pool: a scratch pool big enough to keep the sample resident, so the
	// first pass over it is all misses and the second all hits.
	pool, err := buffer.New(part.pager, nil, len(pages)+1)
	if err != nil {
		return err
	}
	defer pool.Close() //nolint:errcheck // nothing dirty
	pass := func() (time.Duration, error) {
		t0 := time.Now()
		for _, page := range pages {
			f, err := pool.Get(page)
			if err != nil {
				return 0, err
			}
			if err := pool.Unpin(f); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	miss, err := pass()
	if err != nil {
		return err
	}
	hit, err := pass()
	if err != nil {
		return err
	}
	ms.set("buffer.get_miss_us", float64(miss)/1e3/float64(len(pages)))
	ms.set("buffer.get_hit_ns", float64(hit)/float64(len(pages)))

	t0 = time.Now()
	for _, page := range pages {
		if err := part.pager.Read(page, pageBuf); err != nil {
			return err
		}
	}
	ms.set("storage.read_page_us", float64(time.Since(t0))/1e3/float64(len(pages)))

	if tw.obj != nil {
		keys, err := tw.obj.List(ctx, "twin0/pages/")
		if err != nil {
			return err
		}
		if len(keys) > microBlocks {
			keys = keys[:microBlocks]
		}
		t0 = time.Now()
		for _, key := range keys {
			if _, err := tw.obj.ReadBlock(ctx, key); err != nil {
				return err
			}
		}
		ms.set("backend.read_block_us", float64(time.Since(t0))/1e3/float64(len(keys)))
		const writes = 8 // each is a temp file, two fsyncs and a rename
		t0 = time.Now()
		for i := 0; i < writes; i++ {
			if err := tw.obj.WriteBlock(ctx, "bench-scratch/page", pageBuf); err != nil {
				return err
			}
		}
		ms.set("backend.write_block_us", float64(time.Since(t0))/1e3/writes)
		if _, err := tw.obj.DeleteByPrefix(ctx, "bench-scratch/"); err != nil {
			return err
		}
	}

	const snaps = 1000
	t0 = time.Now()
	for i := 0; i < snaps; i++ {
		part.store.Snapshot().Release()
	}
	ms.set("blockstore.snapshot_us", float64(time.Since(t0))/1e3/snaps)
	return nil
}
