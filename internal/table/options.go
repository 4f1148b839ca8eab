package table

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Option configures a table at Create/Open time. Options compose left to
// right: later options override earlier ones.
//
//	table.Create(schema, table.WithCodec(core.CodecPacked), table.WithPoolFrames(256))
type Option interface {
	apply(*Options)
}

// optionFunc adapts a function to the Option interface.
type optionFunc func(*Options)

func (f optionFunc) apply(o *Options) { f(o) }

// resolveOptions folds a Create/Open option list into one Options value,
// starting from the defaults the With* options document.
func resolveOptions(opts []Option) Options {
	o := Options{Codec: core.CodecAVQ}
	for _, op := range opts {
		op.apply(&o)
	}
	return o
}

// Resolve folds an option list into the Options struct it denotes.
// Layered callers (the shard layer) use it to inspect a configuration —
// e.g. the page size — before constructing per-shard backends.
func Resolve(opts []Option) Options { return resolveOptions(opts) }

// WithCodec selects the block representation (default core.CodecAVQ).
func WithCodec(c core.Codec) Option {
	return optionFunc(func(o *Options) { o.Codec = c })
}

// WithPageSize sets the disk block size in bytes.
func WithPageSize(n int) Option {
	return optionFunc(func(o *Options) { o.PageSize = n })
}

// WithPoolFrames sets the buffer pool capacity in frames.
func WithPoolFrames(n int) Option {
	return optionFunc(func(o *Options) { o.PoolFrames = n })
}

// WithSecondaryAttrs lists attribute positions to maintain secondary
// indexes on.
func WithSecondaryAttrs(attrs ...int) Option {
	return optionFunc(func(o *Options) { o.SecondaryAttrs = attrs })
}

// WithPath backs the table with a page file at the given location.
func WithPath(path string) Option {
	return optionFunc(func(o *Options) { o.Path = path })
}

// WithPager injects the page store directly instead of deriving one from
// Path: the shard layer hands in a backend.Pager so the table's pages
// live in a keyed object store. Combined with WithPath (which then only
// anchors the WAL directory and the persistence contract), the pager must
// implement storage.DurablePager.
func WithPager(p storage.Pager) Option {
	return optionFunc(func(o *Options) { o.Pager = p })
}

// WithObs attaches an observability registry: the buffer pool, block
// store, executor, and indexes resolve their instruments from it, and the
// table's public operations record op-latency spans through it. A nil
// registry (the default) keeps every hot path un-instrumented.
func WithObs(reg *obs.Registry) Option {
	return optionFunc(func(o *Options) { o.Obs = reg })
}

// WithDurability selects the crash-durability contract (see Durability).
// Only meaningful together with WithPath.
func WithDurability(d Durability) Option {
	return optionFunc(func(o *Options) { o.Durability = d })
}

// WithVFS overrides the filesystem backing the page file and WAL; crash
// tests inject a fault-injecting implementation here. Nil (the default)
// means the real filesystem.
func WithVFS(fs storage.FS) Option {
	return optionFunc(func(o *Options) { o.FS = fs })
}

// WithWALSegmentSize overrides the WAL segment rotation threshold in bytes.
func WithWALSegmentSize(n int64) Option {
	return optionFunc(func(o *Options) { o.WALSegmentSize = n })
}
