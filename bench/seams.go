package main

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/table"
)

// The tracer and the two wrappers that feed it: tracedEngine around the
// server.Engine the server is handed, tracedFS around the storage.FS the
// engine opens its files through. trace.go says what they are for.

// span is one traced call. Spans of one replayed request share Request;
// Parent is the index of the containing span, -1 for the http root.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	// Replay marks a span measured in a second execution, after its
	// parent ended: only its duration means anything.
	Replay bool `json:"replay,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory. It records only while on is set, which
// is while the staircase replays; the closed loops that run on the same
// engine before it pay one atomic load per call. The staircase has one
// request in flight at a time, so "the current request" is a single slot;
// the lock is for the server's goroutines and a scatter's workers.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	t0    time.Time
	spans []span
	req   int // request being replayed
	root  int // its http span
	eng   int // its engine span while the Engine call runs, otherwise -1
	last  int // its most recent engine span, -1 before the call
}

func (tr *tracer) open(name string, parent int) int {
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Request: tr.req, Start: int64(time.Since(tr.t0))})
	return len(tr.spans) - 1
}

// end closes span id; -1 (nothing was recorded) is ignored.
func (tr *tracer) end(id int) {
	if id < 0 {
		return
	}
	tr.mu.Lock()
	tr.spans[id].End = int64(time.Since(tr.t0))
	if id == tr.eng {
		tr.eng = -1
	}
	tr.mu.Unlock()
}

// beginRequest opens the http root span of request req.
func (tr *tracer) beginRequest(req int) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.req, tr.eng, tr.last = req, -1, -1
	tr.root = tr.open("http", -1)
	return tr.root
}

func (tr *tracer) beginEngine() int {
	if !tr.on.Load() {
		return -1
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.eng = tr.open("engine", tr.root)
	tr.last = tr.eng
	return tr.eng
}

// beginIO opens a file-operation span under the running Engine call;
// file operations outside one are not part of any request.
func (tr *tracer) beginIO(name string) int {
	if !tr.on.Load() {
		return -1
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.eng < 0 {
		return -1
	}
	return tr.open(name, tr.eng)
}

// tracedEngine is the engine as the server sees it in a traced run: the
// seven request-serving methods wrapped in an "engine" span.
type tracedEngine struct {
	server.Engine
	tr *tracer
}

func (e tracedEngine) InsertContext(ctx context.Context, tu relation.Tuple) error {
	defer e.tr.end(e.tr.beginEngine())
	return e.Engine.InsertContext(ctx, tu)
}

func (e tracedEngine) InsertBatchContext(ctx context.Context, tuples []relation.Tuple) error {
	defer e.tr.end(e.tr.beginEngine())
	return e.Engine.InsertBatchContext(ctx, tuples)
}

func (e tracedEngine) DeleteContext(ctx context.Context, tu relation.Tuple) (bool, error) {
	defer e.tr.end(e.tr.beginEngine())
	return e.Engine.DeleteContext(ctx, tu)
}

func (e tracedEngine) SelectRangeContext(ctx context.Context, attr int, lo, hi uint64) ([]relation.Tuple, table.QueryStats, error) {
	defer e.tr.end(e.tr.beginEngine())
	return e.Engine.SelectRangeContext(ctx, attr, lo, hi)
}

func (e tracedEngine) CountRangeContext(ctx context.Context, attr int, lo, hi uint64) (int, table.QueryStats, error) {
	defer e.tr.end(e.tr.beginEngine())
	return e.Engine.CountRangeContext(ctx, attr, lo, hi)
}

func (e tracedEngine) AggregateRangeContext(ctx context.Context, attr int, lo, hi uint64, aggAttr int) (table.AggregateResult, table.QueryStats, error) {
	defer e.tr.end(e.tr.beginEngine())
	return e.Engine.AggregateRangeContext(ctx, attr, lo, hi, aggAttr)
}

func (e tracedEngine) GroupByContext(ctx context.Context, filterAttr int, lo, hi uint64, groupAttr, aggAttr int) ([]table.GroupResult, table.QueryStats, error) {
	defer e.tr.end(e.tr.beginEngine())
	return e.Engine.GroupByContext(ctx, filterAttr, lo, hi, groupAttr, aggAttr)
}

// ioNames are the span names of one layer's file operations.
type ioNames struct{ read, write, sync, meta string }

var (
	storageIO = ioNames{"storage.read", "storage.write", "storage.sync", "storage.meta"}
	walIO     = ioNames{"wal.read", "wal.write", "wal.sync", "wal.meta"}
)

// ioNamesFor tells the WAL's files (segments in a "<page file>.wal"
// directory) from page files and page objects.
func ioNamesFor(path string) *ioNames {
	if strings.Contains(path, ".wal") {
		return &walIO
	}
	return &storageIO
}

// tracedFS is the file system the engine of a traced run opens its files
// through: the real one, with a span around every operation.
type tracedFS struct {
	storage.FS
	tr *tracer
}

func (fs tracedFS) OpenFile(path string, flag int) (storage.File, error) {
	names := ioNamesFor(path)
	defer fs.tr.end(fs.tr.beginIO(names.meta))
	f, err := fs.FS.OpenFile(path, flag)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: f, tr: fs.tr, names: names}, nil
}

func (fs tracedFS) Remove(path string) error {
	defer fs.tr.end(fs.tr.beginIO(ioNamesFor(path).meta))
	return fs.FS.Remove(path)
}

func (fs tracedFS) Rename(oldpath, newpath string) error {
	defer fs.tr.end(fs.tr.beginIO(ioNamesFor(newpath).meta))
	return fs.FS.Rename(oldpath, newpath)
}

func (fs tracedFS) MkdirAll(path string) error {
	defer fs.tr.end(fs.tr.beginIO(ioNamesFor(path).meta))
	return fs.FS.MkdirAll(path)
}

func (fs tracedFS) ReadDir(path string) ([]string, error) {
	defer fs.tr.end(fs.tr.beginIO(ioNamesFor(path).meta))
	return fs.FS.ReadDir(path)
}

func (fs tracedFS) SyncDir(path string) error {
	defer fs.tr.end(fs.tr.beginIO(ioNamesFor(path).sync))
	return fs.FS.SyncDir(path)
}

func (fs tracedFS) Stat(path string) (int64, error) {
	defer fs.tr.end(fs.tr.beginIO(ioNamesFor(path).meta))
	return fs.FS.Stat(path)
}

type tracedFile struct {
	storage.File
	tr    *tracer
	names *ioNames
}

func (f tracedFile) ReadAt(p []byte, off int64) (int, error) {
	defer f.tr.end(f.tr.beginIO(f.names.read))
	return f.File.ReadAt(p, off)
}

func (f tracedFile) WriteAt(p []byte, off int64) (int, error) {
	defer f.tr.end(f.tr.beginIO(f.names.write))
	return f.File.WriteAt(p, off)
}

func (f tracedFile) Truncate(size int64) error {
	defer f.tr.end(f.tr.beginIO(f.names.write))
	return f.File.Truncate(size)
}

func (f tracedFile) Sync() error {
	defer f.tr.end(f.tr.beginIO(f.names.sync))
	return f.File.Sync()
}

func (f tracedFile) Close() error {
	defer f.tr.end(f.tr.beginIO(f.names.meta))
	return f.File.Close()
}
