// Package extsort sorts relations larger than memory into phi order: the
// paper's tuple re-ordering step (Section 3.2) at out-of-core scale.
//
// The sorter accumulates tuples up to a memory budget, sorts each batch
// with Schema.SortTuples, spills it as a fixed-width run file, and
// finally streams the k-way merge of all runs (plus the in-memory tail)
// through a loser-free binary heap. Output is a pull iterator, so a
// compressed bulk load can consume it without ever materializing the whole
// relation.
//
// Configure(n) with n > 1 enables the concurrent pipeline: full batches
// are sorted and written by a background spill worker while the caller
// keeps adding tuples, and the final merge reads every run through a
// per-run read-ahead buffer. The emitted tuple sequence is identical to
// the serial path — runs get the same contents and filenames, and the
// merge consumes them in the same order — so the serial configuration
// remains the differential-testing reference.
package extsort

import (
	"bufio"
	"container/heap"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// DefaultMemoryTuples is the default in-memory batch size.
const DefaultMemoryTuples = 1 << 18

// prefetchDepth is the per-run merge read-ahead, in tuples.
const prefetchDepth = 64

// ErrFinished is returned by Add after Iterate has started.
var ErrFinished = errors.New("extsort: sorter already draining")

// Sorter accumulates tuples and streams them back in phi order.
type Sorter struct {
	schema    *relation.Schema
	tmpDir    string
	memTuples int
	conc      int

	batch    []relation.Tuple
	runs     []string
	draining bool
	closed   bool

	// met holds pre-resolved obs instruments; nil instruments no-op.
	// The spill worker reads it concurrently, so SetObs must precede
	// the first Add.
	met sortMetrics

	// Background spill worker state (conc > 1 only). The worker owns each
	// submitted batch exclusively; its first failure is kept and surfaced
	// at the next spill, Iterate, or Close.
	spillCh   chan spillJob
	spillDone chan struct{}
	spillMu   sync.Mutex
	spillErr  error
}

// New creates a sorter spilling runs into tmpDir (created if needed).
// memTuples bounds the in-memory batch; 0 means DefaultMemoryTuples.
func New(schema *relation.Schema, tmpDir string, memTuples int) (*Sorter, error) {
	if memTuples == 0 {
		memTuples = DefaultMemoryTuples
	}
	if memTuples < 1 {
		return nil, fmt.Errorf("extsort: memory budget %d tuples", memTuples)
	}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return nil, err
	}
	return &Sorter{schema: schema, tmpDir: tmpDir, memTuples: memTuples}, nil
}

// Configure sets the sorter's concurrency. Values > 1 enable the
// background spill worker and the per-run merge read-ahead; values <= 1
// select the serial reference path. It must be called before the first
// Add.
func (s *Sorter) Configure(concurrency int) error {
	if len(s.batch) > 0 || len(s.runs) > 0 || s.draining || s.closed {
		return errors.New("extsort: Configure must precede the first Add")
	}
	s.conc = concurrency
	return nil
}

// Add buffers one tuple, spilling a sorted run when the batch is full.
func (s *Sorter) Add(tu relation.Tuple) error {
	if s.draining || s.closed {
		return ErrFinished
	}
	if err := s.schema.ValidateTuple(tu); err != nil {
		return err
	}
	s.batch = append(s.batch, tu.Clone())
	if len(s.batch) >= s.memTuples {
		return s.spill()
	}
	return nil
}

// runPath returns the deterministic filename of the idx-th run. Indices
// are assigned at submission time, so the concurrent spill worker produces
// the same filenames as the serial path.
func (s *Sorter) runPath(idx int) string {
	return filepath.Join(s.tmpDir, fmt.Sprintf("run-%06d.bin", idx))
}

// sortMetrics are the sorter's obs instruments, resolved once by SetObs.
type sortMetrics struct {
	spills        *obs.Counter
	spilledTuples *obs.Counter
	mergeRuns     *obs.Counter
	spillHist     *obs.Histogram
}

// SetObs wires the sorter's spill/merge counters into a registry (nil
// detaches). Call before the first Add: the background spill worker reads
// the instruments without synchronization.
func (s *Sorter) SetObs(reg *obs.Registry) {
	if reg == nil {
		s.met = sortMetrics{}
		return
	}
	s.met = sortMetrics{
		spills:        reg.Counter("extsort.spills"),
		spilledTuples: reg.Counter("extsort.spilled_tuples"),
		mergeRuns:     reg.Counter("extsort.merge_runs"),
		spillHist:     reg.Histogram("extsort.spill"),
	}
}

// recordSpill accounts one run of n tuples written in dur.
func (s *Sorter) recordSpill(n int, dur time.Duration) {
	s.met.spills.Inc()
	s.met.spilledTuples.Add(int64(n))
	s.met.spillHist.Observe(dur)
}

// spill turns the current batch into a run file — inline, or on the
// background worker when the pipeline is enabled.
func (s *Sorter) spill() error {
	if len(s.batch) == 0 {
		return nil
	}
	if s.conc > 1 {
		return s.spillAsync()
	}
	s.schema.SortTuples(s.batch)
	path := s.runPath(len(s.runs))
	var t0 time.Time
	if s.met.spillHist != nil {
		t0 = time.Now()
	}
	if err := writeRun(s.schema, s.batch, path); err != nil {
		return err
	}
	if s.met.spillHist != nil {
		s.recordSpill(len(s.batch), time.Since(t0))
	}
	s.runs = append(s.runs, path)
	s.batch = s.batch[:0]
	return nil
}

// spillJob is one batch handed to the background spill worker.
type spillJob struct {
	batch []relation.Tuple
	path  string
}

// spillAsync hands the batch to the spill worker and starts a fresh one,
// so sorting and writing the run overlaps further Adds.
func (s *Sorter) spillAsync() error {
	if err := s.spillFailure(); err != nil {
		return err
	}
	if s.spillCh == nil {
		s.spillCh = make(chan spillJob, 1)
		s.spillDone = make(chan struct{})
		go s.spillWorker()
	}
	path := s.runPath(len(s.runs))
	s.runs = append(s.runs, path)
	s.spillCh <- spillJob{batch: s.batch, path: path}
	s.batch = make([]relation.Tuple, 0, s.memTuples)
	return nil
}

func (s *Sorter) spillWorker() {
	defer close(s.spillDone)
	for job := range s.spillCh {
		s.schema.SortTuples(job.batch)
		var t0 time.Time
		if s.met.spillHist != nil {
			t0 = time.Now()
		}
		if err := writeRun(s.schema, job.batch, job.path); err != nil {
			s.spillMu.Lock()
			if s.spillErr == nil {
				s.spillErr = err
			}
			s.spillMu.Unlock()
			continue
		}
		if s.met.spillHist != nil {
			s.recordSpill(len(job.batch), time.Since(t0))
		}
	}
}

// spillFailure returns the first background spill error, if any.
func (s *Sorter) spillFailure() error {
	s.spillMu.Lock()
	defer s.spillMu.Unlock()
	return s.spillErr
}

// stopSpillWorker flushes the background spill worker and waits for it.
func (s *Sorter) stopSpillWorker() {
	if s.spillCh != nil {
		close(s.spillCh)
		<-s.spillDone
		s.spillCh = nil
	}
}

// runFile is the spill target; a seam so tests can inject write failures.
type runFile interface {
	io.Writer
	Close() error
}

var createRunFile = func(path string) (runFile, error) { return os.Create(path) }

// writeRun writes one sorted batch as a fixed-width run file. On any
// failure the partial file is removed, so an aborted sort never leaks a
// temp file that Close does not know how to clean up.
func writeRun(schema *relation.Schema, batch []relation.Tuple, path string) error {
	f, err := createRunFile(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	buf := make([]byte, 0, schema.RowSize())
	werr := func() error {
		for _, tu := range batch {
			buf = schema.EncodeTuple(buf[:0], tu)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return w.Flush()
	}()
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		return errors.Join(werr, os.Remove(path))
	}
	return nil
}

// runSource streams one spilled run for the merge. current is valid after
// a true next; close releases the underlying file (and, for the prefetch
// variant, its goroutine).
type runSource interface {
	next() (bool, error)
	current() relation.Tuple
	close() error
}

// runReader streams one spilled run directly from disk.
type runReader struct {
	schema *relation.Schema
	f      *os.File
	r      *bufio.Reader
	buf    []byte
	cur    relation.Tuple
	eof    bool
}

func openRun(schema *relation.Schema, path string) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	rr := &runReader{
		schema: schema,
		f:      f,
		r:      bufio.NewReaderSize(f, 1<<16),
		buf:    make([]byte, schema.RowSize()),
	}
	return rr, nil
}

// next advances to the following tuple; false at end of run.
func (rr *runReader) next() (bool, error) {
	if rr.eof {
		return false, nil
	}
	n, err := readFull(rr.r, rr.buf)
	if n == 0 {
		rr.eof = true
		return false, nil
	}
	if err != nil {
		return false, err
	}
	tu, err := rr.schema.DecodeTuple(rr.buf)
	if err != nil {
		return false, err
	}
	rr.cur = tu
	return true, nil
}

func (rr *runReader) current() relation.Tuple { return rr.cur }

func (rr *runReader) close() error { return rr.f.Close() }

// readFull reads exactly len(buf) bytes or reports 0 at a clean boundary.
func readFull(r *bufio.Reader, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil {
			if total == 0 {
				return 0, nil
			}
			if total < len(buf) {
				return total, fmt.Errorf("extsort: truncated run (%d of %d bytes)", total, len(buf))
			}
			return total, nil
		}
	}
	return total, nil
}

// prefetchItem carries one decoded tuple (or the run's error) through the
// read-ahead channel.
type prefetchItem struct {
	tu  relation.Tuple
	err error
}

// prefetchRun wraps a runReader with a goroutine that decodes ahead of the
// merge, so the k-way merge never stalls on a single run's disk read.
type prefetchRun struct {
	ch   chan prefetchItem
	stop chan struct{}
	done chan struct{}
	cur  relation.Tuple
}

func newPrefetchRun(rr *runReader) *prefetchRun {
	p := &prefetchRun{
		ch:   make(chan prefetchItem, prefetchDepth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(p.done)
		defer close(p.ch)
		defer rr.f.Close()
		for {
			ok, err := rr.next()
			if err != nil {
				select {
				case p.ch <- prefetchItem{err: err}:
				case <-p.stop:
				}
				return
			}
			if !ok {
				return
			}
			select {
			case p.ch <- prefetchItem{tu: rr.cur}:
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

func (p *prefetchRun) next() (bool, error) {
	item, ok := <-p.ch
	if !ok {
		return false, nil
	}
	if item.err != nil {
		return false, item.err
	}
	p.cur = item.tu
	return true, nil
}

func (p *prefetchRun) current() relation.Tuple { return p.cur }

func (p *prefetchRun) close() error {
	close(p.stop)
	<-p.done
	return nil
}

// openSource opens a run for merging, behind read-ahead when enabled.
func (s *Sorter) openSource(path string) (runSource, error) {
	rr, err := openRun(s.schema, path)
	if err != nil {
		return nil, err
	}
	if s.conc > 1 {
		return newPrefetchRun(rr), nil
	}
	return rr, nil
}

// mergeHeap orders run sources by their current tuple.
type mergeHeap struct {
	schema *relation.Schema
	items  []runSource
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	return h.schema.Compare(h.items[i].current(), h.items[j].current()) < 0
}
func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x any)    { h.items = append(h.items, x.(runSource)) }
func (h *mergeHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// Iterate streams every added tuple in phi order. It may be called once;
// Add is rejected afterwards. fn returning false stops early. The sorter
// is Closed — and its temporary runs removed — on every return path,
// including early stops and mid-merge errors.
func (s *Sorter) Iterate(fn func(relation.Tuple) bool) (err error) {
	if s.closed {
		return ErrFinished
	}
	s.draining = true
	s.stopSpillWorker()
	defer func() {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}()
	if serr := s.spillFailure(); serr != nil {
		return serr
	}
	// The final in-memory batch becomes one more (virtual) run.
	s.schema.SortTuples(s.batch)
	s.met.mergeRuns.Add(int64(len(s.runs)))

	h := &mergeHeap{schema: s.schema}
	var sources []runSource
	defer func() {
		for _, src := range sources {
			src.close()
		}
	}()
	for _, path := range s.runs {
		src, serr := s.openSource(path)
		if serr != nil {
			return serr
		}
		sources = append(sources, src)
		ok, serr := src.next()
		if serr != nil {
			return serr
		}
		if ok {
			h.items = append(h.items, src)
		}
	}
	heap.Init(h)

	memPos := 0
	emitMem := func() relation.Tuple {
		tu := s.batch[memPos]
		memPos++
		return tu
	}
	for h.Len() > 0 || memPos < len(s.batch) {
		var tu relation.Tuple
		switch {
		case h.Len() == 0:
			tu = emitMem()
		case memPos >= len(s.batch):
			tu = h.items[0].current()
			if err := s.advance(h); err != nil {
				return err
			}
		default:
			if s.schema.Compare(s.batch[memPos], h.items[0].current()) <= 0 {
				tu = emitMem()
			} else {
				tu = h.items[0].current()
				if err := s.advance(h); err != nil {
					return err
				}
			}
		}
		if !fn(tu) {
			break
		}
	}
	return nil
}

// advance pops the heap head's tuple and refills it from its run.
func (s *Sorter) advance(h *mergeHeap) error {
	src := h.items[0]
	ok, err := src.next()
	if err != nil {
		return err
	}
	if ok {
		heap.Fix(h, 0)
	} else {
		heap.Pop(h)
	}
	return nil
}

// Len returns the number of tuples added so far.
func (s *Sorter) Len() int {
	return len(s.batch) + len(s.runs)*s.memTuples
}

// Runs returns the number of spilled runs, for tests and telemetry.
func (s *Sorter) Runs() int { return len(s.runs) }

// Close stops the spill worker and removes the spilled run files. It is
// safe to call repeatedly and reports the first deferred spill error. A
// run whose write failed was already removed by writeRun, so its missing
// file is not an error here.
func (s *Sorter) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.stopSpillWorker()
	firstErr := s.spillFailure()
	for _, path := range s.runs {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) && firstErr == nil {
			firstErr = err
		}
	}
	s.runs = nil
	s.batch = nil
	return firstErr
}
