// Package obs is the engine's observability layer: a stdlib-only metrics
// registry (atomic counters, gauges, and fixed-bucket latency histograms),
// lightweight op-tracing spans with a sampled per-stage breakdown, and a
// ring-buffer slow-op log.
//
// The design splits the cost asymmetrically. Registration (Counter,
// Gauge, Histogram lookups by name) takes a mutex and happens once, at
// wiring time: each subsystem resolves its instruments when it is
// configured and holds the pointers. The hot path — incrementing a
// counter, observing a latency — is a single atomic add and never takes a
// lock. Every instrument method is safe on a nil receiver and does
// nothing, so instrumented code needs no "is observability on?" branches:
// a disabled subsystem simply holds nil instruments.
//
// Spans (see span.go) trace one public operation each — a bulk load, a
// range selection, a compaction — not one block, so their cost is
// amortized over the operation. Operations that exceed the registry's
// slow-op threshold are appended to a fixed-capacity ring buffer
// (slowlog.go) for post-hoc inspection without scraping.
package obs

import (
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are nil-safe no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (e.g. live snapshots, pinned
// frames). All methods are nil-safe no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultSlowOpThreshold is the slow-op log admission threshold until
// SetSlowOpThreshold overrides it.
const DefaultSlowOpThreshold = 100 * time.Millisecond

// DefaultSampleEvery is the default op-span stage-sampling period: one op
// in every DefaultSampleEvery carries a per-stage timing breakdown.
const DefaultSampleEvery = 16

// Registry holds named instruments and the slow-op log. Lookups
// get-or-create under a mutex; the returned instruments are then updated
// with atomics only. A nil *Registry is a valid "observability off"
// registry: every method no-ops and returns nil instruments.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// ops maps an op name to its "op.<name>" histogram, resolved once
	// per name: spans read it without a lock, and a new name copies the
	// map under mu.
	ops atomic.Pointer[map[string]*Histogram]

	slow          *SlowLog
	slowThreshold atomic.Int64 // nanoseconds
	sampleEvery   atomic.Int64
	opSeq         atomic.Int64
}

// NewRegistry creates an empty registry with the default slow-op
// threshold and sampling period.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		slow:     NewSlowLog(DefaultSlowLogCap),
	}
	r.slowThreshold.Store(int64(DefaultSlowOpThreshold))
	r.sampleEvery.Store(DefaultSampleEvery)
	return r
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// opHistogram returns op's "op.<op>" histogram: a lock-free map read
// once the name has been seen, a copy of the map on its first use.
func (r *Registry) opHistogram(op string) *Histogram {
	if m := r.ops.Load(); m != nil {
		if h, ok := (*m)[op]; ok {
			return h
		}
	}
	h := r.Histogram("op." + op)
	r.mu.Lock()
	defer r.mu.Unlock()
	next := map[string]*Histogram{}
	if old := r.ops.Load(); old != nil {
		next = maps.Clone(*old)
	}
	next[op] = h
	r.ops.Store(&next)
	return h
}

// SetSlowOpThreshold sets the duration at or above which a finished op is
// appended to the slow-op log. Non-positive d disables the log.
func (r *Registry) SetSlowOpThreshold(d time.Duration) {
	if r == nil {
		return
	}
	r.slowThreshold.Store(int64(d))
}

// SlowOpThreshold returns the current slow-op admission threshold.
func (r *Registry) SlowOpThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.slowThreshold.Load())
}

// SetSampleEvery sets the op-span stage-sampling period: 1 samples every
// op, n samples one in n, values < 1 disable stage sampling entirely.
func (r *Registry) SetSampleEvery(n int) {
	if r == nil {
		return
	}
	r.sampleEvery.Store(int64(n))
}

// SlowOps returns the slow-op log contents, newest first. Nil on a nil
// registry.
func (r *Registry) SlowOps() []SlowOp {
	if r == nil {
		return nil
	}
	return r.slow.Snapshot()
}

// CounterValue is one counter in a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge in a Snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time copy of every instrument, sorted by name.
type Snapshot struct {
	Counters   []CounterValue      `json:"counters"`
	Gauges     []GaugeValue        `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
	SlowOps    []SlowOp            `json:"slow_ops"`
}

// Snapshot copies every instrument's current value. The registration
// mutex is held only to walk the instrument maps; the values themselves
// are atomic loads, so concurrent hot-path writers are never blocked.
// Returns a zero Snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	s := Snapshot{
		Counters:   make([]CounterValue, 0, len(r.counters)),
		Gauges:     make([]GaugeValue, 0, len(r.gauges)),
		Histograms: make([]HistogramSnapshot, 0, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, h.snapshot(name))
	}
	r.mu.Unlock()
	s.SlowOps = r.slow.Snapshot()
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
