package obs

import (
	"fmt"
	"time"
)

// Span traces one public operation (a bulk load, a range select, a
// compaction). Every span records its total duration into the
// "op.<name>" histogram and, when it exceeds the registry's slow-op
// threshold, lands in the slow-op log. One span in every sampleEvery is
// additionally stage-sampled: its Stage calls record a per-stage timing
// breakdown that travels with the slow-op entry. Unsampled spans pay only
// a boolean check per Stage call.
//
// A nil *Span (from a nil registry) no-ops everywhere, so callers never
// branch on whether observability is enabled.
type Span struct {
	reg     *Registry
	op      string
	hist    *Histogram // the "op.<name>" histogram, resolved at StartOp
	start   time.Time
	sampled bool
	stages  []StageTiming
	detail  string
}

// StartOp opens a span for the named operation. Returns nil on a nil
// registry.
func (r *Registry) StartOp(op string) *Span {
	if r == nil {
		return nil
	}
	sp := &Span{reg: r, op: op, hist: r.opHistogram(op), start: time.Now()}
	if every := r.sampleEvery.Load(); every > 0 {
		sp.sampled = r.opSeq.Add(1)%every == 0
	}
	return sp
}

// Sampled reports whether this span carries a stage breakdown. Callers
// can use it to skip building expensive detail strings.
func (sp *Span) Sampled() bool {
	return sp != nil && sp.sampled
}

// Stage starts a named stage and returns a func that ends it. On
// unsampled spans both halves are no-ops. Typical use:
//
//	done := sp.Stage("encode")
//	... work ...
//	done()
func (sp *Span) Stage(name string) func() {
	if sp == nil || !sp.sampled {
		return func() {}
	}
	t0 := time.Now()
	return func() {
		sp.stages = append(sp.stages, StageTiming{Name: name, Dur: time.Since(t0)})
	}
}

// Detailf attaches a formatted annotation (e.g. row counts, key range)
// that travels with the slow-op entry. The last call wins.
func (sp *Span) Detailf(format string, args ...any) {
	if sp == nil {
		return
	}
	sp.detail = fmt.Sprintf(format, args...)
}

// End closes the span: the duration is recorded into the op histogram,
// and the op is appended to the slow-op log if it met the threshold.
// Safe to call on a nil span; must not be called twice.
func (sp *Span) End() { sp.EndWith(nil) }

// EndWith is End whose slow-op annotation, when detail is non-nil, is
// detail's result instead of Detailf's. detail runs only when the op
// lands in the slow-op log, so a fast op formats nothing.
func (sp *Span) EndWith(detail func() string) {
	if sp == nil {
		return
	}
	d := time.Since(sp.start)
	sp.hist.Observe(d)
	thr := sp.reg.slowThreshold.Load()
	if thr > 0 && int64(d) >= thr {
		sp.reg.Counter("obs.slowops").Inc()
		if detail != nil {
			sp.detail = detail()
		}
		sp.reg.slow.Add(SlowOp{
			Op:     sp.op,
			Start:  sp.start,
			Dur:    d,
			Detail: sp.detail,
			Stages: sp.stages,
		})
	}
}
