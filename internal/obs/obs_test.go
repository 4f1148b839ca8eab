package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("y")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

// TestNilSafety exercises every instrument and registry method on nil
// receivers: instrumented code must never branch on "obs enabled".
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Counter("a").Add(3)
	if r.Counter("a").Value() != 0 {
		t.Fatal("nil counter value != 0")
	}
	r.Gauge("b").Set(1)
	r.Gauge("b").Add(1)
	if r.Gauge("b").Value() != 0 {
		t.Fatal("nil gauge value != 0")
	}
	r.Histogram("c").Observe(time.Second)
	if r.Histogram("c").Count() != 0 {
		t.Fatal("nil histogram count != 0")
	}
	r.SetSlowOpThreshold(time.Millisecond)
	r.SetSampleEvery(1)
	if r.SlowOpThreshold() != 0 {
		t.Fatal("nil threshold != 0")
	}
	if ops := r.SlowOps(); ops != nil {
		t.Fatalf("nil SlowOps = %v", ops)
	}
	sp := r.StartOp("noop")
	if sp.Sampled() {
		t.Fatal("nil span claims sampled")
	}
	sp.Stage("s")()
	sp.Detailf("d %d", 1)
	sp.End()
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
	var l *SlowLog
	l.Add(SlowOp{})
	if l.Total() != 0 || l.Snapshot() != nil {
		t.Fatal("nil slowlog not inert")
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Add(1)
	r.Counter("alpha").Add(2)
	r.Gauge("mid").Set(3)
	r.Histogram("h").Observe(time.Millisecond)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "alpha" || s.Counters[1].Name != "zeta" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 3 {
		t.Fatalf("gauges wrong: %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 1 {
		t.Fatalf("histograms wrong: %+v", s.Histograms)
	}
}

func TestSpanRecordsHistogramAndSlowOp(t *testing.T) {
	r := NewRegistry()
	r.SetSlowOpThreshold(1) // everything is slow
	r.SetSampleEvery(1)     // everything is sampled
	sp := r.StartOp("scan")
	if !sp.Sampled() {
		t.Fatal("span not sampled with SampleEvery(1)")
	}
	done := sp.Stage("decode")
	time.Sleep(time.Millisecond)
	done()
	sp.Detailf("rows=%d", 42)
	sp.End()

	if n := r.Histogram("op.scan").Count(); n != 1 {
		t.Fatalf("op histogram count = %d, want 1", n)
	}
	ops := r.SlowOps()
	if len(ops) != 1 {
		t.Fatalf("slow ops = %d, want 1", len(ops))
	}
	op := ops[0]
	if op.Op != "scan" || op.Detail != "rows=42" {
		t.Fatalf("slow op = %+v", op)
	}
	if len(op.Stages) != 1 || op.Stages[0].Name != "decode" || op.Stages[0].Dur <= 0 {
		t.Fatalf("stages = %+v", op.Stages)
	}
	if c := r.Counter("obs.slowops").Value(); c != 1 {
		t.Fatalf("obs.slowops = %d, want 1", c)
	}
}

func TestSpanBelowThresholdSkipsSlowLog(t *testing.T) {
	r := NewRegistry()
	r.SetSlowOpThreshold(time.Hour)
	sp := r.StartOp("fast")
	sp.End()
	if len(r.SlowOps()) != 0 {
		t.Fatal("fast op reached slow log")
	}
	if r.Histogram("op.fast").Count() != 1 {
		t.Fatal("fast op missing from histogram")
	}
}

// TestSpanResolvesHistogramOnce: a registry-attached StartOp / End pair
// allocates the *Span and nothing else; the op's histogram is resolved
// once, not rebuilt from "op."+name on every End.
func TestSpanResolvesHistogramOnce(t *testing.T) {
	r := NewRegistry()
	r.SetSlowOpThreshold(time.Hour)
	// A name built at run time, as a caller's would be, so no constant
	// folding hides a per-call concatenation.
	name := strings.Repeat("x", 3)
	r.StartOp(name).End() // first use creates the histogram
	allocs := testing.AllocsPerRun(100, func() {
		r.StartOp(name).End()
	})
	if allocs > 1 {
		t.Fatalf("StartOp/End allocates %.0f times, want at most 1 (the span)", allocs)
	}
	if n := r.Histogram("op." + name).Count(); n != 102 {
		t.Fatalf("op histogram count = %d, want 102", n)
	}
}

func TestSpanSampling(t *testing.T) {
	r := NewRegistry()
	r.SetSampleEvery(4)
	sampled := 0
	for i := 0; i < 16; i++ {
		if r.StartOp("op").Sampled() {
			sampled++
		}
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 with period 4", sampled)
	}
	// Unsampled spans must not record stages.
	r2 := NewRegistry()
	r2.SetSampleEvery(0)
	r2.SetSlowOpThreshold(1)
	sp := r2.StartOp("op")
	sp.Stage("s")()
	sp.End()
	if ops := r2.SlowOps(); len(ops) != 1 || len(ops[0].Stages) != 0 {
		t.Fatalf("unsampled span recorded stages: %+v", ops)
	}
}

func TestSlowLogRingEviction(t *testing.T) {
	l := NewSlowLog(3)
	for i := 0; i < 5; i++ {
		l.Add(SlowOp{Op: string(rune('a' + i))})
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	// Newest first: e, d, c.
	want := []string{"e", "d", "c"}
	for i, op := range got {
		if op.Op != want[i] {
			t.Fatalf("slot %d = %q, want %q (full: %+v)", i, op.Op, want[i], got)
		}
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d, want 5", l.Total())
	}
}

// TestSlowLogConcurrentWriters hammers the ring from many goroutines
// while a reader snapshots, for the -race gate: the ring must neither
// race nor lose its shape (every retained entry is a real entry, total
// counts every Add).
func TestSlowLogConcurrentWriters(t *testing.T) {
	const writers = 8
	const perWriter = 200
	l := NewSlowLog(16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, op := range l.Snapshot() {
					if op.Op == "" {
						t.Error("snapshot returned a zero entry")
						return
					}
				}
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				l.Add(SlowOp{Op: "w", Dur: time.Duration(w*perWriter + i)})
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := l.Total(); got != writers*perWriter {
		t.Fatalf("total = %d, want %d", got, writers*perWriter)
	}
	if got := len(l.Snapshot()); got != 16 {
		t.Fatalf("retained %d, want 16", got)
	}
}

// TestRegistryConcurrent exercises concurrent registration + updates +
// snapshots for the -race gate.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	r.SetSlowOpThreshold(1)
	ops := []string{"op0", "op1", "op2", "op3"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(time.Duration(i) * time.Microsecond)
				// Several names, each first seen by racing goroutines.
				sp := r.StartOp(ops[i%len(ops)])
				sp.End()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	if got := r.Counter("c").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	for _, op := range ops {
		if got := r.Histogram("op." + op).Count(); got != 400 {
			t.Fatalf("op.%s histogram = %d, want 400", op, got)
		}
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	r.SetSlowOpThreshold(1)
	r.SetSampleEvery(1)
	r.Counter("pool.hits").Add(7)
	r.Gauge("pool.pinned").Set(2)
	sp := r.StartOp("bulkload")
	sp.Detailf("tuples=10")
	sp.End()
	var b strings.Builder
	if err := r.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"counters:", "pool.hits", "gauges:", "pool.pinned", "latencies:", "op.bulkload", "slow ops", "tuples=10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}
