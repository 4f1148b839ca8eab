package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// phase is what one closed-loop phase measured.
type phase struct {
	elapsed   float64 // seconds, first send to last reply
	attempted int
	failed    int // failed, refused or wrong-answer requests
	rejects   int // HTTP 429 among the failed
	lat       [numClasses][]time.Duration
	reqBytes  int64
	respBytes int64
	errs      []string // first few failures, for the report

	cpuS       float64 // process user+system CPU seconds (server and clients share the process)
	allocBytes uint64
	gcPauseNs  uint64
}

const maxReportedErrs = 5

func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < maxReportedErrs {
		p.errs = append(p.errs, err.Error())
	}
}

// merge adds o into p: a client's part into the phase's total, or a later
// phase of the same loop onto an earlier one.
func (p *phase) merge(o *phase) {
	p.elapsed += o.elapsed
	p.cpuS += o.cpuS
	p.allocBytes += o.allocBytes
	p.gcPauseNs += o.gcPauseNs
	p.attempted += o.attempted
	p.failed += o.failed
	p.rejects += o.rejects
	for c := range p.lat {
		p.lat[c] = append(p.lat[c], o.lat[c]...)
	}
	for _, e := range o.errs {
		if len(p.errs) < maxReportedErrs {
			p.errs = append(p.errs, e)
		}
	}
}

// sortLat puts every class's latencies in ascending order, as the
// quantile functions expect.
func (p *phase) sortLat() {
	for c := range p.lat {
		sort.Slice(p.lat[c], func(i, j int) bool { return p.lat[c][i] < p.lat[c][j] })
	}
}

// opsPerS is correct completed requests per second of the phase, start
// to last reply: a stall of the program anywhere in the phase lowers it.
func (p *phase) opsPerS() float64 { return per(float64(p.attempted-p.failed), p.elapsed) }

// exchange is one HTTP round trip: latency runs from just before the send
// until the whole reply body has been read; decoding and checking the
// answer happen afterwards, outside it.
func (in *instance) exchange(r *request, buf *bytes.Buffer) (status int, dur time.Duration, err error) {
	t0 := time.Now()
	resp, err := in.hc.Post(in.base+r.path(), "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close() //nolint:errcheck // body fully read
	return resp.StatusCode, time.Since(t0), err
}

// checkReply decodes a reply and holds it to the oracle.
func (in *instance) checkReply(r *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", r.class, r.path(), status, bytes.TrimSpace(body))
	}
	if r.q != nil {
		var resp server.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s: undecodable reply: %w", r.class, err)
		}
		return in.rd.ora.checkQuery(r.q, &resp, in.def.mix[classWrite] > 0)
	}
	var resp server.MutateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("write: undecodable reply: %w", err)
	}
	return checkMutate(r.m, &resp)
}

func checkMutate(m *server.MutateRequest, resp *server.MutateResponse) error {
	want := 1
	if m.Op == server.OpBatch {
		want = len(m.Tuples)
	}
	if resp.Op != m.Op || resp.Applied != want || (m.Op == server.OpDelete && !resp.Found) {
		return fmt.Errorf("%s: applied %d found %v, want %d applied", m.Op, resp.Applied, resp.Found, want)
	}
	return nil
}

// closedLoop drives the server from one goroutine per stream, each
// sending its next request only after the previous reply arrived, until d
// has passed; requests in flight at the deadline complete and count.
func (in *instance) closedLoop(streams []*stream, d time.Duration) *phase {
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) //nolint:errcheck // cannot fail for RUSAGE_SELF
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]phase, len(streams))
	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func(p *phase, st *stream) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				r := st.next()
				p.attempted++
				status, dur, err := in.exchange(r, &buf)
				if err == nil {
					err = in.checkReply(r, status, buf.Bytes())
				}
				if err != nil {
					if status == http.StatusTooManyRequests {
						p.rejects++
					}
					p.fail(err)
					continue
				}
				p.lat[r.class] = append(p.lat[r.class], dur)
			}
		}(&parts[i], st)
	}
	wg.Wait()
	total := &phase{elapsed: time.Since(start).Seconds()}
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1) //nolint:errcheck // cannot fail for RUSAGE_SELF
	runtime.ReadMemStats(&ms1)
	for i := range parts {
		total.merge(&parts[i])
	}
	total.sortLat()
	total.cpuS = tvSeconds(ru1.Utime) + tvSeconds(ru1.Stime) - tvSeconds(ru0.Utime) - tvSeconds(ru0.Stime)
	total.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	total.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	return total
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// quantileMs is the nearest-rank q-quantile of sorted latencies, in ms.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / 1e6
}

// medianFloat is the median of vs (which it sorts), 0 when empty.
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n := len(vs); n%2 == 0 {
		return (vs[n/2-1] + vs[n/2]) / 2
	}
	return vs[len(vs)/2]
}

// newStreams builds one request stream per client. Client c's stream is
// seeded seed*1000+c and stamps marker c on its writes.
func newStreams(def *workloadDef, seed int64, clients int) []*stream {
	streams := make([]*stream, clients)
	for c := range streams {
		streams[c] = newStream(def.rel, def.mix, seed*1000+int64(c), c, false)
	}
	return streams
}

// wantLen is the tuple count the engine must hold: the base relation plus
// what the writers hold live.
func (in *instance) wantLen(streams []*stream) int {
	n := in.rd.n
	for _, st := range streams {
		n += len(st.w.live)
	}
	return n
}

// finalChecks runs after the server drained: nothing may still be pinned,
// the tuple count must be the base relation plus what the writers hold
// live, and, when there were writers, the deep invariant check must pass
// and every acknowledged write must be there. Each check is one attempted
// operation in p; each discrepancy one failed.
func (in *instance) finalChecks(ctx context.Context, p *phase, streams []*stream) {
	p.attempted += 3
	if n := in.eng.PinnedFrames(); n != 0 {
		p.fail(fmt.Errorf("%d frames still pinned after drain", n))
	}
	if n := in.eng.LiveSnapshots(); n != 0 {
		p.fail(fmt.Errorf("%d snapshots still live after drain", n))
	}
	if got, want := in.eng.Len(), in.wantLen(streams); got != want {
		p.fail(fmt.Errorf("engine holds %d tuples, want %d", got, want))
	}
	if in.def.mix[classWrite] == 0 {
		return
	}
	p.attempted++
	if err := in.eng.Check(); err != nil {
		p.fail(fmt.Errorf("invariant check: %w", err))
	}
	in.checkAcked(ctx, p, in.eng, streams, "live engine")
}
