package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/server"
)

// The layer staircase. Tracing lives in the benchmark's own files, at the
// two seams the engine offers to code outside it: the server.Engine
// interface the server is handed, and the storage.FS the engine opens its
// files through. The traced run wraps both, replays a prefix of the
// workload's request stream one request at a time over real HTTP, and
// records a span around the round trip, around the Engine call inside it
// and around every file operation inside that. All of these belong to one
// execution of the request, so a step can never be longer than the step
// that contains it.
//
//	http                       the round trip, timed by the client
//	└ engine                   the Engine method the server called
//	  ├ storage.read|write|sync|meta   file operations on page files and page objects
//	  ├ wal.write|sync|meta            file operations on WAL segments
//	  └ core.decode            (replay) decoding exactly the blocks the request read
//
// The codec has no seam: the block store calls it directly. Its share is
// measured by a replay: right after a read request, the harness decodes
// the blocks the request decoded (found on the twin by the executor's
// fence rule, with the decoder the executor's path uses) from private
// copies of their coded streams, several times, and records the fastest
// pass as a span under the request's engine span. The engine's own
// per-request statistics, returned on the wire, must agree with the
// harness on how many blocks were read and how; a disagreement is a
// failed operation, so a change to the executor cannot skew the replay
// unnoticed. Writes have no replay: their codec time stays in the engine
// layer.

// Replay quotas: the first lightQuota point/write and heavyQuota agg/full
// requests of the staircase's stream, or as many as the time budget allows.
const (
	lightQuota = 2000
	heavyQuota = 200
	// stairMarker is the write marker of the staircase's stream, clear of
	// the closed loop's clients (at most maxClients) that wrote to the
	// same engine before it.
	stairMarker = 50
	// The decode replay is pure computation on private memory, so whatever
	// makes one pass slower than another is the host. It runs at least
	// minDecodePasses times and until its two fastest passes agree within
	// decodeAgree (a slow spell of the host outlasts three passes of a
	// small request), at most maxDecodePasses times; the fastest counts.
	minDecodePasses = 3
	maxDecodePasses = 5
	decodeAgree     = 1.03
)

// replayed is what one replayed request left behind besides its spans.
type replayed struct {
	Class     string            `json:"class"`
	Op        string            `json:"op"`
	Root      int               `json:"root_span"`
	Wire      *server.StatsJSON `json:"wire_stats,omitempty"`
	ReqBytes  int               `json:"req_bytes"`
	RespBytes int               `json:"resp_bytes"`
	// Rows is how many rows the decode replay produced: what the request
	// examined. Matches is how many of them it returned or folded.
	Rows    int `json:"rows_examined"`
	Matches int `json:"matches"`
	// DecodePasses is how many passes the decode replay took to settle.
	DecodePasses int `json:"decode_passes,omitempty"`
	// JSON costs measured beside the tree (they are inside the http span).
	JSONEncNs int64 `json:"json_encode_ns"`
	JSONDecNs int64 `json:"json_decode_ns"`
	class     class
}

// staircase replays requests against the served engine of a traced run.
type staircase struct {
	in    *instance
	tw    *twin
	snaps []*blockstore.Snapshot // one per twin part, held for the whole replay
	reqs  []replayed
	p     *phase // failures found while replaying

	arenas  []*core.Arena // one per twin part
	streams [][]byte      // coded-stream buffers of the decode replay
	httpBuf bytes.Buffer
	flat    bool
	weights []uint64
}

func newStaircase(in *instance, tw *twin, p *phase) *staircase {
	sc := &staircase{in: in, tw: tw, p: p}
	sc.weights, sc.flat = in.rd.schema.FlatWeights()
	for _, part := range tw.parts {
		sc.snaps = append(sc.snaps, part.store.Snapshot())
		sc.arenas = append(sc.arenas, core.NewArena())
	}
	in.tr.t0 = time.Now()
	return sc
}

// run replays until the quotas are met or budget has passed.
func (sc *staircase) run(seed int64, budget time.Duration) {
	def := sc.in.def
	st := newStream(def.rel, def.mix, seed*1000, stairMarker, true)
	light, heavy := lightQuota, heavyQuota
	if def.mix[classPoint]+def.mix[classWrite] == 0 {
		light = 0
	}
	if def.mix[classAgg]+def.mix[classFull] == 0 {
		heavy = 0
	}
	sc.in.tr.on.Store(true)
	defer sc.in.tr.on.Store(false)
	deadline := time.Now().Add(budget)
	for (light > 0 || heavy > 0) && time.Now().Before(deadline) {
		r := st.next()
		quota := &light
		if r.class == classAgg || r.class == classFull {
			quota = &heavy
		}
		if *quota == 0 {
			continue
		}
		*quota--
		sc.p.attempted++
		if err := sc.replay(r); err != nil {
			sc.p.fail(fmt.Errorf("staircase request %d: %w", len(sc.reqs), err))
		}
	}
	for _, sn := range sc.snaps {
		sn.Release()
	}
}

// jsonCosts times the server's two JSON steps on this request's own
// bytes: the strict decode of the request body and the encode of the
// response value.
func jsonCosts(rec *replayed, body []byte, into, resp any) {
	t0 := time.Now()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	dec.Decode(into) //nolint:errcheck // the server already accepted these bytes
	t1 := time.Now()
	json.NewEncoder(io.Discard).Encode(resp) //nolint:errcheck // io.Discard cannot fail
	rec.JSONDecNs, rec.JSONEncNs = int64(t1.Sub(t0)), int64(time.Since(t1))
}

// replay sends one request over HTTP with the tracer recording, holds the
// answer to the oracle, and, for a read, runs the decode replay.
func (sc *staircase) replay(r *request) error {
	tr := sc.in.tr
	rec := replayed{Class: r.class.String(), class: r.class}
	defer func() { sc.reqs = append(sc.reqs, rec) }()
	root := tr.beginRequest(len(sc.reqs))
	status, _, err := sc.in.exchange(r, &sc.httpBuf)
	tr.end(root)
	if err != nil {
		return err
	}
	body := sc.httpBuf.Bytes()
	rec.Root, rec.ReqBytes, rec.RespBytes = root, len(r.body), len(body)
	if err := sc.in.checkReply(r, status, body); err != nil {
		return err
	}
	if r.m != nil {
		rec.Op = r.m.Op
		var wire server.MutateResponse
		if err := json.Unmarshal(body, &wire); err != nil {
			return err
		}
		jsonCosts(&rec, r.body, new(server.MutateRequest), &wire)
		return nil
	}
	rec.Op = r.q.Op
	var wire server.QueryResponse
	if err := json.Unmarshal(body, &wire); err != nil {
		return err
	}
	jsonCosts(&rec, r.body, new(server.QueryRequest), &wire)
	if wire.Stats == nil {
		return fmt.Errorf("%s: the reply carries no stats", r.q.Op)
	}
	rec.Wire, rec.Matches = wire.Stats, wire.Stats.Matches
	return sc.decodeReplay(r.q, &rec)
}

// blockRef is one twin block a request reads after fence pruning.
type blockRef struct {
	part, idx int
	straddle  bool // the range ends inside the block
}

// touchedBlocks applies the executor's fence rule: a predicate on
// attribute 0 prunes the blocks outside the range; any other reads all.
func (sc *staircase) touchedBlocks(q *server.QueryRequest) []blockRef {
	var out []blockRef
	for p, sn := range sc.snaps {
		for i := 0; i < sn.NumBlocks(); i++ {
			b := blockRef{part: p, idx: i}
			if q.Attr == 0 {
				f := sn.Fence(i)
				if f.First[0] > q.Hi {
					break
				}
				if f.Last[0] < q.Lo {
					continue
				}
				b.straddle = f.First[0] < q.Lo || f.Last[0] > q.Hi
			}
			out = append(out, b)
		}
	}
	return out
}

// partWork is the decoding one twin part (one shard) owes a request.
type partWork struct{ whole, partial [][]byte }

// decodeReplay finds the blocks the request read, checks the engine's own
// account of the request against that, and times their decoding.
func (sc *staircase) decodeReplay(q *server.QueryRequest, rec *replayed) error {
	// The executor's two read paths: whole phi slabs for a fold over a flat
	// schema, tuples otherwise, and then only the qualifying span of a
	// block the range ends in.
	batch := sc.flat && q.Op != server.OpSelect
	touched := sc.touchedBlocks(q)
	work := make([]partWork, len(sc.snaps))
	partials := 0
	for i, b := range touched {
		// Private copies, in buffers kept from request to request: the
		// replay itself should not feed the garbage collector.
		if i == len(sc.streams) {
			sc.streams = append(sc.streams, nil)
		}
		stream, err := sc.snaps[b.part].ReadStreamInto(b.idx, sc.streams[i][:0])
		if err != nil {
			return err
		}
		sc.streams[i] = stream
		w := &work[b.part]
		if b.straddle && !batch {
			w.partial = append(w.partial, stream)
			partials++
		} else {
			w.whole = append(w.whole, stream)
		}
	}
	st := rec.Wire
	// Once writers have split the engine's blocks the twin's are no longer
	// theirs: there the replay is an approximation and nothing to check.
	if sc.in.def.mix[classWrite] == 0 {
		wantBatch := 0
		if batch {
			wantBatch = len(touched)
		}
		if sc.in.db != nil {
			// shard.DB folds its shards' stats without the batch counts.
			wantBatch = st.BatchBlocks
		}
		if st.BlocksRead+st.CacheHits != len(touched) || st.PartialDecodes != partials || st.BatchBlocks != wantBatch {
			return fmt.Errorf("%s [%d,%d] on attr %d: the engine read %d blocks (+%d cached, %d partial, %d batch), the harness expects %d (%d partial, %d batch): the decode replay no longer mirrors the executor",
				q.Op, q.Lo, q.Hi, q.Attr, st.BlocksRead, st.CacheHits, st.PartialDecodes, st.BatchBlocks, len(touched), partials, wantBatch)
		}
	}
	// A block the decoded-block cache served was not decoded.
	for hits, p := st.CacheHits, 0; hits > 0 && p < len(work); p++ {
		n := min(hits, len(work[p].whole))
		work[p].whole = work[p].whole[n:]
		hits -= n
	}

	var best, second time.Duration // the two fastest passes so far
	var t0 time.Time
	for pass := 0; pass < maxDecodePasses; pass++ {
		if pass >= minDecodePasses && float64(second) <= float64(best)*decodeAgree {
			break
		}
		start := time.Now()
		rows, err := sc.decodePass(q, batch, work)
		d := time.Since(start)
		if err != nil {
			return err
		}
		rec.DecodePasses++
		switch {
		case pass == 0:
			best, t0, rec.Rows = d, start, rows
		case d < best:
			best, second, t0 = d, best, start
		case pass == 1 || d < second:
			second = d
		}
	}
	tr := sc.in.tr
	tr.mu.Lock()
	id := tr.open("core.decode", tr.last)
	tr.spans[id].Replay = true
	tr.spans[id].Start = int64(t0.Sub(tr.t0))
	tr.spans[id].End = tr.spans[id].Start + int64(best)
	tr.mu.Unlock()
	return nil
}

// decodePass decodes every part's streams once. Parts are shards, and a
// scatter reads its live shards concurrently, at most GOMAXPROCS at a
// time; so does the pass, or its time could not be set against the span
// of the Engine call that contained the same work.
func (sc *staircase) decodePass(q *server.QueryRequest, batch bool, work []partWork) (int, error) {
	var live []int
	for p := range work {
		if len(work[p].whole)+len(work[p].partial) > 0 {
			live = append(live, p)
		}
	}
	if len(live) == 1 {
		return sc.decodePart(q, batch, work[live[0]], sc.arenas[live[0]])
	}
	rows := make([]int, len(work))
	errs := make([]error, len(work))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, p := range live {
		wg.Add(1)
		sem <- struct{}{}
		go func(p int) {
			defer wg.Done()
			rows[p], errs[p] = sc.decodePart(q, batch, work[p], sc.arenas[p])
			<-sem
		}(p)
	}
	wg.Wait()
	total := 0
	for p := range work {
		total += rows[p]
	}
	return total, errors.Join(errs...)
}

// decodePart decodes one part's streams the way the executor's path does.
func (sc *staircase) decodePart(q *server.QueryRequest, batch bool, w partWork, arena *core.Arena) (rows int, err error) {
	s := sc.in.rd.schema
	for _, stream := range w.whole {
		arena.Reset()
		if batch {
			phis, err := core.DecodeBlockPhis(s, stream, arena)
			if err != nil {
				return rows, err
			}
			rows += len(phis)
			continue
		}
		tuples, err := core.DecodeBlockArena(s, stream, arena)
		if err != nil {
			return rows, err
		}
		rows += len(tuples)
	}
	for _, stream := range w.partial {
		arena.Reset()
		var from, to int
		if sc.flat {
			w0 := sc.weights[0]
			from, to, err = core.PhiSpan(s, stream, q.Lo*w0, q.Hi*w0+(w0-1), arena)
		} else {
			from, err = core.SearchBlockArena(s, stream, func(tu relation.Tuple) bool { return tu[0] >= q.Lo }, arena)
			if err == nil {
				to, err = core.SearchBlockArena(s, stream, func(tu relation.Tuple) bool { return tu[0] > q.Hi }, arena)
			}
		}
		if err != nil {
			return rows, err
		}
		if from >= to {
			continue
		}
		span, err := core.DecodeTupleSpanArena(s, stream, from, to, arena)
		if err != nil {
			return rows, err
		}
		rows += len(span)
	}
	return rows, nil
}
