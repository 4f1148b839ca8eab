package main

import (
	"encoding/json"
	"math"
	"math/rand"

	"repro/internal/relation"
	"repro/internal/server"
)

// class is a request class. Each class has exactly one generator, shared
// by every workload that issues it, so a class's latency is comparable
// across workloads.
type class int

const (
	classPoint class = iota // select on attr 0, 10 values wide (~100 rows at 1M tuples)
	classAgg                // count / aggregate / groupby on 5-25 % of attr 0
	classFull               // count on the last attribute: no index, every block decoded
	classWrite              // insert 60 % / delete 30 % / batch of 16 inserts 10 %
	numClasses
)

var classNames = [numClasses]string{"point", "agg", "full", "write"}

func (c class) String() string { return classNames[c] }

const (
	pointWidth = 10
	batchSize  = 16
	// mixSlots is the length of the class cycle: workload mixes are given
	// in twentieths and dealt from a shuffled cycle, not drawn per request,
	// so every run issues the classes in exactly the stated proportions
	// (a Bernoulli draw would move ops_per_s by the luck of how many full
	// scans a run happened to get).
	mixSlots = 20
)

// request is one generated request: its wire form and the typed value the
// oracle and the lower staircase levels read.
type request struct {
	class class
	q     *server.QueryRequest  // reads
	m     *server.MutateRequest // writes
	body  []byte
}

func (r *request) path() string {
	if r.m != nil {
		return "/v1/mutate"
	}
	return "/v1/query"
}

// stream is one client's seeded request sequence.
type stream struct {
	rs    *relSpec
	rng   *rand.Rand
	cycle [mixSlots]class
	n     int     // requests generated
	aggN  int     // agg requests generated
	kron  float64 // offset of the agg-width Kronecker sequence
	stats bool    // ask for "stats": true (traced run only)
	w     writer
}

// writer is the write class's state: the marker this client stamps on its
// tuples and the multiset of its tuples the engine should currently hold.
// It is advanced when a request is generated, which is exact as long as
// every write is acknowledged; an unacknowledged write is a failed
// operation, and the run is then incorrect anyway.
type writer struct {
	marker uint64
	live   []relation.Tuple
	n      int
}

// newStream deals the workload's mix (class counts summing to mixSlots)
// into a shuffled cycle. marker separates this stream's inserted tuples
// from every other stream's.
func newStream(rs *relSpec, mix [numClasses]int, seed int64, marker int, stats bool) *stream {
	st := &stream{rs: rs, rng: rand.New(rand.NewSource(seed)), stats: stats}
	st.w.marker = markerBase + uint64(marker)
	i := 0
	for c, n := range mix {
		for ; n > 0; n-- {
			st.cycle[i] = class(c)
			i++
		}
	}
	if i != mixSlots {
		panic("bench: workload mix does not sum to mixSlots")
	}
	st.rng.Shuffle(mixSlots, func(a, b int) { st.cycle[a], st.cycle[b] = st.cycle[b], st.cycle[a] })
	st.kron = st.rng.Float64()
	return st
}

// next generates the stream's next request.
func (st *stream) next() *request {
	c := st.cycle[st.n%mixSlots]
	st.n++
	r := &request{class: c}
	switch c {
	case classPoint:
		r.q = st.genPoint()
	case classAgg:
		r.q = st.genAgg()
	case classFull:
		r.q = st.genFull()
	case classWrite:
		r.m = st.genWrite()
	}
	var err error
	if r.q != nil {
		r.q.Stats = st.stats
		r.body, err = json.Marshal(r.q)
	} else {
		r.body, err = json.Marshal(r.m)
	}
	if err != nil {
		panic(err) // plain structs of integers and strings always marshal
	}
	return r
}

func (st *stream) genPoint() *server.QueryRequest {
	lo := uint64(st.rng.Int63n(int64(st.rs.usedRange(0)) - pointWidth + 1))
	return &server.QueryRequest{Op: server.OpSelect, Attr: 0, Lo: lo, Hi: lo + pointWidth - 1}
}

// genAgg cycles count / aggregate / groupby over an attribute-0 range
// whose width walks 5-25 % of the used domain on a golden-ratio Kronecker
// sequence: uniform like a random draw, but with far less run-to-run
// variance in the total work a run's agg requests add up to.
func (st *stream) genAgg() *server.QueryRequest {
	dom := float64(st.rs.usedRange(0))
	frac := 0.05 + 0.20*math.Mod(st.kron+float64(st.aggN)*0.6180339887498949, 1)
	width := uint64(math.Max(1, math.Round(frac*dom)))
	lo := uint64(st.rng.Int63n(int64(st.rs.usedRange(0) - width + 1)))
	q := &server.QueryRequest{Attr: 0, Lo: lo, Hi: lo + width - 1}
	switch st.aggN % 3 {
	case 0:
		q.Op = server.OpCount
	case 1:
		q.Op, q.AggAttr = server.OpAggregate, st.rs.aggAttr
	default:
		q.Op, q.AggAttr, q.GroupAttr = server.OpGroupBy, st.rs.aggAttr, st.rs.groupAttr
	}
	st.aggN++
	return q
}

func (st *stream) genFull() *server.QueryRequest {
	last := len(st.rs.sizes) - 1
	dom := st.rs.sizes[last]
	lo := uint64(st.rng.Int63n(int64(dom / 2)))
	return &server.QueryRequest{Op: server.OpCount, Attr: last, Lo: lo, Hi: lo + dom/4}
}

// genWrite deals insert / delete / batch 6:3:1. A delete always names a
// tuple this stream inserted earlier and has not deleted since, so every
// delete must report found; with nothing to delete it becomes an insert.
func (st *stream) genWrite() *server.MutateRequest {
	w := &st.w
	slot := w.n % 10
	w.n++
	switch {
	case slot >= 6 && slot < 9 && len(w.live) > 0:
		i := st.rng.Intn(len(w.live))
		tu := w.live[i]
		w.live[i] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
		return &server.MutateRequest{Op: server.OpDelete, Tuple: tu}
	case slot == 9:
		m := &server.MutateRequest{Op: server.OpBatch, Tuples: make([][]uint64, batchSize)}
		for i := range m.Tuples {
			m.Tuples[i] = st.newTuple()
		}
		return m
	default:
		return &server.MutateRequest{Op: server.OpInsert, Tuple: st.newTuple()}
	}
}

// newTuple draws a tuple like the generator's (each attribute inside its
// used range, so writes land all over the clustered order and code like
// base data) except for the marker, and records it as live.
func (st *stream) newTuple() relation.Tuple {
	tu := make(relation.Tuple, len(st.rs.sizes))
	for j := range tu {
		tu[j] = uint64(st.rng.Int63n(int64(st.rs.usedRange(j))))
	}
	tu[st.rs.groupAttr] = st.w.marker
	st.w.live = append(st.w.live, tu)
	return tu
}
