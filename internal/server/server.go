package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config assembles a Server.
type Config struct {
	// Engine is the storage engine to front (required).
	Engine Engine
	// Obs receives the server's instruments (admission gauges, queue-wait
	// and per-endpoint latency histograms) and, with Debug, backs the
	// /metrics endpoint. Nil serves un-instrumented.
	Obs *obs.Registry
	// Limits sizes the admission lanes; zero values take defaults.
	Limits Limits
	// DefaultTimeout bounds a request that names no timeout_ms (default
	// 10s). Every request runs under some deadline: an engine stall must
	// release its admission token eventually or the lane leaks capacity.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts (default 60s).
	MaxTimeout time.Duration
	// Debug mounts the observability endpoints (/metrics, /slowops,
	// /debug/pprof) from Obs on the same mux. Off by default: they are
	// unauthenticated runtime internals.
	Debug bool
}

// Server is the concurrent query front-end: HTTP/JSON over the Engine
// seam with admission control and graceful drain.
//
//	POST /v1/query   QueryRequest  → QueryResponse
//	POST /v1/mutate  MutateRequest → MutateResponse
//	GET  /healthz    "ok", or 503 once draining
//	GET  /statusz    engine summary JSON
type Server struct {
	cfg      Config
	eng      Engine
	lim      *Limiter
	mux      *http.ServeMux
	hs       *http.Server
	draining atomic.Bool

	queryLat  *obs.Histogram
	mutateLat *obs.Histogram
	requests  *obs.Counter
	failures  *obs.Counter
}

// New builds a server around cfg.Engine. It does not listen yet; use
// Serve/ListenAndServe, or mount Handler on an existing listener.
func New(cfg Config) *Server {
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	s := &Server{
		cfg:       cfg,
		eng:       cfg.Engine,
		lim:       NewLimiter(cfg.Limits, cfg.Obs),
		mux:       http.NewServeMux(),
		queryLat:  cfg.Obs.Histogram("server.query_latency"),
		mutateLat: cfg.Obs.Histogram("server.mutate_latency"),
		requests:  cfg.Obs.Counter("server.requests"),
		failures:  cfg.Obs.Counter("server.failures"),
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/mutate", s.handleMutate)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /statusz", s.handleStatus)
	if cfg.Debug && cfg.Obs != nil {
		dbg := obs.Handler(cfg.Obs)
		s.mux.Handle("GET /metrics", dbg)
		s.mux.Handle("GET /slowops", dbg)
		s.mux.Handle("GET /debug/pprof/", dbg)
	}
	s.hs = &http.Server{Handler: s.mux}
	return s
}

// Handler exposes the routing mux (tests drive it through httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. A closed-server error
// is normal termination and reported as nil.
func (s *Server) Serve(l net.Listener) error {
	err := s.hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains gracefully: new requests are refused with 503 (the
// draining flag flips before the listener closes, so racing requests see
// it), inflight requests finish under their own deadlines, and once the
// last one completes the engine is asserted clean — zero pinned frames
// and zero live snapshots, i.e. no request leaked a resource on any
// path, cancelled and timed-out ones included. The engine itself is NOT
// closed: that stays the caller's duty (it may want a final checkpoint).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if err := s.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	if r, w := s.lim.Inflight(); r != 0 || w != 0 {
		return fmt.Errorf("server: drain finished with %d reads and %d writes still admitted", r, w)
	}
	if n := s.eng.PinnedFrames(); n != 0 {
		return fmt.Errorf("server: drain leaked %d pinned frames", n)
	}
	if n := s.eng.LiveSnapshots(); n != 0 {
		return fmt.Errorf("server: drain leaked %d live snapshots", n)
	}
	return nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// requestCtx applies the per-request deadline: the client's timeout_ms
// clamped to MaxTimeout, or DefaultTimeout when absent. It layers on the
// connection context, so a dropped client cancels execution at the next
// block boundary too.
func (s *Server) requestCtx(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Inc()
	var req QueryRequest
	if err := s.admitError(r); err != nil {
		s.writeError(w, err)
		return
	}
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxRequestBytes), &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := req.Validate(s.eng.Schema()); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	release, err := s.lim.AcquireRead(ctx)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := req.Run(ctx, s.eng)
	release()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeBody(w, resp)
	s.queryLat.Observe(time.Since(start))
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Inc()
	var req MutateRequest
	if err := s.admitError(r); err != nil {
		s.writeError(w, err)
		return
	}
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxRequestBytes), &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := req.Validate(s.eng.Schema()); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	release, err := s.lim.AcquireWrite(ctx)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := req.Run(ctx, s.eng)
	release()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeBody(w, resp)
	s.mutateLat.Observe(time.Since(start))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, ErrDraining)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// statusz is the engine summary: what `avqdb stats` prints, as JSON.
type statusz struct {
	Schema   string `json:"schema"`
	Tuples   int    `json:"tuples"`
	Blocks   int    `json:"blocks"`
	Draining bool   `json:"draining"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, statusz{
		Schema:   s.eng.Schema().String(),
		Tuples:   s.eng.Len(),
		Blocks:   s.eng.NumBlocks(),
		Draining: s.draining.Load(),
	})
}

// admitError rejects work wholesale once draining; admission control
// proper happens after decode, per lane.
func (s *Server) admitError(r *http.Request) error {
	if s.draining.Load() {
		return ErrDraining
	}
	return nil
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// retryAfterSeconds is the backoff hint sent with 429/503 responses.
const retryAfterSeconds = 1

func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.failures.Inc()
	code := HTTPStatus(err)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(errorBody{Error: err.Error(), Code: code})
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
