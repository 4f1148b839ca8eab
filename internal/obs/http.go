package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Handler returns the opt-in debug endpoint for a registry:
//
//	/metrics        registry snapshot, text (default) or ?format=json
//	/slowops        slow-op log, JSON
//	/debug/pprof/   the standard net/http/pprof profiles
//
// It is mounted only when the operator asks for it (`avqdb serve`), never
// implicitly — the endpoint has no authentication and exposes runtime
// internals.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = snap.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = snap.WriteText(w)
	})
	mux.HandleFunc("/slowops", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		ops := r.SlowOps()
		if ops == nil {
			ops = []SlowOp{}
		}
		_ = enc.Encode(ops)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
