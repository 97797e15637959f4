package service

import (
	"net/http"
	"net/http/pprof"
)

// DebugHandler returns the debug mux mounted by `expresso serve
// -debug-addr`: the full net/http/pprof suite and three more renderings of
// the server's Snapshot. It is deliberately a separate handler so none of
// this is ever exposed on the public API listener.
//
//	GET /debug/pprof/          profile index
//	GET /debug/pprof/profile   30s CPU profile
//	GET /debug/pprof/{name}    heap, goroutine, block, mutex, ...
//	GET /debug/stats           runtime stats as JSON
//	GET /debug/bdd             per-manager BDD profiles (levels, watermark)
//	GET /debug/queue           queue depth, oldest-job age, per-baseline counts
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/stats", s.serve(false, func(sn *Snapshot) (int, any) { return http.StatusOK, sn.Runtime }))
	mux.HandleFunc("GET /debug/bdd", s.serve(true, (*Snapshot).profiles))
	mux.HandleFunc("GET /debug/queue", s.serve(false, func(sn *Snapshot) (int, any) { return http.StatusOK, sn.Queue }))
	return mux
}
