package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"

	"eleos/internal/trace"
)

// DebugHandler returns the live debug endpoint eleosd mounts behind
// -debug-addr. It is deliberately separate from the netproto data plane:
// an operator points a browser (or curl, or chrome://tracing) at it
// without speaking the binary protocol, and a wedged write path does not
// take the diagnostics down with it — every route reads lock-free
// snapshots.
//
//	/metrics        plain-text exposition of the controller's registry
//	/debug/trace    flight-recorder dump as Chrome trace_event JSON
//	/debug/pprof/*  the standard runtime profiles
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetricsText)
	mux.HandleFunc("/debug/trace", s.serveTraceChrome)
	// net/http/pprof registers on DefaultServeMux at import; mount its
	// handlers explicitly so this mux works without the default one.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "eleosd debug endpoint\n\n/metrics\n/debug/trace\n/debug/pprof/\n")
	})
	return mux
}

// serveMetricsText renders the snapshot stats_full carries in Prometheus
// text exposition format (see WritePrometheus): # HELP/# TYPE headers and
// the path-encoded tenant/source/channel dimensions lifted into labels.
// The snapshot's health census takes the controller lock.
func (s *Server) serveMetricsText(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, s.ctl.MetricsSnapshot())
}

// serveTraceChrome dumps the flight recorder as Chrome trace_event JSON,
// loadable directly in chrome://tracing or Perfetto.
func (s *Server) serveTraceChrome(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := trace.ChromeJSON(w, s.ctl.TraceDump()); err != nil {
		// Headers are gone; all we can do is cut the body short.
		return
	}
}
