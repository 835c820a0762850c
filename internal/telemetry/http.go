package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// Server is the live run inspector: an HTTP server bound to a Registry
// and, optionally, an event Bus.
//
//	/             — endpoint index
//	/metrics.json — full Snapshot as JSON
//	/metrics      — Prometheus text exposition
//	/events       — live SSE stream of span/metric events (bus-backed)
//	/debug/pprof/ — the standard pprof handlers
type Server struct {
	lis net.Listener
	srv *http.Server
	bus *Bus

	closeOnce sync.Once
	closing   chan struct{}
}

// ServeWithExtra starts the inspector on addr (e.g. ":9090"; ":0" picks a
// free port) with an optional event bus and caller-mounted routes. It
// returns as soon as the listener is bound; the accept loop runs in a
// goroutine until Close or Shutdown. A nil bus makes /events report 404.
// Each extra entry is mounted at its path prefix and listed on the index
// page; the hook exists so higher layers (the run registry's /runs pages)
// can ride the inspector's listener without this package importing them.
func ServeWithExtra(addr string, reg *Registry, bus *Bus, extra map[string]http.Handler) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{lis: lis, bus: bus, closing: make(chan struct{})}
	s.srv = &http.Server{Handler: handler(reg, bus, s.closing, extra), ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(lis) //nolint:errcheck // ErrServerClosed after Close is the normal exit
	return s, nil
}

// Addr returns the bound address, e.g. "127.0.0.1:9090".
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close shuts the inspector down immediately, dropping in-flight requests
// and SSE streams.
func (s *Server) Close() error {
	s.markClosing()
	return s.srv.Close()
}

// Shutdown drains the inspector gracefully: attached SSE clients receive a
// terminal "shutdown" event and their streams are closed, then the HTTP
// server waits (up to ctx) for in-flight requests to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.markClosing()
	return s.srv.Shutdown(ctx)
}

// markClosing signals SSE handlers to send their terminal event and
// return; without it http.Server.Shutdown would wait forever on the
// infinite streams.
func (s *Server) markClosing() {
	s.closeOnce.Do(func() {
		s.bus.Publish(&BusEvent{Kind: "shutdown", T: time.Now().UnixNano()})
		close(s.closing)
	})
}

// Handler returns the inspector's routes without binding a listener — for
// embedding into an existing mux. The /events endpoint reports 404 (no
// bus); use ServeWithExtra for the streaming inspector.
func Handler(reg *Registry) http.Handler {
	return handler(reg, nil, nil, nil)
}

func handler(reg *Registry, bus *Bus, closing <-chan struct{}, extra map[string]http.Handler) http.Handler {
	mux := http.NewServeMux()
	extraPaths := make([]string, 0, len(extra))
	for path, h := range extra {
		mux.Handle(path, h)
		if trimmed := strings.TrimSuffix(path, "/"); trimmed != "" && trimmed != path {
			// "/runs/" also answers "/runs".
			mux.Handle(trimmed, h)
		}
		extraPaths = append(extraPaths, path)
	}
	sort.Strings(extraPaths)
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reg.Snapshot()) //nolint:errcheck // client gone is not actionable
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		WritePrometheus(w, reg.Snapshot()) //nolint:errcheck
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		if bus == nil {
			http.NotFound(w, r)
			return
		}
		serveSSE(w, r, bus, closing)
	})
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
		s := reg.Snapshot()
		fmt.Fprintf(w, "serd run inspector — uptime %.1fs\n\n", s.UptimeSeconds)
		fmt.Fprintln(w, "endpoints:")
		fmt.Fprintln(w, "  /metrics.json   JSON snapshot (counters, gauges, histograms, phases)")
		fmt.Fprintln(w, "  /metrics        Prometheus text exposition")
		if bus != nil {
			fmt.Fprintln(w, "  /events         live SSE stream (spans, metric deltas)")
		}
		for _, p := range extraPaths {
			fmt.Fprintf(w, "  %-15s mounted by the running tool\n", p)
		}
		fmt.Fprintln(w, "  /debug/pprof/   runtime profiles")
		fmt.Fprintf(w, "\n%d counters, %d gauges, %d histograms, %d phases recorded\n",
			len(s.Counters), len(s.Gauges), len(s.Histograms), len(s.Phases))
	})
	return mux
}
