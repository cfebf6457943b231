package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// NewAdminHandler returns the admin-plane HTTP handler alaskad serves on
// -admin-addr — a separate socket from the memcached port, so operators
// can firewall it independently and a scrape storm can never occupy
// data-plane connection slots. Endpoints:
//
//	/metrics        Prometheus text exposition (see WriteMetrics)
//	/healthz        liveness probe ("ok" while the process serves)
//	/readyz         readiness: booting|replaying|ok|degraded, 503 on
//	                everything but ok, one detail line per subsystem
//	/debug/vars     expvar (Go runtime memstats and cmdline)
//	/debug/pprof/   the standard pprof index, profiles, and traces
//	/debug/slowops  the slow-op ring as JSON, newest first
//
// Liveness and readiness are deliberately split: a degraded node is
// alive (keep it, it is still serving its connections) but not ready
// (stop routing new traffic to it) — exactly the distinction
// orchestrator restart policies and load-balancer health checks need
// to be told apart.
func NewAdminHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.WriteMetrics(w) // a write error means the scraper went away; no one to tell
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		rep := s.cfg.Health.Report()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !rep.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		var b bytes.Buffer
		b.WriteString(rep.Status.String())
		b.WriteByte('\n')
		for _, sub := range rep.Subs {
			b.WriteString(sub.Name)
			b.WriteString(": ")
			b.WriteString(sub.State)
			if sub.Detail != "" {
				b.WriteString(" (")
				b.WriteString(sub.Detail)
				b.WriteString(")")
			}
			b.WriteByte('\n')
		}
		_, _ = w.Write(b.Bytes())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	// net/http/pprof registers on http.DefaultServeMux at init; route the
	// handlers explicitly so the admin mux works standalone (and nothing
	// else that touched DefaultServeMux leaks onto the admin port).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/slowops", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		ops := s.SlowOps()
		if ops == nil {
			ops = []SlowOp{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(ops)
	})
	return mux
}

// AttachAdmin serves the admin plane on ln under the server's
// lifecycle: Server.Shutdown drains it via http.Server.Shutdown, so
// in-flight scrapes complete and the port is released — the previous
// bare http.Serve leaked the listener (and whatever scrape it was
// serving) on SIGTERM. Call before Serve.
func (s *Server) AttachAdmin(ln net.Listener) {
	srv := &http.Server{Addr: ln.Addr().String(), Handler: NewAdminHandler(s)}
	s.admin = srv
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.cfg.Logger.Errorf("admin serve: %v", err)
		}
	}()
}

// AdminAddr returns the admin plane's bound address ("" before AttachAdmin).
func (s *Server) AdminAddr() string {
	if s.admin == nil {
		return ""
	}
	return s.admin.Addr
}
