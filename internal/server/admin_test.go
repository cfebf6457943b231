package server

// Admin-plane lifecycle: the regression tests for the leaked -admin-addr
// listener. Before AttachAdmin, alaskad served the admin mux with a bare
// http.Serve goroutine that nothing ever stopped — SIGTERM left the
// port held and any in-flight scrape severed. Shutdown must now drain
// the admin server: in-flight requests complete, then the port is free.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"alaska/internal/wal"
)

func TestAdminShutdownReleasesPortAndDrainsInflight(t *testing.T) {
	srv, _ := bootServer(t, BootConfig{Config: Config{Version: "admin-test"}, Backend: "malloc", Shards: 4})
	adminAddr := srv.AdminAddr()

	// The plane is up.
	resp, err := http.Get("http://" + adminAddr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	// Park a genuinely in-flight scrape: the trace endpoint holds its
	// handler for a full second, so Shutdown begins while it runs.
	type scrape struct {
		status int
		n      int
		err    error
	}
	inflight := make(chan scrape, 1)
	go func() {
		r, err := http.Get("http://" + adminAddr + "/debug/pprof/trace?seconds=1")
		if err != nil {
			inflight <- scrape{err: err}
			return
		}
		defer r.Body.Close()
		b, err := io.ReadAll(r.Body)
		inflight <- scrape{status: r.StatusCode, n: len(b), err: err}
	}()
	time.Sleep(300 * time.Millisecond) // the handler is now mid-trace

	if err := srv.Shutdown(3 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The in-flight scrape completed across the shutdown instead of
	// being severed.
	select {
	case got := <-inflight:
		if got.err != nil || got.status != 200 {
			t.Fatalf("in-flight scrape severed by shutdown: status=%d n=%d err=%v", got.status, got.n, got.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight scrape never completed")
	}

	// The port is actually released — the old code path leaked the
	// listener here and this re-listen failed with EADDRINUSE.
	ln, err := net.Listen("tcp", adminAddr)
	if err != nil {
		t.Fatalf("admin port still held after shutdown: %v", err)
	}
	ln.Close()

	// And the admin server is gone, not just unbound: a fresh scrape
	// finds nobody listening.
	if _, err := (&http.Client{Timeout: time.Second}).Get("http://" + adminAddr + "/healthz"); err == nil {
		t.Fatal("admin plane still serving after shutdown")
	}
}

// TestAdminServesMetricsWithWALStats spot-checks that the wal_* rows
// reach both stats surfaces when persistence is on — the CI smoke test
// greps them from `stats`, operators scrape them from /metrics.
func TestAdminServesMetricsWithWALStats(t *testing.T) {
	srv, _ := bootServer(t, BootConfig{Config: Config{Version: "admin-test"}, Backend: "malloc", Shards: 4,
		PackLog: &wal.Options{Dir: t.TempDir(), AuditInterval: -1}})

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.AdminAddr()))
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte("alaskad_wal_appended_records_total")) {
		t.Fatalf("metrics = %d, missing wal series in %d bytes", resp.StatusCode, len(body))
	}

	found := false
	for _, l := range srv.StatsSnapshot() {
		if l.Name == "wal_appended_records" {
			found = true
		}
	}
	if !found {
		t.Fatal("StatsSnapshot has no wal_appended_records row with WAL attached")
	}
}
