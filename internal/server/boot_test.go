package server

// Boot-path tests: the sequence alaskad runs at startup — backend, store,
// pack-log replay, listeners, ready — driven in process.

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"alaska/internal/fault"
	"alaska/internal/wal"
)

// bootServer boots c through Boot on loopback ports, serves it, and shuts
// it down when the test ends.
func bootServer(t *testing.T, c BootConfig) (*Server, wal.ReplayStats) {
	t.Helper()
	c.Addr, c.AdminAddr = "127.0.0.1:0", "127.0.0.1:0"
	srv, rs, err := Boot(c)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Shutdown(time.Second) })
	return srv, rs
}

// persistOn is Defaults on backend with the pack log in dir.
func persistOn(backend, dir string) BootConfig {
	c := Defaults()
	c.Backend, c.Shards, c.PackLog.Dir = backend, 4, dir
	return c
}

// TestBootWarmRestart stores n keys on each backend with the pack log on,
// shuts down, and boots again on the same directory: the replay applies
// every set, every key reads back, and /readyz is 200.
func TestBootWarmRestart(t *testing.T) {
	const n = 200
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			srv, _ := bootServer(t, persistOn(backend, dir))
			cl, err := Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for i := range n {
				if err := cl.Set(fmt.Sprintf("k%03d", i), 0, fmt.Appendf(nil, "v%03d", i)); err != nil {
					t.Fatal(err)
				}
			}
			cl.Close()
			_ = srv.Shutdown(time.Second)

			srv, rs := bootServer(t, persistOn(backend, dir))
			if rs.Sets != n || rs.TornRecords != 0 || rs.CrcErrors != 0 {
				t.Fatalf("replay: %d sets, %d torn, %d crc errors; want %d, 0, 0", rs.Sets, rs.TornRecords, rs.CrcErrors, n)
			}
			if cl, err = Dial(srv.Addr()); err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i := range n {
				v, _, ok, err := cl.Get(fmt.Sprintf("k%03d", i))
				if want := fmt.Sprintf("v%03d", i); err != nil || !ok || string(v) != want {
					t.Fatalf("get k%03d = %q %v %v after the restart, want %q", i, v, ok, err, want)
				}
			}
			if code, body := readyzGet(t, srv.AdminAddr()); code != http.StatusOK {
				t.Fatalf("readyz = %d %q after the restart, want 200", code, body)
			}
		})
	}
}

// TestBootListenFailureClosesLog: a Boot whose listen fails after its pack
// log has opened, replayed and started returns the error and closes the
// log, so the next Boot on the directory replays it cleanly.
func TestBootListenFailureClosesLog(t *testing.T) {
	dir := t.TempDir()
	srv, _ := bootServer(t, persistOn("malloc", dir))
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Set("k", 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	_ = srv.Shutdown(time.Second)

	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	// The close rule only counts: it fires on the log's first file close.
	fs := fault.NewScriptFS(nil, fault.Rule{Op: fault.OpClose, Times: 1})
	c := persistOn("malloc", dir)
	c.Addr, c.PackLog.FS = taken.Addr().String(), fs
	if srv, _, err := Boot(c); err == nil || !strings.HasPrefix(err.Error(), "listen: ") {
		if err == nil {
			_ = srv.Shutdown(time.Second)
		}
		t.Fatalf("Boot on taken address %s: %v, want a listen error", c.Addr, err)
	}
	if fs.Injected() != 1 {
		t.Fatal("the failed Boot left its pack-log segment open")
	}

	if _, rs := bootServer(t, persistOn("malloc", dir)); rs.Sets != 1 || rs.TornRecords != 0 || rs.CrcErrors != 0 {
		t.Fatalf("replay after the failed boot: %+v, want 1 set, clean", rs)
	}
}
