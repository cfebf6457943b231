package server

// Readiness-plane tests: /readyz must track the boot sequence
// (booting → replaying → ok) and flip to 503 degraded — then back —
// when the WAL loses and regains its disk. /healthz stays a bare
// liveness "ok" throughout; the split is the contract load balancers
// rely on.

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"alaska/internal/fault"
	"alaska/internal/health"
	"alaska/internal/kv"
	"alaska/internal/wal"
)

// readyzGet fetches /readyz and returns (status code, body).
func readyzGet(t *testing.T, adminAddr string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + adminAddr + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

func TestReadyzBootPhases(t *testing.T) {
	reg := health.New() // Booting
	store := kv.NewShardedStore(kv.NewMallocBackend(), 4, 0)
	srv := New(store, Config{Addr: "127.0.0.1:0", Version: "readyz-test", Health: reg})
	if err := srv.Listen(); err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = srv.Serve() }()
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("admin listen: %v", err)
	}
	srv.AttachAdmin(aln)
	defer srv.Shutdown(time.Second)
	addr := aln.Addr().String()

	if code, body := readyzGet(t, addr); code != http.StatusServiceUnavailable || !strings.HasPrefix(body, "booting") {
		t.Fatalf("booting phase: readyz = %d %q, want 503 booting", code, body)
	}
	reg.StartReplay()
	if code, body := readyzGet(t, addr); code != http.StatusServiceUnavailable || !strings.HasPrefix(body, "replaying") {
		t.Fatalf("replay phase: readyz = %d %q, want 503 replaying", code, body)
	}
	reg.Ready()
	if code, body := readyzGet(t, addr); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("ready: readyz = %d %q, want 200 ok", code, body)
	}

	// Liveness never wavered.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 regardless of readiness", resp.StatusCode)
	}
}

// TestReadyzFlipsDegradedAndBack runs the whole loop an operator would
// see: scripted sticky fsync failures push the WAL into degraded,
// /readyz answers 503 with a "wal: degraded" detail line, the fault
// clears, the recovery probe lands, and /readyz returns to 200 ok.
func TestReadyzFlipsDegradedAndBack(t *testing.T) {
	rules, err := fault.ParseScript("sync:after=1:sticky:err=eio")
	if err != nil {
		t.Fatalf("parse script: %v", err)
	}
	fs := fault.NewScriptFS(nil, rules...)
	srv, _ := bootServer(t, BootConfig{Config: Config{Version: "readyz-test"}, Backend: "malloc", Shards: 4, PackLog: &wal.Options{
		Dir:           t.TempDir(),
		FsyncInterval: 2 * time.Millisecond,
		AuditInterval: -1,
		DegradeAfter:  2,
		ProbeInterval: 5 * time.Millisecond,
		FS:            fs,
	}})
	wlog, addr := srv.cfg.WAL, srv.AdminAddr()

	// Healthy WAL: ready, with a per-subsystem detail line.
	if code, body := readyzGet(t, addr); code != http.StatusOK || !strings.Contains(body, "wal: ok") {
		t.Fatalf("healthy: readyz = %d %q, want 200 with wal: ok", code, body)
	}

	// Drive sets through the data plane until the sticky fsync failures
	// burn the degradation budget.
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; !wlog.Degraded(); i++ {
		if time.Now().After(deadline) {
			t.Fatal("WAL never degraded under sticky fsync faults")
		}
		if err := cl.Set(fmt.Sprintf("k%04d", i), 0, []byte("v")); err != nil {
			t.Fatalf("set: %v", err)
		}
		time.Sleep(time.Millisecond)
	}

	code, body := readyzGet(t, addr)
	if code != http.StatusServiceUnavailable || !strings.HasPrefix(body, "degraded") || !strings.Contains(body, "wal: degraded") {
		t.Fatalf("degraded: readyz = %d %q, want 503 degraded with wal detail", code, body)
	}

	// Disk comes back: the probe opens a fresh segment and readiness
	// recovers without a restart.
	fs.Clear()
	for deadline = time.Now().Add(5 * time.Second); wlog.Degraded(); {
		if time.Now().After(deadline) {
			t.Fatal("WAL never recovered after faults cleared")
		}
		time.Sleep(time.Millisecond)
	}
	if code, body := readyzGet(t, addr); code != http.StatusOK || !strings.Contains(body, "wal: ok") {
		t.Fatalf("recovered: readyz = %d %q, want 200 with wal: ok", code, body)
	}
	ws := wlog.Stats()
	if ws.DegradedEntries < 1 || ws.Recoveries < 1 {
		t.Fatalf("stats: degraded_entries=%d recoveries=%d, want ≥1 each", ws.DegradedEntries, ws.Recoveries)
	}
}

// TestReadyzReportsDurabilityGap: a writer stalled in a slow write lets
// a 1 KiB ring overflow. /readyz stays 200 — an overflow drops records
// the way a cache does, it is no disk fault — but the wal line says the
// gap is open and how many records it holds. A sticky rename fault fails
// every heal compaction, and each failure keeps the gap open; once the
// fault clears, the heal Close runs returns the line to "persisting".
// (The writer's own retry past its cool-down is TestCompactRenameFault's,
// on a stepped clock.)
func TestReadyzReportsDurabilityGap(t *testing.T) {
	// The write rule is latency only: it never arms, so no write fails.
	fs := fault.NewScriptFS(nil,
		fault.Rule{Op: fault.OpWrite, After: math.MaxInt, Delay: 50 * time.Millisecond},
		fault.Rule{Op: fault.OpRename, Times: 0})
	srv, _ := bootServer(t, BootConfig{Config: Config{Version: "readyz-test"}, Backend: "malloc", Shards: 4, PackLog: &wal.Options{
		Dir:           t.TempDir(),
		FsyncInterval: 2 * time.Millisecond,
		RingBytes:     1 << 10,
		AuditInterval: -1,
		FS:            fs,
	}})
	store, wlog, addr := srv.store, srv.cfg.WAL, srv.AdminAddr()

	if code, body := readyzGet(t, addr); code != http.StatusOK || !strings.Contains(body, "wal: ok (persisting)") {
		t.Fatalf("before the overflow: readyz = %d %q, want 200 with wal: ok (persisting)", code, body)
	}
	sess := store.NewSession()
	defer sess.Close()
	for i := 0; !wlog.GapOpen(); i++ {
		if i == 10000 {
			t.Fatal("10000 sets never overflowed a 1 KiB ring behind a 50 ms write")
		}
		if _, err := store.SetExBytesAt(sess, fmt.Appendf(nil, "k%04d", i), []byte("payload-payload"), kv.SetAlways, time.Time{}, time.Now()); err != nil {
			t.Fatalf("set: %v", err)
		}
	}
	// The writer's first heal fails at the rename and reopens the gap; the
	// next waits out the cool-down, so the gap holds still while it is read.
	for deadline := time.Now().Add(5 * time.Second); wlog.Stats().IOErrors == 0 || !wlog.GapOpen(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no failed heal left the gap open: %d I/O errors, gap open %v", wlog.Stats().IOErrors, wlog.GapOpen())
		}
	}
	code, body := readyzGet(t, addr)
	want := fmt.Sprintf("wal: ok (durability gap open: %d records dropped, heal pending)", wlog.Stats().DroppedRecords)
	if code != http.StatusOK || !strings.Contains(body, want) {
		t.Fatalf("gap open after a failed heal: readyz = %d %q, want 200 with %q", code, body, want)
	}
	fs.Clear()
	wlog.Close()
	if code, body := readyzGet(t, addr); code != http.StatusOK || !strings.Contains(body, "wal: ok (persisting)") {
		t.Fatalf("healed by Close: readyz = %d %q, want 200 with wal: ok (persisting)", code, body)
	}
}
