package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"alaska/internal/loadgen"
	"alaska/internal/server"
)

// The smokes: alaskad end to end, booted from its own flag strings and
// driven by internal/loadgen over loopback. Each runs at the shortest
// length that still meets its assertions; -smoke.full runs CI's lengths
// and the 10k-connection soak.
var smokeFull = flag.Bool("smoke.full", false, "run the alaskad smokes at full length, the 10k-connection soak included")

// childEnv makes the test binary run alaskad's main: the smokes that
// need a process boundary (kill -9, the server's own RSS) re-exec it.
const childEnv = "ALASKAD_SMOKE_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	// The parallel smokes wait on timers, fsyncs and probes more than
	// they need the CPU: run them all at once, not GOMAXPROCS at a time,
	// unless -test.parallel says otherwise.
	flag.Parse()
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "test.parallel" })
	if !set {
		_ = flag.Set("test.parallel", "16")
	}
	os.Exit(m.Run())
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// needsOpRate marks a smoke whose assertions need the server to churn
// enough bytes in the run — past F_ub for a defrag pass, past
// -max-memory for evictions. Such a smoke is not parallel, so it runs
// alone in the package, and it skips under -race, whose ~5x slowdown
// never gets there; tier-1 and CI's smoke step run it without -race.
func needsOpRate(t *testing.T) {
	if raceEnabled {
		t.Skip("needs an op rate the race detector's slowdown denies")
	}
}

// length is a smoke's run length: its tier-1 one, or full under
// -smoke.full.
func length(tier1, full time.Duration) time.Duration {
	if *smokeFull {
		return full
	}
	return tier1
}

// Tier-1 run lengths of the smokes whose assertions hold at a fixed
// length: limits needs three measured seconds for its four CSV lines. The
// full lengths are the CI steps' own.
const (
	smokeMallocMesh = 1 * time.Second
	smokeLimits     = 3 * time.Second
	smokeCrashLoad  = 1 * time.Second
	smokeReadBack   = 500 * time.Millisecond
)

// until is the run context of a smoke whose assertions need the server to
// reach a state: under -smoke.full it never ends, so the run lasts its CI
// length; in tier-1 it ends once cond holds, so the run lasts as long as
// the assertions need, capped by the CI length.
func until(t *testing.T, cond func() bool) context.Context {
	if *smokeFull {
		return context.Background()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	t.Cleanup(func() { cancel(); <-done })
	go func() {
		defer close(done)
		for ctx.Err() == nil && !cond() {
			time.Sleep(50 * time.Millisecond)
		}
		cancel()
	}()
	return ctx
}

// reached is the condition that each named stat of srv is at least 1.
func reached(srv *server.Server, names ...string) func() bool {
	return func() bool {
		st := map[string]string{}
		for _, r := range srv.StatsSnapshot() {
			st[r.Name] = r.Value
		}
		for _, name := range names {
			if v, _ := strconv.ParseFloat(st[name], 64); v < 1 {
				return false
			}
		}
		return true
	}
}

// boot serves alaskad in process, built from flags as main builds it, on
// a free loopback port; cleanup shuts it down.
func boot(t *testing.T, flags string) *server.Server {
	t.Helper()
	c, err := bootConfig(flag.NewFlagSet("alaskad", flag.ContinueOnError), append(strings.Fields(flags), "-addr", "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := server.Boot(c)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	t.Cleanup(func() {
		_ = srv.Shutdown(5 * time.Second)
		<-served
	})
	return srv
}

// drive runs the load generator, logs the report it prints and returns
// it with that text. It does not fail the test: the caller checks it
// (check is the verdict every smoke shares).
func drive(t *testing.T, ctx context.Context, c loadgen.Config) (loadgen.Report, string, error) {
	rep, err := loadgen.Run(ctx, c)
	var b strings.Builder
	if rep.Latency != nil {
		rep.Print(&b)
	}
	t.Logf("alaska-loadgen -workload %s:\n%s", c.Workload, b.String())
	return rep, b.String(), err
}

// run is drive, then the shared checks.
func run(t *testing.T, ctx context.Context, c loadgen.Config) (loadgen.Report, string) {
	t.Helper()
	rep, text, err := drive(t, ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	check(t, rep)
	return rep, text
}

// check is what every smoke requires of a load run: no failed op, no
// protocol error, and no stop-the-world defrag pass — the server's §4.3
// controller steps only the pause-free pass.
func check(t *testing.T, rep loadgen.Report) {
	t.Helper()
	if rep.Errors != 0 {
		t.Errorf("errors: %d, want 0", rep.Errors)
	}
	if v := rep.Stats["protocol_errors"]; v != "0" {
		t.Errorf("protocol_errors %q, want 0", v)
	}
	if v, ok := rep.Stats["defrag_barrier_passes"]; ok && v != "0" {
		t.Errorf("defrag_barrier_passes %s: the server ran a stop-the-world defrag pass", v)
	}
}

// stat reads a numeric stat; a missing or non-numeric one fails.
func stat(t *testing.T, st map[string]string, name string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(st[name], 64)
	if err != nil {
		t.Fatalf("stat %s = %q: %v", name, st[name], err)
	}
	return v
}

// hitRate is the `reads: … hit_rate=` figure.
func hitRate(t *testing.T, rep loadgen.Report) float64 {
	t.Helper()
	if rep.Hits+rep.Misses == 0 {
		t.Fatal("no reads measured")
	}
	return float64(rep.Hits) / float64(rep.Hits+rep.Misses)
}

// get fetches an admin URL: its status code (0 when unreachable) and body.
func get(url string) (int, string) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// mustGet is get, failing unless the reply is 200.
func mustGet(t *testing.T, url string) string {
	t.Helper()
	code, body := get(url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d", url, code)
	}
	return body
}

// metrics scrapes /metrics into series → value.
func metrics(t *testing.T, admin string) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for _, l := range strings.Split(mustGet(t, "http://"+admin+"/metrics"), "\n") {
		if f := strings.Fields(l); len(f) == 2 && !strings.HasPrefix(l, "#") {
			m[f[0]], _ = strconv.ParseFloat(f[1], 64)
		}
	}
	return m
}

// wire sends one command then quit on a fresh connection and returns
// everything the server replied.
func wire(t *testing.T, addr, cmd string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, cmd+"\r\nquit\r\n"); err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// poll calls cond every interval until it holds or tries run out.
func poll(tries int, interval time.Duration, cond func() bool) bool {
	for range tries {
		if cond() {
			return true
		}
		time.Sleep(interval)
	}
	return false
}

// child is alaskad in its own process: the test binary re-executed with
// childEnv set, its stderr kept.
type child struct {
	cmd         *exec.Cmd
	stderr      *syncBuffer
	exited      chan struct{}
	addr, admin string
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var (
	servingLine = regexp.MustCompile(`serving memcached protocol on (\S+) `)
	adminLine   = regexp.MustCompile(`admin endpoint on http://(\S+) `)
)

// spawn starts alaskad with flags on a free loopback port and returns
// once its stderr names the address it serves on.
func spawn(t *testing.T, flags string) *child {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ch := &child{stderr: &syncBuffer{}, exited: make(chan struct{})}
	ch.cmd = exec.Command(exe, append(strings.Fields(flags), "-addr", "127.0.0.1:0")...)
	ch.cmd.Env = append(os.Environ(), childEnv+"=1")
	ch.cmd.Stderr = ch.stderr
	if err := ch.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { _ = ch.cmd.Wait(); close(ch.exited) }()
	t.Cleanup(func() {
		_ = ch.cmd.Process.Kill()
		<-ch.exited
		t.Logf("alaskad %s stderr:\n%s", flags, ch.stderr)
	})
	ready := poll(1000, 10*time.Millisecond, func() bool {
		select {
		case <-ch.exited:
			return true
		default:
		}
		return servingLine.MatchString(ch.stderr.String())
	})
	m := servingLine.FindStringSubmatch(ch.stderr.String())
	if !ready || m == nil {
		t.Fatalf("alaskad %s never served:\n%s", flags, ch.stderr)
	}
	ch.addr = m[1]
	if m := adminLine.FindStringSubmatch(ch.stderr.String()); m != nil {
		ch.admin = m[1]
	}
	return ch
}

// stop signals the child and waits for it to exit.
func (ch *child) stop(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if err := ch.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	<-ch.exited
}

// rssKiB reads the child's VmRSS from /proc.
func (ch *child) rssKiB(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", ch.cmd.Process.Pid))
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmRSS:"); ok {
			n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(v), " kB"))
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("no VmRSS line")
	return 0
}

// TestSmokeLoopback: a short fragmenting YCSB-A burst on anchorage, and
// the stats report live defragmentation. Defrag must have run as the
// server runs it — pause-free passes stepped by the §4.3 controller,
// never a barrier pass — and must have returned memory: passes that move
// bytes and truncate nothing reclaim nothing. The count is not the
// signal: the controller runs passes only past F_ub and stops under
// F_lb, so a 5 s burst sees a handful, not one per tick.
// Mutation: make anchorage's truncate skip its DontNeed of the vacated
// tail (defrag_truncated_bytes stays 0) and this fails.
func TestSmokeLoopback(t *testing.T) {
	needsOpRate(t)
	srv := boot(t, "-backend anchorage")
	rep, _ := run(t, until(t, reached(srv, "defrag_concurrent_passes", "defrag_truncated_bytes")),
		loadgen.Config{Addr: srv.Addr(), Workload: "ycsb-a",
			Connections: 4, Records: 10000, ValueSize: 1024, ValueJitter: 0.9, Duration: 5 * time.Second})
	if v := stat(t, rep.Stats, "defrag_concurrent_passes"); v < 1 {
		t.Errorf("defrag_concurrent_passes %v, want >= 1", v)
	}
	if v := stat(t, rep.Stats, "defrag_barrier_passes"); v != 0 {
		t.Errorf("defrag_barrier_passes %v, want 0", v)
	}
	if v := stat(t, rep.Stats, "defrag_truncated_bytes"); v <= 0 {
		t.Errorf("defrag_truncated_bytes %v, want > 0", v)
	}
}

// TestSmokeMallocMesh: every other smoke boots anchorage; this one boots
// the other two backends server.Boot builds, under a short YCSB-A burst,
// and the shared checks are the assertions.
// Mutation: make mesh.Allocator.Alloc read MaxHeap 0 as a cap rather than
// unlimited (every store needing a new span fails) and the mesh half
// fails.
func TestSmokeMallocMesh(t *testing.T) {
	t.Parallel()
	for _, backend := range []string{"malloc", "mesh"} {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			srv := boot(t, "-backend "+backend)
			run(t, context.Background(), loadgen.Config{Addr: srv.Addr(), Workload: "ycsb-a",
				Connections: 4, Records: 5000, ValueSize: 512,
				Duration: length(smokeMallocMesh, 2*time.Second)})
		})
	}
}

// TestSmokeRMW: the read-modify-write mix (incr/append/gets+cas) with
// 1-second TTLs on every set, so the defrag control loop runs against
// mutating, expiring data. Zero protocol errors, live expiry sweeps, and
// real expirations are all required.
// Mutation: drop the expiry_sweeps increment (the store's sweeps.Add)
// and this fails.
func TestSmokeRMW(t *testing.T) {
	t.Parallel()
	srv := boot(t, "-backend anchorage")
	rep, _ := run(t, until(t, reached(srv, "expiry_sweeps", "expired", "cas_hits", "incr_hits")),
		loadgen.Config{Addr: srv.Addr(), Workload: "rmw", TTL: 1,
			Connections: 4, Records: 5000, ValueSize: 512, Duration: 5 * time.Second})
	for _, name := range []string{"expiry_sweeps", "expired", "cas_hits", "incr_hits"} {
		if v := stat(t, rep.Stats, name); v < 1 {
			t.Errorf("%s %v, want >= 1", name, v)
		}
	}
}

// TestSmokeLimits: a tight accept gate and idle reaper, driven by the
// open-loop (fixed-rate) loadgen while 4 held-idle connections occupy the
// -max-conns slots: the gate must defer the worker connections
// (listen_disabled_num >= 1), the reaper must kick the holds
// (idle_kicks >= 1), and the run must stay protocol-clean end to end.
// Once per transport: the registry, reaper and accept gate are shared
// code, and this is the one smoke that boots the goroutine transport.
// Mutation: make acquireConnSlot report an accept that waited for a slot
// as immediate (listen_disabled_num stays 0) and this fails on both
// transports.
func TestSmokeLimits(t *testing.T) {
	t.Parallel()
	for _, model := range []string{"event", "goroutine"} {
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			srv := boot(t, "-backend anchorage -conn-model "+model+" -max-conns 4 -idle-timeout 2s")
			csv := t.TempDir() + "/latency.csv"
			rep, _ := run(t, context.Background(), loadgen.Config{Addr: srv.Addr(), Workload: "ycsb-a",
				Connections: 2, Hold: 4, Records: 2000, ValueSize: 256,
				Rate: 4000, Warmup: time.Second, Duration: length(smokeLimits, 5*time.Second),
				LatencyCSV: csv})
			if got := rep.Stats["conn_model"]; got != model {
				t.Errorf("conn_model %q, want %q", got, model)
			}
			if v := stat(t, rep.Stats, "listen_disabled_num"); v < 1 {
				t.Errorf("listen_disabled_num %v, want >= 1", v)
			}
			if v := stat(t, rep.Stats, "idle_kicks"); v < 1 {
				t.Errorf("idle_kicks %v, want >= 1", v)
			}
			// The latency-over-time CSV carries a header plus one row per
			// measured second.
			b, err := os.ReadFile(csv)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(b, []byte("\n")); n < 4 {
				t.Errorf("latency CSV has %d lines, want >= 4:\n%s", n, b)
			}
		})
	}
}

// TestSmokeEviction: a 4 MiB global -max-memory ceiling, churned by
// zipfian gets with set-on-miss (1 s TTLs) over a keyspace far larger
// than the budget. The run must evict live entries, reclaim dead ones,
// hold charged bytes under limit_maxbytes, and stay protocol-clean.
// Mutation: make the eviction walk count a dead LRU victim as an eviction
// (reclaimed stays 0) and this fails.
func TestSmokeEviction(t *testing.T) {
	needsOpRate(t)
	srv := boot(t, "-backend anchorage -max-memory 4MiB -max-value-size 64KiB")
	rep, text := run(t, until(t, reached(srv, "evictions", "reclaimed")),
		loadgen.Config{Addr: srv.Addr(), Workload: "churn", TTL: 1,
			Connections: 4, Records: 20000, ValueSize: 512, Duration: 5 * time.Second})
	if !strings.Contains(text, "hit_rate_per_rss_mib=") {
		t.Error("the report has no hit_rate_per_rss_mib= line")
	}
	ev, rec := stat(t, rep.Stats, "evictions"), stat(t, rep.Stats, "reclaimed")
	bytes, limit := stat(t, rep.Stats, "bytes"), stat(t, rep.Stats, "limit_maxbytes")
	if ev < 1 || rec < 1 || limit <= 0 || bytes > limit {
		t.Errorf("evictions %v reclaimed %v bytes %v limit_maxbytes %v: want evictions, reclaims, and bytes <= limit > 0",
			ev, rec, bytes, limit)
	}
}

// TestSmokeCrashRecovery: the persistence scenario across a real kill -9.
// Boot with -persist, load and churn YCSB-A, kill -9 after the traffic,
// restart on the same -data-dir, and read the keyspace back without
// reloading. YCSB-A only ever writes keys from the preloaded space, so
// the warm restart must serve nearly every read from replayed data: hit
// rate >= 0.95, with >= 1000 records replayed, zero CRC failures (a
// kill -9 tears at worst the tail), a clean background audit, and zero
// protocol errors.
// Mutation: make replay skip restoring set records (every read after the
// restart misses) and this fails.
func TestSmokeCrashRecovery(t *testing.T) {
	t.Parallel()
	flags := "-backend anchorage -persist -data-dir " + t.TempDir() + " -fsync-interval 25ms"
	ch := spawn(t, flags)
	rep, _ := run(t, context.Background(), loadgen.Config{Addr: ch.addr, Workload: "ycsb-a",
		Connections: 4, Records: 10000, ValueSize: 512,
		Duration: length(smokeCrashLoad, 5*time.Second)})
	ch.stop(t, syscall.SIGKILL)
	// The load side loses nothing to overflow, and the writer fsyncs on
	// the 25 ms timer, not per write batch.
	up, fsyncs := stat(t, rep.Stats, "uptime_s"), stat(t, rep.Stats, "wal_fsyncs")
	if drop := stat(t, rep.Stats, "wal_dropped_records"); drop != 0 || fsyncs > 2+up/0.025 {
		t.Errorf("wal_dropped_records %v, wal_fsyncs %v in %v s: want 0 dropped and <= 2 + uptime/25ms fsyncs", drop, fsyncs, up)
	}

	ch = spawn(t, flags)
	if !strings.Contains(ch.stderr.String(), "warm restart") {
		t.Error("no warm restart line on the restarted server's stderr")
	}
	// The read runs past the 1 s initial-audit delay, so the audit
	// re-verifies the recovered segments before the assertions read its
	// counters.
	cl, err := server.Dial(ch.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if !poll(500, 10*time.Millisecond, func() bool {
		st, err := cl.Stats()
		return err == nil && st["wal_audit_runs"] != "0"
	}) {
		t.Fatal("no background audit within 5 s of the restart")
	}
	rep, _ = run(t, context.Background(), loadgen.Config{Addr: ch.addr, Workload: "ycsb-c", NoLoad: true,
		Connections: 4, Records: 10000, ValueSize: 512,
		Duration: length(smokeReadBack, 3*time.Second)})
	ch.stop(t, syscall.SIGTERM)
	if hr := hitRate(t, rep); hr < 0.95 {
		t.Errorf("warm-restart hit_rate %.4f, want >= 0.95", hr)
	}
	if v := stat(t, rep.Stats, "wal_replay_records"); v < 1000 {
		t.Errorf("wal_replay_records %v, want >= 1000", v)
	}
	for name, want := range map[string]float64{"wal_replay_crc_errors": 0, "wal_audit_errors": 0} {
		if v := stat(t, rep.Stats, name); v != want {
			t.Errorf("%s %v, want %v", name, v, want)
		}
	}
	if v := stat(t, rep.Stats, "wal_audit_runs"); v < 1 {
		t.Errorf("wal_audit_runs %v, want >= 1", v)
	}
}

// TestSmokeChaos: scripted disk faults end to end. Boot with -persist and
// a fault script that fails six consecutive pack-log fsyncs mid-run:
// four back to back degrade the log, and the other two fail its first
// two recovery probes, so it recovers on a retried probe ~3 s into the
// window. The server must ride
// through the window — degrade, answer /readyz with 503, recover on its
// own probe, and heal the durability gap via compaction — while the
// loadgen (armed with ClientTimeout) sees zero errors. Then kill -9 and
// restart: the healed log must still serve >= 0.95 of the keyspace.
// Mutation: make the recovery probe return before it flips the log back
// to healthy (/readyz stays 503, wal_recoveries stays 0) and this fails.
func TestSmokeChaos(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ch := spawn(t, "-backend anchorage -admin-addr 127.0.0.1:0 -persist -data-dir "+dir+
		" -fsync-interval 25ms -fault-script sync:after=40:times=6:err=eio")
	readyz := "http://" + ch.admin + "/readyz"
	if code, body := get(readyz); code != http.StatusOK || !strings.HasPrefix(body, "ok\n") {
		t.Fatalf("/readyz before the faults: %d\n%s", code, body)
	}
	// In tier-1 the load ends half a second after /readyz recovers.
	var recovered atomic.Bool
	ctx := until(t, func() bool { return recovered.Load() })
	done := make(chan loadgen.Report, 1)
	go func() {
		rep, _, err := drive(t, ctx, loadgen.Config{Addr: ch.addr, Workload: "ycsb-a",
			Connections: 4, Records: 10000, ValueSize: 512, ClientTimeout: 2 * time.Second,
			Duration: 8 * time.Second})
		if err != nil {
			rep.Errors++ // the run itself failed: check reports it
			t.Log(err)
		}
		done <- rep
	}()
	// Poll /readyz through the fault window: it must flip to 503
	// (degraded) and back to 200 (ok) with no restart in between.
	sawDegraded, sawRecovered := false, false
	poll(100, 100*time.Millisecond, func() bool {
		code, _ := get(readyz)
		sawDegraded = sawDegraded || code == http.StatusServiceUnavailable
		sawRecovered = sawDegraded && code == http.StatusOK
		return sawRecovered
	})
	if sawRecovered {
		time.AfterFunc(500*time.Millisecond, func() { recovered.Store(true) })
	}
	rep := <-done
	if !sawDegraded || !sawRecovered {
		t.Errorf("/readyz saw_degraded=%v saw_recovered=%v, want both", sawDegraded, sawRecovered)
	}
	check(t, rep)
	deg, rec := stat(t, rep.Stats, "wal_degraded_entries"), stat(t, rep.Stats, "wal_recoveries")
	if st := rep.Stats["wal_state"]; deg < 1 || rec < 1 || st != "healthy" {
		t.Errorf("wal_degraded_entries %v wal_recoveries %v wal_state %q: want a degrade, a recovery, and healthy", deg, rec, st)
	}
	// The heal compaction (a fresh snapshot of the live store) closes the
	// durability gap before the hard kill.
	if !poll(100, 100*time.Millisecond, func() bool {
		_, body := get(readyz)
		return strings.Contains(body, "wal: ok (persisting)")
	}) {
		t.Error("the durability gap never closed")
	}
	ch.stop(t, syscall.SIGKILL)

	ch = spawn(t, "-backend anchorage -persist -data-dir "+dir+" -fsync-interval 25ms")
	if !strings.Contains(ch.stderr.String(), "warm restart") {
		t.Error("no warm restart line on the restarted server's stderr")
	}
	rep, _ = run(t, context.Background(), loadgen.Config{Addr: ch.addr, Workload: "ycsb-c", NoLoad: true,
		Connections: 4, Records: 10000, ValueSize: 512,
		Duration: length(smokeReadBack, 3*time.Second)})
	ch.stop(t, syscall.SIGTERM)
	if hr := hitRate(t, rep); hr < 0.95 {
		t.Errorf("post-chaos hit_rate %.4f, want >= 0.95", hr)
	}
}

// TestSmokeObservability: the admin plane with a 10 µs slow-op threshold
// (loopback ops run tens of µs, so captures are guaranteed). After a
// loadgen burst, /metrics has live per-opcode and defrag-pass histogram
// series, a `stats reset` moves no /metrics counter backwards, a pprof
// heap profile downloads, /debug/slowops captured ops, and `stats slow`
// reads them over the wire.
// Mutation: render /metrics counters net of the `stats reset` base, as
// `stats` shows them, and the monotonicity check fails.
func TestSmokeObservability(t *testing.T) {
	needsOpRate(t)
	srv := boot(t, "-backend anchorage -admin-addr 127.0.0.1:0 -slow-op-threshold 10us")
	run(t, until(t, reached(srv, "defrag_concurrent_passes")),
		loadgen.Config{Addr: srv.Addr(), Workload: "ycsb-a",
			Connections: 4, Records: 10000, ValueSize: 1024, ValueJitter: 0.9, Duration: 5 * time.Second})
	admin := "http://" + srv.AdminAddr()
	if body := mustGet(t, admin+"/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q, want ok", body)
	}
	a := metrics(t, srv.AdminAddr())
	for _, s := range []struct {
		series string
		min    float64
	}{
		{`alaskad_op_latency_seconds_count{op="get"}`, 1e-9},
		{`alaskad_op_latency_seconds_count{op="set"}`, 1e-9},
		{`alaskad_defrag_pass_duration_seconds_count`, 1},
		{`alaskad_bytes_read_total`, 1e-9},
	} {
		if a[s.series] < s.min {
			t.Errorf("/metrics %s = %v, want >= %v", s.series, a[s.series], s.min)
		}
	}
	// `stats reset` zeroes what `stats` shows; /metrics counters stay
	// monotonic across it.
	if reply := wire(t, srv.Addr(), "stats reset"); !strings.Contains(reply, "RESET") {
		t.Errorf("stats reset replied %q", reply)
	}
	b := metrics(t, srv.AdminAddr())
	const getHits, bytesRead = `alaskad_store_ops_total{op="get",outcome="hit"}`, "alaskad_bytes_read_total"
	if a[getHits] <= 0 || b[getHits] < a[getHits] || b[bytesRead] < a[bytesRead] {
		t.Errorf("across stats reset: %s %v → %v, %s %v → %v; want positive and monotonic",
			getHits, a[getHits], b[getHits], bytesRead, a[bytesRead], b[bytesRead])
	}
	if heap := mustGet(t, admin+"/debug/pprof/heap"); heap == "" {
		t.Error("empty heap profile")
	}
	if ops := mustGet(t, admin+"/debug/slowops"); !strings.Contains(ops, `"cmd"`) {
		t.Errorf("/debug/slowops captured nothing: %s", ops)
	}
	if slow := wire(t, srv.Addr(), "stats slow"); !strings.Contains(slow, "slow:0:cmd") {
		t.Errorf("stats slow captured nothing: %s", slow)
	}
}

// TestSmokeSoak: the event core's scale criterion. Park 10k idle
// connections while an active YCSB-A subset keeps running. The parked
// population must all register (conns_parked >= 10000), cost the server
// under 32 MiB of RSS between the warm baseline and the held peak — flat
// memory, ~200 B each of user-space state plus allocator slack — and the
// active traffic must stay protocol-clean throughout. The server runs in
// its own process so VmRSS is its alone. It runs only under -smoke.full,
// and never under -short: the 10k hold goroutines exceed the race
// detector's 8128-goroutine cap, and CI's race step runs -short.
// Mutation: give every tracked connection a 4 KiB buffer of its own
// (Server.track) and the RSS bound fails.
func TestSmokeSoak(t *testing.T) {
	t.Parallel()
	if !*smokeFull || testing.Short() {
		t.Skip("the 10k-connection soak runs under -smoke.full without -short")
	}
	ch := spawn(t, "-backend anchorage -admin-addr 127.0.0.1:0")
	// Warm baseline: preload the keyspace and let the heap settle.
	run(t, context.Background(), loadgen.Config{Addr: ch.addr, Workload: "ycsb-a",
		Connections: 4, Records: 10000, ValueSize: 512, Duration: 3 * time.Second})
	time.Sleep(time.Second)
	before := ch.rssKiB(t)
	// 10k idle holds plus an active subset over the warm keyspace.
	done := make(chan loadgen.Report, 1)
	go func() {
		rep, _, err := drive(t, context.Background(), loadgen.Config{Addr: ch.addr, Workload: "ycsb-a", NoLoad: true,
			Hold: 10000, Connections: 4, Records: 10000, ValueSize: 512, Duration: 20 * time.Second})
		if err != nil {
			rep.Errors++
			t.Log(err)
		}
		done <- rep
	}()
	parked := 0.0
	poll(120, 500*time.Millisecond, func() bool {
		parked = metrics(t, ch.admin)["alaskad_conns_parked"]
		return parked >= 10000
	})
	during := ch.rssKiB(t)
	t.Logf("conns_parked=%v rss_before=%dkB rss_during=%dkB", parked, before, during)
	if parked < 10000 {
		t.Errorf("conns_parked %v, want >= 10000", parked)
	}
	if during-before >= 32768 {
		t.Errorf("RSS grew %d KiB across 10k parked connections, want < 32 MiB", during-before)
	}
	rep := <-done
	ch.stop(t, syscall.SIGTERM)
	check(t, rep)
	if rep.HoldsOpened != 10000 || rep.HoldsFailed != 0 || rep.HoldsKicked != 0 {
		t.Errorf("idle holds: %d opened, %d failed, %d kicked by server; want 10000, 0, 0",
			rep.HoldsOpened, rep.HoldsFailed, rep.HoldsKicked)
	}
}
