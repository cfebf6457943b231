package server

// Observability-plane tests: `stats reset` / `stats slow` wire
// conformance across every backend, the slow-op ring's capture and
// wraparound behavior, the per-opcode histograms, and the admin HTTP
// surface (/metrics, /healthz, /debug/pprof, /debug/slowops).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"alaska/internal/kv"
	"alaska/internal/logx"
)

// aggregateCount reads the all-opcodes recorder the way every product
// reader does: fold the stripes in, then look.
func aggregateCount(srv *Server) int64 {
	srv.foldLatency()
	return srv.lat.Count()
}

func TestStatsResetConformance(t *testing.T) {
	forEachBackend(t, Config{Addr: "127.0.0.1:0"}, func(t *testing.T, srv *Server) {
		runTranscript(t, srv.Addr(), []step{
			{"set k 0 0 3\r\nabc\r\n", "STORED\r\n"},
			{"get k\r\n", "VALUE k 0 3\r\nabc\r\nEND\r\n"},
			{"get missing\r\n", "END\r\n"},
			{"stats reset\r\n", "RESET\r\n"},
			// State survives the reset: the item is still there...
			{"get k\r\n", "VALUE k 0 3\r\nabc\r\nEND\r\n"},
		})
		snap := srv.store.Snapshot()
		// ...but only the post-reset get is counted.
		if snap.Sets != 0 || snap.Gets != 1 || snap.Hits != 1 || snap.Misses != 0 {
			t.Fatalf("post-reset counters: sets=%d gets=%d hits=%d misses=%d, want 0/1/1/0",
				snap.Sets, snap.Gets, snap.Hits, snap.Misses)
		}
		if snap.Keys != 1 {
			t.Fatalf("reset must not touch the live-key gauge: keys=%d, want 1", snap.Keys)
		}
		if n := srv.totalConns.Load(); n != 0 {
			t.Fatalf("post-reset total_connections=%d, want 0", n)
		}
	})
}

func TestStatsResetZeroesLatencyAndBytes(t *testing.T) {
	srv := startServer(t, kv.NewMallocBackend(), Config{Addr: "127.0.0.1:0"})
	runTranscript(t, srv.Addr(), []step{
		{"set k 0 0 3\r\nabc\r\n", "STORED\r\n"},
		{"stats reset\r\n", "RESET\r\n"},
	})
	// The `stats reset` command itself is recorded after dispatch
	// returns, so at most that one op may appear; the set must be gone.
	if n := aggregateCount(srv); n > 1 {
		t.Fatalf("post-reset latency count=%d, want <=1", n)
	}
	if got := srv.OpLatency("set").Count(); got != 0 {
		t.Fatalf("post-reset per-op set count=%d, want 0", got)
	}
}

// TestStatsSlowWire drives a server with an aggressive threshold so
// every command is captured, then checks the `stats slow` row format.
func TestStatsSlowWire(t *testing.T) {
	srv := startServer(t, kv.NewMallocBackend(), Config{
		Addr:            "127.0.0.1:0",
		SlowOpThreshold: time.Nanosecond,
	})
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	send := func(s string) {
		t.Helper()
		if _, err := c.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	readUntilEnd := func() []string {
		t.Helper()
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var lines []string
		for {
			l, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("reading stats slow: %v (got %q)", err, lines)
			}
			l = strings.TrimRight(l, "\r\n")
			if l == "END" {
				return lines
			}
			lines = append(lines, l)
		}
	}
	send("set slowkey 0 0 3\r\nabc\r\n")
	if l, _ := br.ReadString('\n'); l != "STORED\r\n" {
		t.Fatalf("set: %q", l)
	}
	send("get slowkey\r\n")
	for i := 0; i < 3; i++ { // VALUE, data, END
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	send("stats slow\r\n")
	lines := readUntilEnd()
	if len(lines) == 0 {
		t.Fatal("stats slow returned no rows despite 1ns threshold")
	}
	// Newest first: row 0 is the get (the stats command itself is
	// recorded only after its reply is generated).
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "slow:0:cmd get") {
		t.Fatalf("stats slow missing newest-first get row:\n%s", joined)
	}
	if !strings.Contains(joined, "slow:0:key slowkey") {
		t.Fatalf("stats slow missing key row:\n%s", joined)
	}
	for _, want := range []string{"latency_us", "conn", "age_s"} {
		if !strings.Contains(joined, "slow:0:"+want) {
			t.Fatalf("stats slow missing %s row:\n%s", want, joined)
		}
	}
	// Unknown sub-commands still answer ERROR.
	send("stats bogus\r\n")
	if l, _ := br.ReadString('\n'); l != "ERROR\r\n" {
		t.Fatalf("stats bogus: %q", l)
	}
}

func TestSlowRingWraparoundAndTruncation(t *testing.T) {
	r := newSlowRing()
	long := strings.Repeat("k", slowOpKeyLen+10)
	for i := 0; i < slowRingSize+17; i++ {
		r.record(cmdGet, []byte(long), time.Duration(i+1)*time.Microsecond, uint64(i), time.Unix(1000, 0))
	}
	ops := r.snapshot()
	if len(ops) != slowRingSize {
		t.Fatalf("snapshot after overflow: %d entries, want %d", len(ops), slowRingSize)
	}
	// Newest first.
	if ops[0].ConnID != uint64(slowRingSize+16) {
		t.Fatalf("newest entry conn=%d, want %d", ops[0].ConnID, slowRingSize+16)
	}
	if ops[0].Latency <= ops[len(ops)-1].Latency {
		t.Fatalf("entries not newest-first: head=%v tail=%v", ops[0].Latency, ops[len(ops)-1].Latency)
	}
	wantKey := long[:slowOpKeyLen] + "..."
	if ops[0].Key != wantKey {
		t.Fatalf("truncated key = %q, want %q", ops[0].Key, wantKey)
	}
}

// TestSlowRingConcurrent hammers record from many goroutines while a
// reader snapshots — under -race this proves the per-entry locks keep
// readers and writers apart.
func TestSlowRingConcurrent(t *testing.T) {
	r := newSlowRing()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := []byte("writer-key")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.record(cmdSet, key, time.Duration(i)*time.Microsecond, uint64(g), time.Unix(int64(i), 0))
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		for _, op := range r.snapshot() {
			if op.Cmd != "set" || op.Key != "writer-key" {
				t.Errorf("torn entry surfaced: %+v", op)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestPerOpHistograms(t *testing.T) {
	srv := startServer(t, kv.NewMallocBackend(), Config{Addr: "127.0.0.1:0"})
	runTranscript(t, srv.Addr(), []step{
		{"set k 0 0 3\r\nabc\r\n", "STORED\r\n"},
		{"get k\r\n", "VALUE k 0 3\r\nabc\r\nEND\r\n"},
		{"get k\r\n", "VALUE k 0 3\r\nabc\r\nEND\r\n"},
		{"delete k\r\n", "DELETED\r\n"},
		{"incr nosuch 1\r\n", "NOT_FOUND\r\n"},
	})
	want := map[string]int64{"get": 2, "set": 1, "delete": 1, "incr": 1, "cas": 0}
	for op, n := range want {
		rec := srv.OpLatency(op)
		if rec == nil {
			t.Fatalf("OpLatency(%q) = nil", op)
		}
		if got := rec.Count(); got != n {
			t.Errorf("per-op %s count = %d, want %d", op, got, n)
		}
	}
	if srv.OpLatency("nonsense") != nil {
		t.Fatal("OpLatency must return nil for unknown opcodes")
	}
	if srv.bytesRead.Load() == 0 || srv.bytesWritten.Load() == 0 {
		t.Fatalf("byte counters not advancing: read=%d written=%d",
			srv.bytesRead.Load(), srv.bytesWritten.Load())
	}
}

func TestAdminHandler(t *testing.T) {
	srv := startServer(t, kv.NewMallocBackend(), Config{
		Addr:            "127.0.0.1:0",
		SlowOpThreshold: time.Nanosecond,
		Version:         "admintest",
	})
	runTranscript(t, srv.Addr(), []step{
		{"set k 0 0 3\r\nabc\r\n", "STORED\r\n"},
		{"get k\r\n", "VALUE k 0 3\r\nabc\r\nEND\r\n"},
	})
	ts := httptest.NewServer(NewAdminHandler(srv))
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		`alaskad_op_latency_seconds_count{op="get"} 1`,
		`alaskad_op_latency_seconds_bucket{op="set",le="+Inf"} 1`,
		"# TYPE alaskad_op_latency_seconds histogram",
		"alaskad_defrag_pass_duration_seconds_count",
		`alaskad_store_ops_total{op="get",outcome="hit"} 1`,
		`version="admintest"`,
		"alaskad_bytes_read_total",
		"alaskad_items 1",
		"alaskad_slow_ops_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get("/debug/slowops")
	if code != 200 {
		t.Fatalf("/debug/slowops: status %d", code)
	}
	var ops []SlowOp
	if err := json.Unmarshal([]byte(body), &ops); err != nil {
		t.Fatalf("/debug/slowops not JSON: %v\n%s", err, body)
	}
	if len(ops) == 0 {
		t.Fatal("/debug/slowops empty despite 1ns threshold")
	}

	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "profiles") {
		t.Fatalf("/debug/pprof/ index: %d", code)
	}
	if code, _ := get("/debug/vars"); code != 200 {
		t.Fatalf("/debug/vars: %d", code)
	}
}

// TestUptimeGaugeIgnoresConfigClock: the server's start is a wall-clock
// reading, so the uptime gauge must measure from it on the wall clock too.
// With a Config.Clock a quarter-century behind, the scraped gauge is still
// ≥ 0 and agrees with `stats uptime_s` to within a second.
func TestUptimeGaugeIgnoresConfigClock(t *testing.T) {
	srv := startServer(t, kv.NewMallocBackend(), Config{
		Addr:  "127.0.0.1:0",
		Clock: func() time.Time { return time.Unix(1_000_000_000, 0) },
	})
	ts := httptest.NewServer(NewAdminHandler(srv))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	gauge := -1.0
	for _, l := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(l, "alaskad_uptime_seconds "); ok {
			if gauge, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatalf("uptime gauge %q: %v", v, err)
			}
		}
	}
	stat := ""
	for _, row := range srv.StatsSnapshot() {
		if row.Name == "uptime_s" {
			stat = row.Value
		}
	}
	uptime, err := strconv.ParseFloat(stat, 64)
	if err != nil {
		t.Fatalf("stats uptime_s %q: %v", stat, err)
	}
	if gauge < 0 || gauge-uptime > 1 || uptime-gauge > 1 {
		t.Fatalf("alaskad_uptime_seconds = %v, stats uptime_s = %v: want ≥ 0 and within 1 s", gauge, uptime)
	}
}

// TestVerbosityMovesLogLevel proves the wire command drives the leveled
// logger.
func TestVerbosityMovesLogLevel(t *testing.T) {
	logger := logx.New(&nopWriter{}, "t: ", logx.LevelError)
	srv := startServer(t, kv.NewMallocBackend(), Config{
		Addr:   "127.0.0.1:0",
		Logger: logger,
	})
	runTranscript(t, srv.Addr(), []step{
		{"verbosity 2\r\n", "OK\r\n"},
	})
	if got := logger.GetLevel(); got != logx.LevelDebug {
		t.Fatalf("after `verbosity 2`: level=%v, want debug", got)
	}
	runTranscript(t, srv.Addr(), []step{
		{"verbosity 0 noreply\r\nversion\r\n", "VERSION " + srv.cfg.Version + "\r\n"},
	})
	if got := logger.GetLevel(); got != logx.LevelError {
		t.Fatalf("after `verbosity 0`: level=%v, want error", got)
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// metricCount scrapes the registry and returns the value of one
// `<series> <n>` sample line.
func metricCount(t *testing.T, srv *Server, series string) int64 {
	t.Helper()
	var sb strings.Builder
	if _, err := srv.MetricsRegistry().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %q sample", series)
	return 0
}

// sendBursts writes burst n times down one connection, reading the
// exact reply after each. (runTranscript without t.Fatal, for goroutines.)
func sendBursts(addr, burst, reply string, n int) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, len(reply))
	for i := 0; i < n; i++ {
		if _, err := c.Write([]byte(burst)); err != nil {
			return err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			return fmt.Errorf("burst %d: %w (got %q)", i, err, buf)
		}
		if string(buf) != reply {
			return fmt.Errorf("burst %d: got %q", i, buf)
		}
	}
	return nil
}

// TestLatencyFoldConservesCounts drives pipelined bursts down several
// connections at once — so several latency stripes are being recorded
// into — while a reader keeps folding them through every read surface,
// on both transports. Every
// command must be counted exactly once wherever it is read: per opcode,
// in the aggregate, in /metrics; the published counts may never step
// backwards between resets; and a `stats reset` must not leave behind
// observations that were still sitting in a stripe. Run under -race.
func TestLatencyFoldConservesCounts(t *testing.T) {
	const conns, bursts, perBurst = 4, 20, 32 // each burst: 1 set + 31 gets
	const total = conns * bursts * perBurst
	burst := "set k 0 0 3\r\nabc\r\n" + strings.Repeat("get k\r\n", perBurst-1)
	reply := "STORED\r\n" + strings.Repeat("VALUE k 0 3\r\nabc\r\nEND\r\n", perBurst-1)
	for _, model := range []string{"goroutine", "event"} {
		t.Run(model+"/instrumented", func(t *testing.T) {
			srv := startServer(t, kv.NewMallocBackend(), Config{
				Addr: "127.0.0.1:0", ConnModel: model, Workers: 3,
			})
			if model == "event" && srv.ConnModel() != "event" {
				t.Skip("no readiness poller on this platform")
			}
			stop, polled := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(polled)
				var last int64
				for {
					// Every read surface, each folding first.
					srv.StatsSnapshot()
					srv.OpLatency("get")
					_, _ = srv.MetricsRegistry().WriteTo(io.Discard)
					n := aggregateCount(srv)
					if n < last {
						t.Errorf("published aggregate went backwards: %d -> %d", last, n)
						return
					}
					last = n
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
			var wg sync.WaitGroup
			for c := 0; c < conns; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := sendBursts(srv.Addr(), burst, reply, bursts); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			close(stop)
			<-polled

			if got := aggregateCount(srv); got != total {
				t.Errorf("aggregate count = %d, want %d", got, total)
			}
			if got := metricCount(t, srv, "alaskad_command_latency_seconds_count"); got != total {
				t.Errorf("/metrics aggregate count = %d, want %d", got, total)
			}
			var byOp int64
			for _, op := range cmdNames {
				byOp += srv.OpLatency(op).Count()
			}
			gets, sets := srv.OpLatency("get").Count(), srv.OpLatency("set").Count()
			if byOp != total || sets != conns*bursts || gets != total-sets {
				t.Errorf("per-op counts: all=%d get=%d set=%d, want %d/%d/%d", byOp, gets, sets, total, total-conns*bursts, conns*bursts)
			}
			if got := metricCount(t, srv, `alaskad_op_latency_seconds_count{op="get"}`); got != gets {
				t.Errorf("/metrics get count = %d, OpLatency says %d", got, gets)
			}

			// A reset must also empty the stripes. The burst before it
			// is read by nobody, so it is still in one when the reset
			// runs; one command after it reads as one (plus the reset
			// command itself, recorded after it ran), not 33.
			runTranscript(t, srv.Addr(), []step{
				{burst, reply},
				{"stats reset\r\n", "RESET\r\n"},
				{"get k\r\n", "VALUE k 0 3\r\nabc\r\nEND\r\n"},
			})
			if got := aggregateCount(srv); got != 2 {
				t.Errorf("aggregate count after reset + one get = %d, want 2", got)
			}
			if got := srv.OpLatency("get").Count(); got != 1 {
				t.Errorf("get count after reset + one get = %d, want 1", got)
			}
		})
	}
}
