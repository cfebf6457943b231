package loadgen

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"alaska/internal/server"
	"alaska/internal/stats"
)

// serve boots an in-process server on a free loopback port, with edit
// applied to its defaults; cleanup shuts it down.
func serve(t *testing.T, edit func(*server.BootConfig)) string {
	t.Helper()
	c := server.Defaults()
	c.Addr, c.PackLog = "127.0.0.1:0", nil
	if edit != nil {
		edit(&c)
	}
	srv, _, err := server.Boot(c)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	t.Cleanup(func() {
		_ = srv.Shutdown(time.Second)
		<-served
	})
	return srv.Addr()
}

func run(t *testing.T, c Config) Report {
	t.Helper()
	rep, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestWarmupReadsNotCounted: hits and misses count only the reads Ops
// counts. Mutation: count a read's hit or miss before the warmup check
// (as the run loop once did) and hits + misses exceeds ops.
func TestWarmupReadsNotCounted(t *testing.T) {
	t.Parallel()
	rep := run(t, Config{Addr: serve(t, nil), Workload: "ycsb-c", Connections: 2, Records: 1000,
		ValueSize: 64, Warmup: 300 * time.Millisecond, Duration: 300 * time.Millisecond, Seed: 1})
	if rep.Ops == 0 || rep.Errors != 0 || rep.Hits+rep.Misses != rep.Ops {
		t.Fatalf("ops %d errors %d hits %d misses %d: want hits + misses == ops > 0, no errors",
			rep.Ops, rep.Errors, rep.Hits, rep.Misses)
	}
}

// TestLatencyCSVRowPerSecond: the latency CSV is a header plus one row
// per second of the measured window, and its rows hold the measured ops
// that completed inside it. Mutation: size the series one row past the
// window (a last row of only the ops that finished after the deadline)
// and the row count is off by one.
func TestLatencyCSVRowPerSecond(t *testing.T) {
	t.Parallel()
	path := t.TempDir() + "/lat.csv"
	rep := run(t, Config{Addr: serve(t, nil), Workload: "ycsb-a", Connections: 2, Records: 1000,
		ValueSize: 64, Duration: 1500 * time.Millisecond, LatencyCSV: path, Seed: 1})
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) != 3 || lines[0] != "elapsed_s,ops,p50_us,p99_us,p999_us,max_us" {
		t.Fatalf("CSV:\n%s\nwant the header and 2 rows", b)
	}
	var inRows int64
	for i, r := range rep.PerSecond {
		if r.Count() == 0 || !strings.HasPrefix(lines[i+1], fmt.Sprintf("%d,%d,", i, r.Count())) {
			t.Errorf("row %d = %q, second %d recorded %d ops", i, lines[i+1], i, r.Count())
		}
		inRows += r.Count()
	}
	if inRows > rep.Ops {
		t.Errorf("rows hold %d ops, the run measured %d", inRows, rep.Ops)
	}
}

// TestHoldsKickedByIdleTimeout: every hold is an idle connection, so a
// server with an idle timeout shorter than the run kicks each one, and
// the report says so. Mutation: count a hold's read error as a kick only
// when the run is closing and the report reads 0 kicked.
func TestHoldsKickedByIdleTimeout(t *testing.T) {
	t.Parallel()
	addr := serve(t, func(c *server.BootConfig) { c.IdleTimeout = 200 * time.Millisecond })
	rep := run(t, Config{Addr: addr, Workload: "ycsb-a", Connections: 1, Records: 100, ValueSize: 64,
		Hold: 3, Duration: time.Second, Seed: 1})
	if rep.HoldsOpened != 3 || rep.HoldsFailed != 0 || rep.HoldsKicked != 3 {
		t.Fatalf("idle holds: %d opened, %d failed, %d kicked; want 3, 0, 3", rep.HoldsOpened, rep.HoldsFailed, rep.HoldsKicked)
	}
	if rep.Errors != 0 || rep.Ops == 0 {
		t.Fatalf("ops %d errors %d: the active worker must not be reaped", rep.Ops, rep.Errors)
	}
}

// TestClientTimeoutSurvivesDrop: with ClientTimeout, a worker whose
// connection the server drops counts the failed op, redials and keeps
// measuring. Mutation: leave reconnect off in resilient mode and the
// second after the drop measures nothing.
func TestClientTimeoutSurvivesDrop(t *testing.T) {
	t.Parallel()
	p := newDropProxy(t, serve(t, nil))
	go func() {
		time.Sleep(400 * time.Millisecond)
		p.drop()
	}()
	rep := run(t, Config{Addr: p.addr(), Workload: "ycsb-a", Connections: 2, Records: 1000, ValueSize: 64,
		ClientTimeout: time.Second, Duration: 1500 * time.Millisecond, LatencyCSV: t.TempDir() + "/lat.csv", Seed: 1})
	if p.dropped() == 0 || rep.Errors == 0 {
		t.Fatalf("dropped %d connections, %d errors: the drop went unnoticed", p.dropped(), rep.Errors)
	}
	if n := rep.PerSecond[1].Count(); n == 0 {
		t.Fatalf("no ops measured in the second after the drop (ops %d, errors %d)", rep.Ops, rep.Errors)
	}
}

// dropProxy forwards loopback connections to a server; drop closes every
// connection forwarded so far, as a server hanging up on its clients.
type dropProxy struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	n     int
}

func newDropProxy(t *testing.T, target string) *dropProxy {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &dropProxy{ln: ln}
	t.Cleanup(func() { _ = ln.Close(); p.drop() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", target)
			if err != nil {
				_ = c.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, c, s)
			p.mu.Unlock()
			go func() { _, _ = io.Copy(s, c); _ = s.Close() }()
			go func() { _, _ = io.Copy(c, s); _ = c.Close() }()
		}
	}()
	return p
}

func (p *dropProxy) addr() string { return p.ln.Addr().String() }

func (p *dropProxy) drop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		_ = c.Close()
	}
	p.n += len(p.conns) / 2
	p.conns = nil
}

func (p *dropProxy) dropped() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// TestWorkloadNames: one table names the mixes for parsing, the help and
// the error; "a" is ycsb-a, any case.
func TestWorkloadNames(t *testing.T) {
	if got := Workloads(); got != "ycsb-a|ycsb-b|ycsb-c|ycsb-f|rmw|churn" {
		t.Errorf("Workloads() = %q", got)
	}
	for name, want := range map[string]string{"ycsb-a": "ycsb-a", "YCSB-B": "ycsb-b", "c": "ycsb-c", "F": "ycsb-f", "RMW": "rmw", "churn": "churn"} {
		if w, err := lookup(name); err != nil || w.name != want {
			t.Errorf("lookup(%q) = %q, %v; want %q", name, w.name, err, want)
		}
	}
	for _, name := range []string{"", "ycsb-rmw", "ycsb-d", "x"} {
		if _, err := lookup(name); err == nil || !strings.Contains(err.Error(), "(want ycsb-a|ycsb-b|ycsb-c|ycsb-f|rmw|churn)") {
			t.Errorf("lookup(%q) = %v, want the unknown-workload error", name, err)
		}
	}
}

// TestPrintLines: the report lines README and the smokes quote, byte for
// byte.
func TestPrintLines(t *testing.T) {
	lat := stats.NewLatencyRecorder()
	lat.Record(40 * time.Microsecond)
	for _, c := range []struct {
		rep  Report
		want []string
	}{
		{Report{Config: Config{Workload: "ycsb-c", Connections: 4, Records: 10, ValueSize: 8, Duration: time.Second, NoLoad: true, Hold: 2},
			Ops: 100, Hits: 99, Misses: 1, HoldsOpened: 2, HoldsKicked: 1, Latency: lat, Stats: map[string]string{"protocol_errors": "0", "bytes": "7"}},
			[]string{
				"workload=YCSB-C connections=4 records=10 value=8B",
				"load: skipped (-no-load: measuring the server's existing contents)",
				"run: 100 ops in 1s = 100 ops/s, errors: 0",
				"reads: hits=99 misses=1 hit_rate=0.9900",
				"idle holds: 2 opened, 0 failed, 1 kicked by server",
				"server stats after run:\n  bytes 7\n  protocol_errors 0",
			}},
		{Report{Config: Config{Workload: "churn", Connections: 1, Records: 10, ValueSize: 8, Duration: 2 * time.Second},
			Ops: 10, Errors: 3, Hits: 3, Misses: 1, Latency: lat, Stats: map[string]string{"rss_bytes": "2097152"}},
			[]string{
				"load: skipped (churn fills on miss)",
				"run: 10 ops in 2s = 5 ops/s, errors: 3",
				"churn: hits=3 misses=1 hit_rate=0.7500",
				"churn: rss_bytes=2097152 hit_rate_per_rss_mib=0.375000",
			}},
	} {
		var b strings.Builder
		c.rep.Print(&b)
		for _, w := range c.want {
			if !strings.Contains(b.String(), w+"\n") {
				t.Errorf("report lacks %q:\n%s", w, b.String())
			}
		}
		if c.rep.Workload == "churn" && strings.Contains(b.String(), "reads:") {
			t.Errorf("churn printed a reads: line:\n%s", b.String())
		}
	}
}

// TestRunRejects: a config Run cannot drive comes back as an error that
// names the flag, before anything dials.
func TestRunRejects(t *testing.T) {
	valid := Config{Addr: "127.0.0.1:1", Workload: "ycsb-a", Connections: 1, Records: 1, Duration: time.Second}
	for want, edit := range map[string]func(*Config){
		"unknown workload": func(c *Config) { c.Workload = "ycsb-d" },
		"-connections":     func(c *Config) { c.Connections = 0 },
		"-duration":        func(c *Config) { c.Duration = -2 * time.Second },
		"-value-jitter":    func(c *Config) { c.ValueJitter = 1.5 },
		"-rate":            func(c *Config) { c.Rate = 1e18 },
	} {
		c := valid
		edit(&c)
		if _, err := Run(context.Background(), c); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run with %s bad = %v, want an error naming it", want, err)
		}
	}
}
