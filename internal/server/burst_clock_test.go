package server

// One time per command: every command of a pipelined burst uses a single
// reading for its deadline, its flush epoch and every store call, and the
// readings of successive commands only advance. Each transcript below is
// sent as ONE write so the engine sees one burst; the real-clock cases pin
// that what one command writes is already in the past for the next, and
// the fake-clock cases pin that an operator's Config.Clock is called once
// per command and nowhere else on the request path.

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"alaska/internal/kv"
)

// forEachModelBackend is forEachBackend with the transport as the outer
// subtest level and under its CLI name ("goroutine", "epoll"), which keeps
// the burst-clock subtest ids what they have been since these tests landed.
func forEachModelBackend(t *testing.T, cfg Config, fn func(t *testing.T, srv *Server)) {
	for _, model := range []string{"goroutine", "epoll"} {
		t.Run(model, func(t *testing.T) {
			cfg := cfg
			cfg.ConnModel = model
			forEachBackend(t, cfg, fn)
		})
	}
}

func TestBurstClockTranscripts(t *testing.T) {
	const val = "VALUE %s 0 1\r\n%s\r\nEND\r\n"
	cases := []struct {
		name  string
		steps []step
	}{
		{"touch-negative-then-get", []step{
			{"set k2 0 0 1\r\nx\r\n", "STORED\r\n"},
			{"touch k2 -1 noreply\r\nget k2\r\n", "END\r\n"},
		}},
		{"flush-then-get", []step{
			{"set c 0 0 1\r\nx\r\n", "STORED\r\n"},
			{"flush_all noreply\r\nget c\r\n", "END\r\n"},
		}},
		{"set-negative-then-get", []step{
			{"set k 0 -1 1\r\nx\r\nget k\r\n", "STORED\r\nEND\r\n"},
		}},
		{"gat-negative-then-get", []step{
			{"set k 0 0 1\r\nx\r\n", "STORED\r\n"},
			{"gat -1 k\r\nget k\r\n", fmt.Sprintf(val, "k", "x") + "END\r\n"},
		}},
		{"set-flush-set-get-get", []step{
			{"set c 0 0 1\r\n1\r\nflush_all noreply\r\nset d 0 0 1\r\n2\r\nget c\r\nget d\r\n",
				"STORED\r\nSTORED\r\nEND\r\n" + fmt.Sprintf(val, "d", "2")},
		}},
		{"flush-zero-then-add", []step{
			{"set c 0 0 1\r\n1\r\n", "STORED\r\n"},
			{"flush_all 0\r\nadd c 0 0 1\r\n2\r\n", "OK\r\nSTORED\r\n"},
			{"get c\r\n", fmt.Sprintf(val, "c", "2")},
		}},
	}
	forEachModelBackend(t, Config{}, func(t *testing.T, srv *Server) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				runTranscript(t, srv.Addr(), tc.steps)
				runTranscript(t, srv.Addr(), []step{{"flush_all\r\n", "OK\r\n"}})
			})
		}
	})
}

// burstExchange sends req as one write and reads until the reply ends with
// tail (the reply of the burst's last command).
func burstExchange(t *testing.T, c net.Conn, req, tail string) string {
	t.Helper()
	if _, err := c.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var got []byte
	buf := make([]byte, 4096)
	for !bytes.HasSuffix(got, []byte(tail)) {
		n, err := c.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			t.Fatalf("read after %q: %v (got %q)", req, err, got)
		}
	}
	return string(got)
}

// TestBurstSteppingClock: under a Config.Clock that advances 100 ms per
// call, a value stored for one second and read 32 times in the same burst
// is hit, then missed, never hit again — and every get has moved the clock,
// so at most nine of them land inside the second.
func TestBurstSteppingClock(t *testing.T) {
	var ticks atomic.Int64
	epoch := time.Unix(1_700_000_000, 0)
	cfg := Config{
		MaintainInterval: time.Hour,
		Clock: func() time.Time {
			return epoch.Add(time.Duration(ticks.Add(1)) * 100 * time.Millisecond)
		},
	}
	forEachModelBackend(t, cfg, func(t *testing.T, srv *Server) {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		const gets = 32
		// A sentinel command closes the burst so the reader knows where the
		// variable-length run of hits and misses ends.
		req := "set a 0 1 1\r\nx\r\n" + strings.Repeat("get a\r\n", gets) + "version\r\n"
		got := burstExchange(t, c, req, "VERSION "+srv.cfg.Version+"\r\n")
		rest, ok := strings.CutPrefix(got, "STORED\r\n")
		if !ok {
			t.Fatalf("reply %q does not start with STORED", got)
		}
		rest = strings.TrimSuffix(rest, "VERSION "+srv.cfg.Version+"\r\n")
		hits, misses := 0, 0
		for rest != "" {
			if r, ok := strings.CutPrefix(rest, "VALUE a 0 1\r\nx\r\nEND\r\n"); ok {
				if misses > 0 {
					t.Fatalf("hit after a miss in %q", got)
				}
				hits, rest = hits+1, r
				continue
			}
			r, ok := strings.CutPrefix(rest, "END\r\n")
			if !ok {
				t.Fatalf("unexpected reply bytes %q in %q", rest, got)
			}
			misses, rest = misses+1, r
		}
		if hits+misses != gets || hits < 1 || hits > 9 {
			t.Fatalf("%d hits, %d misses over %d gets; want 1..9 hits then misses", hits, misses, gets)
		}
	})
}

// TestBurstClockCallCount: a counting Config.Clock sees at least one call
// per command and at most two more for a whole burst — no handler, store
// path or bookkeeping stamp takes a hidden second reading.
func TestBurstClockCallCount(t *testing.T) {
	var calls atomic.Int64
	epoch := time.Unix(1_700_000_000, 0)
	cfg := Config{
		MaintainInterval: time.Hour,
		Clock: func() time.Time {
			return epoch.Add(time.Duration(calls.Add(1)) * time.Millisecond)
		},
	}
	burst := []string{
		"set a 0 100 1\r\n1\r\n",
		"add b 0 0 1\r\n2\r\n",
		"replace a 0 100 1\r\n3\r\n",
		"append a 0 0 1\r\n4\r\n",
		"get a b\r\n",
		"gets a\r\n",
		"incr b 5\r\n",
		"touch a 200\r\n",
		"gat 300 a\r\n",
		"delete b\r\n",
		"get b\r\n",
		"flush_all 10\r\n",
		"set c 0 -1 1\r\n5\r\n",
		"get c\r\n",
		"cas a 0 50 1 1\r\n6\r\n",
		"decr nokey 1\r\n",
	}
	forEachModelBackend(t, cfg, func(t *testing.T, srv *Server) {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// A first round trip gets accept-time stamps out of the way.
		burstExchange(t, c, "version\r\n", "\r\n")
		settle := func() int64 {
			n := calls.Load()
			for {
				time.Sleep(20 * time.Millisecond)
				m := calls.Load()
				if m == n {
					return n
				}
				n = m
			}
		}
		before := settle()
		got := burstExchange(t, c, strings.Join(burst, ""), "NOT_FOUND\r\n")
		if strings.Count(got, "\r\n") < len(burst) {
			t.Fatalf("burst reply too short: %q", got)
		}
		n := settle() - before
		if lo, hi := int64(len(burst)), int64(len(burst)+2); n < lo || n > hi {
			t.Fatalf("Config.Clock called %d times for a burst of %d commands, want %d..%d", n, len(burst), lo, hi)
		}
	})
}

// TestStatsGetsDerived: cmd_get is the sum of get_hits and get_misses on
// the wire, and `stats reset` zeroes all three.
func TestStatsGetsDerived(t *testing.T) {
	srv := startServer(t, kv.NewMallocBackend(), Config{})
	runTranscript(t, srv.Addr(), []step{
		{"set k 0 0 1\r\nx\r\n", "STORED\r\n"},
		{"get k\r\nget k nope\r\nget nope\r\n", "VALUE k 0 1\r\nx\r\nEND\r\nVALUE k 0 1\r\nx\r\nEND\r\nEND\r\n"},
	})
	stat := func(name string) string {
		t.Helper()
		for _, row := range srv.StatsSnapshot() {
			if row.Name == name {
				return row.Value
			}
		}
		t.Fatalf("no stat %q", name)
		return ""
	}
	if g, h, m := stat("cmd_get"), stat("get_hits"), stat("get_misses"); g != "4" || h != "2" || m != "2" {
		t.Fatalf("cmd_get/get_hits/get_misses = %s/%s/%s, want 4/2/2", g, h, m)
	}
	runTranscript(t, srv.Addr(), []step{{"stats reset\r\n", "RESET\r\n"}})
	if g, h, m := stat("cmd_get"), stat("get_hits"), stat("get_misses"); g != "0" || h != "0" || m != "0" {
		t.Fatalf("after reset cmd_get/get_hits/get_misses = %s/%s/%s, want 0/0/0", g, h, m)
	}
}

// TestThinkTimeIsNotServerTime: a client that sends a storage command's
// line, pauses, and then sends the data block has paused on its own time.
// On either transport the command is dispatched, timed and given its time
// only once its whole frame is buffered, so the pause is in neither the set
// histogram nor the slow-op ring, and a one-second TTL counts from the
// completed frame: the value is alive although the (mock) clock moved two
// seconds between line and body.
func TestThinkTimeIsNotServerTime(t *testing.T) {
	forEachTransport(t, Config{MaintainInterval: time.Hour}, func(t *testing.T, cfg Config) {
		clk := newTestClock()
		cfg.Clock = clk.Now
		srv := startServer(t, kv.NewMallocBackend(), cfg)
		c := dialRaw(t, srv.Addr())
		defer c.Close()
		if err := writeAll(c, "set k 0 1 5\r\n"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(60 * time.Millisecond)
		clk.Advance(2 * time.Second)
		if err := writeAll(c, "hello\r\nget k\r\n"); err != nil {
			t.Fatal(err)
		}
		expectRead(t, c, "STORED\r\nVALUE k 0 5\r\nhello\r\nEND\r\n")
		if worst := srv.OpLatency("set").Max(); worst >= 10*time.Millisecond {
			t.Errorf("set recorded at %v: the client's 60 ms pause was booked as server latency", worst)
		}
		if ops := srv.SlowOps(); len(ops) != 0 {
			t.Errorf("slow-op ring holds %+v after a command whose client was slow, not the server", ops)
		}
	})
}
