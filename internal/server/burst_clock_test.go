package server

// One time per command, one clock reading per burst: every command of a
// pipelined burst uses a single time for its deadline, its flush epoch and
// every store call, and the times of successive commands strictly
// increase; the burst is timed once and each command recorded at its
// share (TestBurstAccounting). Each transcript below is
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

// accountingBurst is one read of 24 gets and 8 sets, a set of acct:0 first.
func accountingBurst() (req, reply string) {
	for i := 0; i < 8; i++ {
		req += fmt.Sprintf("set acct:%d 0 0 4\r\nvvvv\r\n", i)
		reply += "STORED\r\n"
		for j := 0; j < 3; j++ {
			req += fmt.Sprintf("get acct:%d\r\n", i)
			reply += fmt.Sprintf("VALUE acct:%d 0 4\r\nvvvv\r\nEND\r\n", i)
		}
	}
	return req, reply
}

// TestBurstAccounting: a process() call is timed once and its commands
// share that time. On an engine over a scripted seam, one read of 24 gets
// and 8 sets is one call: the get and set counts rise by exactly 24 and 8,
// each command is one equal share (Sum(get)/24 == Sum(set)/8) and the
// shares add up to no more than the call took, and at a 1 ns threshold
// the call is one slow-op entry under its first command and key. A
// following one-command call is recorded on its own. Over both
// transports, where a loopback write may arrive in two reads, the counts
// alone hold.
//
// Mutations: record each command at the whole call time (RecordN(d, …)
// for RecordN(share, …) in foldCall) and the sums exceed the call; skip
// clearing the tally after the fold (drop `e.tally[op] = 0`) and the
// second call's get count doubles up.
func TestBurstAccounting(t *testing.T) {
	req, reply := accountingBurst()
	t.Run("engine", func(t *testing.T) {
		srv := New(kv.NewShardedStore(kv.NewMallocBackend(), 8, 0),
			Config{ConnModel: "goroutine", SlowOpThreshold: time.Nanosecond})
		sock := &scriptIO{take: func() int { return 1 << 20 }}
		e := srv.newEngine(srv.store.NewSession(), &pollConn{id: 7}, sock)
		defer e.sess.Close()
		wake := func(in string) time.Duration {
			t.Helper()
			sock.reads = append(sock.reads, []byte(in))
			start := time.Now()
			if v := e.burst(); v != brPark {
				t.Fatalf("burst verdict %d, want brPark", v)
			}
			return time.Since(start)
		}

		took := wake(req)
		if got := string(sock.written); got != reply {
			t.Fatalf("reply %q, want %q", got, reply)
		}
		get, set := srv.OpLatency("get"), srv.OpLatency("set")
		if get.Count() != 24 || set.Count() != 8 {
			t.Fatalf("one call of 24 gets and 8 sets recorded %d gets and %d sets", get.Count(), set.Count())
		}
		if get.Sum()/24 != set.Sum()/8 || get.Sum()%24 != 0 || set.Sum()%8 != 0 {
			t.Fatalf("get sum %v over 24, set sum %v over 8: not one share per command", get.Sum(), set.Sum())
		}
		if total := get.Sum() + set.Sum(); total > took {
			t.Fatalf("the call's 32 shares add up to %v, more than the %v the burst took", total, took)
		}
		ops := srv.SlowOps()
		if len(ops) != 1 || ops[0].Cmd != "set" || ops[0].Key != "acct:0" || ops[0].ConnID != 7 || ops[0].Latency < get.Sum()+set.Sum() {
			t.Fatalf("slow-op ring after one call: %+v, want one set acct:0 entry of the call's time", ops)
		}

		getSum := get.Sum()
		took = wake("get acct:1\r\n")
		get, set = srv.OpLatency("get"), srv.OpLatency("set")
		if get.Count() != 25 || set.Count() != 8 {
			t.Fatalf("a following one-command call left %d gets and %d sets, want 25 and 8", get.Count(), set.Count())
		}
		if d := get.Sum() - getSum; d < 0 || d > took {
			t.Fatalf("the one-command call recorded %v, outside [0, %v]", d, took)
		}
		if ops = srv.SlowOps(); len(ops) != 2 || ops[0].Cmd != "get" || ops[0].Key != "acct:1" {
			t.Fatalf("slow-op ring after the second call: %+v, want get acct:1 at its head", ops)
		}
	})
	forEachTransport(t, Config{MaintainInterval: time.Hour}, func(t *testing.T, cfg Config) {
		srv := startServer(t, kv.NewMallocBackend(), cfg)
		c := dialRaw(t, srv.Addr())
		defer c.Close()
		if err := writeAll(c, req); err != nil {
			t.Fatal(err)
		}
		expectRead(t, c, reply)
		if g, s := srv.OpLatency("get").Count(), srv.OpLatency("set").Count(); g != 24 || s != 8 {
			t.Fatalf("recorded %d gets and %d sets, want 24 and 8", g, s)
		}
		if err := writeAll(c, "get acct:1\r\n"); err != nil {
			t.Fatal(err)
		}
		expectRead(t, c, "VALUE acct:1 0 4\r\nvvvv\r\nEND\r\n")
		if g, s := srv.OpLatency("get").Count(), srv.OpLatency("set").Count(); g != 25 || s != 8 {
			t.Fatalf("after one more get: %d gets and %d sets, want 25 and 8", g, s)
		}
	})
}
