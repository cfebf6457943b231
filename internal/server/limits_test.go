package server

// Connection-limits and backpressure battery: the -max-conns accept
// gate (exact listen_disabled_num accounting and post-disconnect
// recovery), mock-clock idle reaping of slow-loris sockets, the bounded
// command-line read (one hostile newline-free stream must not grow
// memory), slow-client write budgets (reply backlog cap and per-write
// deadlines), transient-accept-error retry, and the Shutdown-vs-reaper
// close race.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/kv"
	"alaska/internal/rt"
)

// dialRaw opens a plain TCP connection to the server.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// expectRead asserts the next len(want) response bytes.
func expectRead(t *testing.T, c net.Conn, want string) {
	t.Helper()
	buf := make([]byte, len(want))
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read: %v (got %q so far)", err, buf)
	}
	if string(buf) != want {
		t.Fatalf("got %q, want %q", buf, want)
	}
}

// expectNoData asserts the connection stays silent for the window — the
// accept gate is holding it in the backlog.
func expectNoData(t *testing.T, c net.Conn, window time.Duration) {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(window))
	buf := make([]byte, 1)
	n, err := c.Read(buf)
	if n > 0 {
		t.Fatalf("expected silence, got %q", buf[:n])
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("expected read timeout, got %v", err)
	}
	_ = c.SetReadDeadline(time.Time{})
}

// statsVia fetches the stats map over a fresh connection.
func statsVia(t *testing.T, addr string) map[string]string {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAcceptGateConformance is the -max-conns acceptance criterion: with
// the cap at N, N+K concurrent connections produce exactly K deferred
// accepts in listen_disabled_num, and the server recovers the full
// accept rate once connections disconnect.
func TestAcceptGateConformance(t *testing.T) {
	const maxConns, extra = 2, 3
	srv := startServer(t, kv.NewMallocBackend(), Config{
		Addr:     "127.0.0.1:0",
		MaxConns: maxConns,
		Version:  "gatetest",
	})

	// Fill the cap: these round-trip immediately.
	var served []net.Conn
	for i := 0; i < maxConns; i++ {
		c := dialRaw(t, srv.Addr())
		defer c.Close()
		if _, err := c.Write([]byte("version\r\n")); err != nil {
			t.Fatal(err)
		}
		expectRead(t, c, "VERSION gatetest\r\n")
		served = append(served, c)
	}

	// K more: the TCP handshake completes via the kernel backlog, but the
	// gate must not serve them — each sends version+quit up front so that
	// once accepted it is answered and its slot cascades to the next.
	var pending []net.Conn
	for i := 0; i < extra; i++ {
		c := dialRaw(t, srv.Addr())
		defer c.Close()
		if _, err := c.Write([]byte("version\r\nquit\r\n")); err != nil {
			t.Fatal(err)
		}
		pending = append(pending, c)
	}
	for _, c := range pending {
		expectNoData(t, c, 150*time.Millisecond)
	}

	// One disconnect opens the gate; the quit-cascade then serves all K
	// pending connections, each a deferred accept.
	_ = served[0].Close()
	for _, c := range pending {
		expectRead(t, c, "VERSION gatetest\r\n")
	}
	_ = served[1].Close()
	// Let the slot churn settle so the accept loop is parked in a plain
	// accept again before the fresh connection arrives.
	time.Sleep(200 * time.Millisecond)

	// Recovery: a fresh connection is served promptly — and, having never
	// waited in the backlog behind a full gate, it must NOT count as a
	// deferred accept.
	st := statsVia(t, srv.Addr())
	if got := st["listen_disabled_num"]; got != strconv.Itoa(extra) {
		t.Errorf("listen_disabled_num = %s, want %d", got, extra)
	}
	if got := st["max_connections"]; got != strconv.Itoa(maxConns) {
		t.Errorf("max_connections = %s, want %d", got, maxConns)
	}
}

// TestIdleReapMockClock drives the idle reaper with a manual clock: a
// connection that completed a command and went quiet, and a slow-loris
// connection stuck mid-command-line, are both reaped once the clock
// passes IdleTimeout — partial bytes are not activity — while a
// connection whose last command is recent survives.
func TestIdleReapMockClock(t *testing.T) {
	forEachTransport(t, Config{
		Addr:             "127.0.0.1:0",
		IdleTimeout:      10 * time.Second,
		MaintainInterval: 2 * time.Millisecond,
		Version:          "idletest",
	}, func(t *testing.T, cfg Config) {
		clk := newTestClock()
		cfg.Clock = clk.Now
		srv := startServer(t, kv.NewMallocBackend(), cfg)

		quiet := dialRaw(t, srv.Addr())
		defer quiet.Close()
		if _, err := quiet.Write([]byte("version\r\n")); err != nil {
			t.Fatal(err)
		}
		expectRead(t, quiet, "VERSION idletest\r\n")

		loris := dialRaw(t, srv.Addr())
		defer loris.Close()
		if _, err := loris.Write([]byte("get half-a-comm")); err != nil { // no newline
			t.Fatal(err)
		}
		// Give the server a beat to register both connections' activity at
		// the current (frozen) clock.
		time.Sleep(50 * time.Millisecond)

		clk.Advance(11 * time.Second)

		// Both connections must be closed by the reaper (observed as EOF /
		// reset) within real milliseconds — the reaper polls every tick even
		// though its idleness arithmetic runs on the mock clock.
		for name, c := range map[string]net.Conn{"quiet": quiet, "loris": loris} {
			_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Read(make([]byte, 1)); err == nil {
				t.Fatalf("%s connection still alive past the idle deadline", name)
			}
		}

		// A fresh connection's activity stamp is taken at the advanced clock,
		// so it survives to read the stats.
		st := statsVia(t, srv.Addr())
		if kicks, _ := strconv.Atoi(st["idle_kicks"]); kicks != 2 {
			t.Errorf("idle_kicks = %s, want 2", st["idle_kicks"])
		}
	})
}

// TestLineTooLongRegression is the unbounded-ReadString regression test:
// a client streaming 64 MiB without a newline gets CLIENT_ERROR line too
// long while the server's memory stays bounded (the line is never
// buffered), and the stream resyncs at the next newline.
func TestLineTooLongRegression(t *testing.T) {
	forEachTransport(t, Config{Addr: "127.0.0.1:0", Version: "linetest"}, func(t *testing.T, cfg Config) {
		srv := startServer(t, kv.NewMallocBackend(), cfg)
		c := dialRaw(t, srv.Addr())
		defer c.Close()

		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)

		chunk := []byte(strings.Repeat("a", 64<<10))
		const total = 64 << 20
		for sent := 0; sent < total; sent += len(chunk) {
			if _, err := c.Write(chunk); err != nil {
				t.Fatalf("write after %d bytes: %v", sent, err)
			}
		}

		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		// The engine drops the stream a read (16 KiB) at a time;
		// 64 MiB in flight must not show up on the heap. (The client-side
		// chunk and test overhead stay far under the bound too.)
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 8<<20 {
			t.Errorf("heap grew %d bytes while streaming a 64 MiB line; want bounded", grew)
		}

		// The error was answered as soon as the cap was hit, and the next
		// newline resyncs the stream: a follow-up command parses normally.
		if _, err := c.Write([]byte("\r\nversion\r\n")); err != nil {
			t.Fatal(err)
		}
		expectRead(t, c, "CLIENT_ERROR line too long\r\nVERSION linetest\r\n")
	})
}

// TestReplyBacklogKick: a client that pipelines retrievals without ever
// reading the responses stops being served once MaxReplyBacklog bytes
// are pending; since it isn't reading, the write misses its deadline
// (goroutine transport: the blocking flush; event transport: the sweep
// over the stalled spill) and the client is disconnected
// (slow_client_kicks) after at most ~budget + kernel-buffer bytes —
// never streamed at from an unbounded queue.
func TestReplyBacklogKick(t *testing.T) {
	forEachTransport(t, Config{
		Addr:            "127.0.0.1:0",
		MaxReplyBacklog: 32 << 10,
		WriteTimeout:    200 * time.Millisecond,
	}, func(t *testing.T, cfg Config) {
		srv := startServer(t, kv.NewMallocBackend(), cfg)
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Set("big", 0, []byte(strings.Repeat("x", 16<<10))); err != nil {
			t.Fatal(err)
		}

		c := dialRaw(t, srv.Addr())
		defer c.Close()
		// 400 pipelined gets of a 16 KiB value = ~6.4 MiB of replies against
		// a 32 KiB budget; the client reads nothing.
		if _, err := c.Write([]byte(strings.Repeat("get big\r\n", 400))); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			st := statsVia(t, srv.Addr())
			if kicks, _ := strconv.Atoi(st["slow_client_kicks"]); kicks >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("non-reading pipelined client never kicked")
			}
			time.Sleep(20 * time.Millisecond)
		}
		// The cut stream ends in EOF/reset once drained.
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, c); err == io.EOF {
			t.Fatal("io.Copy cannot return EOF") // Copy maps EOF to nil
		}
	})
}

// TestReplyBacklogHonestClient is the false-positive regression: a
// client whose pipelined burst far exceeds MaxReplyBacklog but who IS
// reading its responses drains every flush and is never kicked.
func TestReplyBacklogHonestClient(t *testing.T) {
	forEachTransport(t, Config{
		Addr:            "127.0.0.1:0",
		MaxReplyBacklog: 32 << 10,
		WriteTimeout:    time.Second,
	}, func(t *testing.T, cfg Config) {
		srv := startServer(t, kv.NewMallocBackend(), cfg)
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		const valSize = 16 << 10
		if err := cl.Set("big", 0, []byte(strings.Repeat("x", valSize))); err != nil {
			t.Fatal(err)
		}

		c := dialRaw(t, srv.Addr())
		defer c.Close()
		const gets = 100
		if _, err := c.Write([]byte(strings.Repeat("get big\r\n", gets))); err != nil {
			t.Fatal(err)
		}
		// Read every byte of the ~1.6 MiB reply stream promptly.
		perReply := len("VALUE big 0 16384\r\n") + valSize + len("\r\n") + len("END\r\n")
		_ = c.SetReadDeadline(time.Now().Add(30 * time.Second))
		if _, err := io.ReadFull(c, make([]byte, gets*perReply)); err != nil {
			t.Fatalf("reading the burst: %v", err)
		}
		// Still alive, and never counted slow.
		if _, err := c.Write([]byte("version\r\n")); err != nil {
			t.Fatal(err)
		}
		expectRead(t, c, "VERSION ")
		st := statsVia(t, srv.Addr())
		if st["slow_client_kicks"] != "0" {
			t.Errorf("slow_client_kicks = %s for a promptly-reading client, want 0", st["slow_client_kicks"])
		}
	})
}

// TestLargeMaxLineLen: a MaxLineLen above the default 16 KiB read window
// must actually be honored — the reader is sized to fit it.
func TestLargeMaxLineLen(t *testing.T) {
	srv := startServer(t, kv.NewMallocBackend(), Config{
		Addr:       "127.0.0.1:0",
		MaxLineLen: 32 << 10,
	})
	c := dialRaw(t, srv.Addr())
	defer c.Close()
	if err := writeAll(c, "set k 0 0 1\r\nv\r\n"); err != nil {
		t.Fatal(err)
	}
	expectRead(t, c, "STORED\r\n")
	// A 20 KiB multi-get line: within the configured cap, over the old
	// window size. Every key resolves to the same stored value.
	line := "get" + strings.Repeat(" k", 10<<10) + "\r\n"
	if err := writeAll(c, line); err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("VALUE k 0 1\r\nv\r\n", 10<<10) + "END\r\n"
	expectRead(t, c, want)
}

func writeAll(c net.Conn, s string) error {
	_, err := c.Write([]byte(s))
	return err
}

// TestSlowWriterDeadlineKick: with the backlog cap off, a client that
// stops reading entirely still cannot wedge the handler — each socket
// write carries a deadline, and the first one to miss it disconnects the
// client.
func TestSlowWriterDeadlineKick(t *testing.T) {
	forEachTransport(t, Config{
		Addr:            "127.0.0.1:0",
		WriteTimeout:    200 * time.Millisecond,
		MaxReplyBacklog: -1,
	}, func(t *testing.T, cfg Config) {
		srv := startServer(t, kv.NewMallocBackend(), cfg)
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Set("big", 0, []byte(strings.Repeat("x", 256<<10))); err != nil {
			t.Fatal(err)
		}

		c := dialRaw(t, srv.Addr())
		defer c.Close()
		// 64 pipelined gets of 256 KiB = 16 MiB: far beyond what the kernel
		// socket buffers can absorb, so a server write must block on this
		// never-reading client and trip the deadline.
		if _, err := c.Write([]byte(strings.Repeat("get big\r\n", 64))); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		deadline := time.Now().Add(15 * time.Second)
		for {
			st := statsVia(t, srv.Addr())
			if kicks, _ := strconv.Atoi(st["slow_client_kicks"]); kicks >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("slow client never kicked by the write deadline")
			}
			time.Sleep(20 * time.Millisecond)
		}
		if waited := time.Since(start); waited > 10*time.Second {
			t.Errorf("kick took %v; the 200ms write deadline should fire far sooner", waited)
		}
	})
}

// flakyListener injects transient accept errors (EMFILE-style) before
// handing out real connections.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: errors.New("too many open files")}
	}
	return l.Listener.Accept()
}

// TestAcceptErrorRetry: transient accept errors must not kill the
// server — Serve retries with backoff, counts them in accept_errors, and
// keeps serving.
func TestAcceptErrorRetry(t *testing.T) {
	store := kv.NewShardedStore(kv.NewMallocBackend(), 8, 0)
	srv := New(store, Config{Addr: "127.0.0.1:0", Version: "flaketest"})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: srv.ln}
	fl.fails.Store(3)
	srv.ln = fl
	go func() {
		if err := srv.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { _ = srv.Shutdown(2 * time.Second) })

	// The three injected failures burn ~5+10+20ms of backoff; the dial
	// must still be served.
	c := dialRaw(t, srv.Addr())
	defer c.Close()
	if _, err := c.Write([]byte("version\r\n")); err != nil {
		t.Fatal(err)
	}
	expectRead(t, c, "VERSION flaketest\r\n")

	st := statsVia(t, srv.Addr())
	if got := st["accept_errors"]; got != "3" {
		t.Errorf("accept_errors = %s, want 3", got)
	}
}

// TestShutdownReapRace hammers the three closers of a connection —
// handler exit, idle reaper, Shutdown's force-close — against each
// other. Run under -race: the pass criterion is no race, no double-close
// panic, and Shutdown returning.
func TestShutdownReapRace(t *testing.T) {
	for round := 0; round < 5; round++ {
		store := kv.NewShardedStore(kv.NewMallocBackend(), 8, 0)
		srv := New(store, Config{
			Addr:             "127.0.0.1:0",
			IdleTimeout:      5 * time.Millisecond,
			MaintainInterval: time.Millisecond,
		})
		if err := srv.Listen(); err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve() }()

		var wg sync.WaitGroup
		conns := make([]net.Conn, 0, 8)
		for i := 0; i < 8; i++ {
			c, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, c)
			if i%2 == 0 {
				fmt.Fprintf(c, "set k%d 0 0 3\r\nabc\r\n", i)
			} // odd conns idle immediately and get reaped
		}
		// Let the reaper start kicking, then race Shutdown against it and
		// against client-side closes.
		time.Sleep(8 * time.Millisecond)
		wg.Add(2)
		go func() { defer wg.Done(); _ = srv.Shutdown(20 * time.Millisecond) }()
		go func() {
			defer wg.Done()
			for _, c := range conns {
				_ = c.Close()
			}
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Shutdown deadlocked against the idle reaper")
		}
	}
}

// TestSlowLorisDefragRace is the acceptance criterion tying the reaper
// to the paper's machinery: a slow-loris connection (half a command,
// then silence) is reaped within the idle timeout while the §7
// pause-free defrag passes keep completing under live traffic — a dead
// client never blocks defrag progress.
func TestSlowLorisDefragRace(t *testing.T) {
	forEachTransport(t, Config{
		Addr:             "127.0.0.1:0",
		MaintainInterval: 2 * time.Millisecond,
		DefragFragHigh:   1.1,
		DefragBudget:     256 * 1024,
		IdleTimeout:      300 * time.Millisecond,
	}, func(t *testing.T, cfg Config) {
		acfg := anchorage.DefaultConfig()
		acfg.SubHeapSize = 256 * 1024
		acfg.FragLow = 1.1
		acfg.WakeInterval = 5 * time.Millisecond
		backend, err := kv.NewAnchorageBackend(acfg, rt.WithPinMode(rt.CountedPins))
		if err != nil {
			t.Fatal(err)
		}
		store := kv.NewShardedStore(backend, 8, 0)
		srv := New(store, cfg)
		if cfg.ConnModel == "event" {
			requireEventModel(t, srv)
		}
		if err := srv.Listen(); err != nil {
			t.Fatal(err)
		}
		go func() {
			if err := srv.Serve(); err != nil {
				t.Errorf("serve: %v", err)
			}
		}()
		defer srv.Shutdown(5 * time.Second)

		// Fragmenting traffic on 4 workers for the whole test.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cl, err := Dial(srv.Addr())
				if err != nil {
					t.Error(err)
					return
				}
				defer cl.Close()
				val := make([]byte, 1024)
				for op := 0; ; op++ {
					select {
					case <-stop:
						return
					default:
					}
					key := "w" + strconv.Itoa(w) + "-k" + strconv.Itoa(op%64)
					if err := cl.Set(key, 0, val[:32+(op*37)%992]); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}(w)
		}

		// Let traffic build fragmentation, then snapshot defrag progress.
		time.Sleep(300 * time.Millisecond)
		before := statsVia(t, srv.Addr())
		passesBefore, _ := strconv.ParseInt(before["defrag_concurrent_passes"], 10, 64)

		// The loris: half a command, then silence. It holds a kv.Session (an
		// rt.Thread) while it stalls.
		loris := dialRaw(t, srv.Addr())
		defer loris.Close()
		if _, err := loris.Write([]byte("set hostage 0 0 5\r\nhel")); err != nil { // stalls mid-body
			t.Fatal(err)
		}
		lorisStart := time.Now()
		_ = loris.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := loris.Read(make([]byte, 1)); err == nil {
			t.Fatal("loris connection unexpectedly got data")
		}
		reapedAfter := time.Since(lorisStart)
		if reapedAfter > 5*time.Second {
			t.Errorf("loris reaped after %v; idle timeout is 300ms", reapedAfter)
		}

		close(stop)
		wg.Wait()

		st := statsVia(t, srv.Addr())
		passesAfter, _ := strconv.ParseInt(st["defrag_concurrent_passes"], 10, 64)
		if passesAfter <= passesBefore {
			t.Errorf("defrag made no progress while the loris stalled: %d -> %d passes",
				passesBefore, passesAfter)
		}
		if kicks, _ := strconv.Atoi(st["idle_kicks"]); kicks < 1 {
			t.Errorf("idle_kicks = %s, want >= 1", st["idle_kicks"])
		}
		if st["protocol_errors"] != "0" {
			t.Errorf("protocol_errors = %s, want 0", st["protocol_errors"])
		}
		t.Logf("loris reaped in %v; defrag passes %d -> %d", reapedAfter, passesBefore, passesAfter)
	})
}
