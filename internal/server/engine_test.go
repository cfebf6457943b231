package server

import (
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"alaska/internal/kv"
)

// scriptIO is the engine's seam with no socket under it, scripted call by
// call. A read returns the next scripted chunk (as much as fits), and the
// read after it reports again, so every chunk arrives in a wake of its own,
// as at EAGAIN. A writev takes take() bytes — take must return at least 1 —
// and the writev after it reports again; with no take, every writev reports
// again and replies stay in the engine. written holds what was taken.
type scriptIO struct {
	reads        [][]byte
	take         func() int
	written      []byte
	rWait, wWait bool // the next read / writev reports again
}

func (s *scriptIO) read(p []byte) (int, bool, error) {
	if s.rWait || len(s.reads) == 0 {
		s.rWait = false
		return 0, true, nil
	}
	n := copy(p, s.reads[0])
	if s.reads[0] = s.reads[0][n:]; len(s.reads[0]) == 0 {
		s.reads = s.reads[1:]
	}
	s.rWait = true
	return n, false, nil
}

func (s *scriptIO) writev(a, b []byte) (int, bool, error) {
	if s.wWait || s.take == nil {
		s.wWait = false
		return 0, true, nil
	}
	n := min(s.take(), len(a)+len(b))
	na := min(n, len(a))
	s.written = append(append(s.written, a[:na]...), b[:n-na]...)
	s.wWait = true
	return n, false, nil
}

// playScripted plays g through one engine over the scripted seam, the way
// an event worker drives a connection: every request arrives in the chunks
// cut makes of it, every writev takes take() bytes, and between wakes the
// engine parks and begins again, spilling what it has not consumed or
// drained. backlog, when non-zero, is the MaxReplyBacklog, so a small one
// parks the connection for writability. Each step's reply must be the
// transcript's, byte for byte.
func playScripted(t *testing.T, g *golden, cut func(string) []string, take func() int, backlog int) {
	t.Helper()
	cfg := g.cfg
	cfg.ConnModel, cfg.Workers = "goroutine", 1
	if backlog != 0 {
		cfg.MaxReplyBacklog = backlog
	}
	srv := New(kv.NewShardedStore(kv.NewMallocBackend(), 8, 0), cfg)
	sock, pc := &scriptIO{take: take}, &pollConn{id: 1}
	e := srv.newEngine(srv.store.NewSession(), pc, sock)
	defer e.sess.Close()
	want := ""
	for i, st := range g.steps {
		var chunks []string
		for _, c := range cut(st.send) {
			sock.reads = append(sock.reads, []byte(c))
			chunks = append(chunks, c)
		}
		want += st.want
		// Every wake moves at least one byte in or out until the step is
		// done: the input read and consumed, every reply drained.
		for wakes := 0; ; wakes++ {
			v := e.burst()
			if v == brClosed {
				t.Fatalf("step %d (sent %q): connection closed", i, chunks)
			}
			e.park()
			e.begin(pc, sock)
			if v == brPark && len(sock.reads) == 0 && len(pc.outSpill) == 0 {
				break
			}
			if wakes > 4*(len(want)+len(st.send))+16 {
				t.Fatalf("step %d (sent %q): no progress after %d wakes", i, chunks, wakes)
			}
		}
		if got := string(sock.written); got != want {
			t.Fatalf("step %d: sent %q\n got  %q\n want %q", i, chunks, got, want)
		}
	}
}

// TestEngineEveryByteShortWrites holds the event engine's park/spill and
// partial-writev paths to the standard TestProtocolSplitWrites holds the
// framing to, with no socket and no timing in the way: every request of
// every golden transcript is cut in two at every byte k (the cut is a wake
// boundary — the read after the head reports again), every writev takes
// 1..k bytes and then reports again, and the output must be the
// transcript's exact bytes. Seeded runs then cut every request at up to
// eight random points, and every other one parks for writability behind a
// one-byte reply backlog.
//
// Mutation: treat a partial write as complete (in flush, set
// e.spillOff = len(e.spill) whatever n is) and the spilled replies lose
// bytes: this fails.
func TestEngineEveryByteShortWrites(t *testing.T) {
	for name, g := range goldens {
		t.Run("every-byte/"+name, func(t *testing.T) {
			longest := 0
			for _, st := range g.steps {
				longest = max(longest, len(st.send))
			}
			for k := 1; k < longest; k++ {
				rng := rand.New(rand.NewSource(int64(k)))
				cut := func(s string) []string {
					if k >= len(s) {
						return []string{s}
					}
					return []string{s[:k], s[k:]}
				}
				playScripted(t, g, cut, func() int { return 1 + rng.Intn(k) }, 0)
			}
		})
		t.Run("seeded/"+name, func(t *testing.T) {
			for seed := int64(1); seed <= 64; seed++ {
				rng := rand.New(rand.NewSource(seed))
				cut := func(s string) []string {
					var out []string
					for n := rng.Intn(9); n > 0 && len(s) > 1; n-- {
						k := 1 + rng.Intn(len(s)-1)
						out, s = append(out, s[:k]), s[k:]
					}
					return append(out, s)
				}
				most := 1 + rng.Intn(64)
				playScripted(t, g, cut, func() int { return 1 + rng.Intn(most) }, int(seed%2))
			}
		})
	}
}

// TestTransportsAgreeOnConnCounters plays one transcript, ended by quit,
// over each transport, and reads the connection counters once the client
// has seen EOF. The burst loop and its flush count bytes_read and
// bytes_written for both transports, and the one teardown settles
// curr_connections before the socket closes. So each transport reads
// exactly the bytes the client sent and received, one connection in total
// and none current, and the two agree.
//
// Mutation: drop bytesRead.Add from the burst loop and both legs read 0
// bytes: this fails.
func TestTransportsAgreeOnConnCounters(t *testing.T) {
	g := &protocolGolden
	sent, recv := int64(len("quit\r\n")), int64(0)
	for _, st := range g.steps {
		sent, recv = sent+int64(len(st.send)), recv+int64(len(st.want))
	}
	type counters struct{ read, written, total, curr int64 }
	seen := map[string]counters{}
	forEachTransport(t, g.cfg, func(t *testing.T, cfg Config) {
		srv := startServer(t, kv.NewMallocBackend(), cfg)
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(10 * time.Second))
		for i, st := range g.steps {
			if _, err := c.Write([]byte(st.send)); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			got := make([]byte, len(st.want))
			if _, err := io.ReadFull(c, got); err != nil || string(got) != st.want {
				t.Fatalf("step %d: got %q (%v), want %q", i, got, err, st.want)
			}
		}
		if _, err := c.Write([]byte("quit\r\n")); err != nil {
			t.Fatal(err)
		}
		if n, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("after quit: read %d bytes, err %v; want EOF", n, err)
		}
		got := counters{srv.bytesRead.Load(), srv.bytesWritten.Load(), srv.totalConns.Load(), srv.currConns.Load()}
		if want := (counters{sent, recv, 1, 0}); got != want {
			t.Errorf("counters after EOF: %+v, want %+v", got, want)
		}
		seen[srv.ConnModel()] = got
	})
	if len(seen) == 2 && seen["goroutine"] != seen["event"] {
		t.Errorf("transports disagree: goroutine %+v, event %+v", seen["goroutine"], seen["event"])
	}
}
