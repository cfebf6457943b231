package server

// Protocol conformance suite: golden request/response transcripts over a
// loopback connection, including the error paths (ERROR, CLIENT_ERROR
// bad data chunk, oversized values, NOT_FOUND, noreply) plus pipelined
// and split-write framing.

import (
	"bytes"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"alaska/internal/kv"
)

// startServer boots a server on a loopback port over the given backend.
// A cfg that names the event transport must get it: New falls back to the
// goroutine transport when the poller fails, which would quietly run the
// "event" leg of a per-transport test on the other one.
func startServer(t *testing.T, backend kv.Backend, cfg Config) *Server {
	t.Helper()
	return startServerWithCap(t, backend, cfg, 0)
}

// backends names the three network-facing backends, as Boot knows them.
var backends = []string{"malloc", "mesh", "anchorage"}

// testBackend builds the named backend with Boot's constructor (mesh
// seeded 1).
func testBackend(t testing.TB, name string) kv.Backend {
	t.Helper()
	backend, err := newBackend(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	return backend
}

// anchorageBackend builds the anchorage backend as Boot does.
func anchorageBackend(t testing.TB) kv.Backend { return testBackend(t, "anchorage") }

func startAnchorageServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return startServer(t, anchorageBackend(t), cfg)
}

// forEachTransport runs fn once per transport under the one protocol
// engine — subtests "goroutine" and "event" — unless cfg already names a
// ConnModel. Linux CI thereby holds the portable goroutine transport to
// every transcript and limit the event transport is held to. The event leg
// skips off Linux and fails if the poller is not live (startServer).
func forEachTransport(t *testing.T, cfg Config, fn func(t *testing.T, cfg Config)) {
	if cfg.ConnModel != "" {
		fn(t, cfg)
		return
	}
	for _, model := range []string{"goroutine", "event"} {
		t.Run(model, func(t *testing.T) {
			cfg := cfg
			cfg.ConnModel = model
			fn(t, cfg)
		})
	}
}

// forEachBackend runs fn against a fresh server on each of the three
// network-facing backends, on each transport, so every transcript is
// proven independent of both (the protocol layer must behave identically
// over raw addresses, meshed pages, and Alaska handles).
func forEachBackend(t *testing.T, cfg Config, fn func(t *testing.T, srv *Server)) {
	for _, name := range backends {
		t.Run(name, func(t *testing.T) {
			forEachTransport(t, cfg, func(t *testing.T, cfg Config) {
				fn(t, startServer(t, testBackend(t, name), cfg))
			})
		})
	}
}

// pipeConn attaches an in-memory connection to srv's goroutine transport
// and returns the client end. net.Pipe is unbuffered, so every Write here
// is delivered to the engine as one read through the conn seam: the test,
// not the kernel, decides where the engine sees a request split.
func pipeConn(t testing.TB, srv *Server) net.Conn {
	client, server := net.Pipe()
	srv.serveConn(server, srv.connIDs.Add(1))
	t.Cleanup(func() { _ = client.Close() })
	return client
}

// step is one send/expect exchange of a transcript.
type step struct {
	send string
	want string
}

// golden is a conformance transcript and the config it is written against.
// The uniques, counters and versions in it are exact for one connection to
// a fresh server.
type golden struct {
	cfg   Config
	steps []step
}

// goldens is every golden transcript that needs nothing but a connection —
// what TestProtocolSplitWrites re-runs cut at every byte.
var goldens = map[string]*golden{
	"protocol": &protocolGolden, "cas": &casGolden, "incr-decr": &incrDecrGolden,
	"append-prepend": &appendPrependGolden, "append-size-cap": &appendSizeCapGolden,
	"touch-gat": &touchGatGolden, "exptime": &exptimeGolden, "flush-all-verbosity": &flushAllVerbosityGolden,
}

// runTranscript drives a raw connection through the steps, comparing
// exact bytes.
func runTranscript(t *testing.T, addr string, steps []step) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, st := range steps {
		if st.send != "" {
			if _, err := c.Write([]byte(st.send)); err != nil {
				t.Fatalf("step %d: write: %v", i, err)
			}
		}
		if st.want == "" {
			continue
		}
		buf := make([]byte, len(st.want))
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatalf("step %d: after sending %q, read: %v (got %q so far)", i, st.send, err, buf)
		}
		if string(buf) != st.want {
			t.Fatalf("step %d: sent %q\n got  %q\n want %q", i, st.send, buf, st.want)
		}
	}
	// The transcript must account for every response byte.
	_ = c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	extra := make([]byte, 256)
	if n, _ := c.Read(extra); n > 0 {
		t.Fatalf("unconsumed response bytes: %q", extra[:n])
	}
}

var protocolGolden = golden{Config{Addr: "127.0.0.1:0", Version: "conftest", MaxValueSize: 1024}, []step{
	// Basic storage and retrieval; flags round-trip.
	{"set foo 42 0 5\r\nhello\r\n", "STORED\r\n"},
	{"get foo\r\n", "VALUE foo 42 5\r\nhello\r\nEND\r\n"},
	// gets returns the cas unique (first store on this server: 1).
	{"gets foo\r\n", "VALUE foo 42 5 1\r\nhello\r\nEND\r\n"},
	// Miss: key simply omitted.
	{"get nosuch\r\n", "END\r\n"},
	// Multi-key get: hits in request order, misses omitted.
	{"set bar 0 0 3\r\nxyz\r\n", "STORED\r\n"},
	{"get foo nosuch bar\r\n", "VALUE foo 42 5\r\nhello\r\nVALUE bar 0 3\r\nxyz\r\nEND\r\n"},
	// add/replace conditional semantics.
	{"add foo 0 0 3\r\nnew\r\n", "NOT_STORED\r\n"},
	{"add fresh 7 0 2\r\nhi\r\n", "STORED\r\n"},
	{"replace nosuch 0 0 2\r\nhi\r\n", "NOT_STORED\r\n"},
	{"replace fresh 8 0 3\r\nbye\r\n", "STORED\r\n"},
	{"get fresh\r\n", "VALUE fresh 8 3\r\nbye\r\nEND\r\n"},
	// delete: hit then miss.
	{"delete fresh\r\n", "DELETED\r\n"},
	{"delete fresh\r\n", "NOT_FOUND\r\n"},
	{"get fresh\r\n", "END\r\n"},
	// noreply set is silent; the following get observes the value.
	{"set quiet 0 0 2 noreply\r\nok\r\nget quiet\r\n", "VALUE quiet 0 2\r\nok\r\nEND\r\n"},
	// noreply delete is silent too.
	{"delete quiet noreply\r\nget quiet\r\n", "END\r\n"},
	// Unknown command and empty line.
	{"bogus\r\n", "ERROR\r\n"},
	{"\r\n", "ERROR\r\n"},
	// Malformed storage line: the would-be data block is parsed as a
	// (garbage) command.
	{"set k notanum 0 5\r\nhello\r\n", "CLIENT_ERROR bad command line format\r\nERROR\r\n"},
	// Over-long key.
	{"get " + strings.Repeat("k", 251) + "\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"delete foo extra args\r\n", "CLIENT_ERROR bad command line format\r\n"},
	// Bad data chunk: terminator is not CRLF; server reports and
	// resyncs at the next newline, so the following command parses.
	{"set k 0 0 5\r\nhelloXX\r\nversion\r\n", "CLIENT_ERROR bad data chunk\r\nVERSION conftest\r\n"},
	// Oversized value: body swallowed, stream stays in sync.
	{"set big 0 0 2000\r\n" + strings.Repeat("x", 2000) + "\r\nget big\r\n",
		"SERVER_ERROR object too large for cache\r\nEND\r\n"},
	// Leading whitespace is skipped and changes neither framing nor the
	// size cap: the body is still awaited, an oversized one still swallowed.
	{" set lead 0 0 5\r\nhello\r\n", "STORED\r\n"},
	{"\t set big 0 0 2000\r\n" + strings.Repeat("x", 2000) + "\r\nget big lead\r\n",
		"SERVER_ERROR object too large for cache\r\nVALUE lead 0 5\r\nhello\r\nEND\r\n"},
	{"version\r\n", "VERSION conftest\r\n"},
}}

func TestProtocolConformance(t *testing.T) {
	forEachTransport(t, protocolGolden.cfg, func(t *testing.T, cfg Config) {
		runTranscript(t, startAnchorageServer(t, cfg).Addr(), protocolGolden.steps)
	})
}

var casGolden = golden{Config{Addr: "127.0.0.1:0"}, []step{
	{"set n 1 0 1\r\n5\r\n", "STORED\r\n"},
	{"gets n\r\n", "VALUE n 1 1 1\r\n5\r\nEND\r\n"},
	// Matching unique: swap wins, unique advances.
	{"cas n 1 0 1 1\r\n7\r\n", "STORED\r\n"},
	{"gets n\r\n", "VALUE n 1 1 2\r\n7\r\nEND\r\n"},
	// Stale unique: EXISTS, value untouched.
	{"cas n 1 0 1 1\r\n9\r\n", "EXISTS\r\n"},
	{"get n\r\n", "VALUE n 1 1\r\n7\r\nEND\r\n"},
	// Absent key: NOT_FOUND.
	{"cas miss 0 0 1 5\r\nx\r\n", "NOT_FOUND\r\n"},
	// noreply cas is silent; the following get observes the swap.
	{"cas n 0 0 1 2 noreply\r\n8\r\nget n\r\n", "VALUE n 0 1\r\n8\r\nEND\r\n"},
	// Missing unique token: malformed (no body follows).
	{"cas n 0 0 1\r\n", "CLIENT_ERROR bad command line format\r\n"},
}}

// TestCasConformance: compare-and-swap wire semantics. Every storage
// execution consumes one cas unique from the server-wide counter, so on
// a fresh server with one connection the uniques in the transcript are
// exact.
func TestCasConformance(t *testing.T) {
	forEachBackend(t, casGolden.cfg, func(t *testing.T, srv *Server) {
		runTranscript(t, srv.Addr(), casGolden.steps)
	})
}

var incrDecrGolden = golden{Config{Addr: "127.0.0.1:0"}, []step{
	{"set n 0 0 2\r\n10\r\n", "STORED\r\n"},
	{"incr n 5\r\n", "15\r\n"},
	{"decr n 6\r\n", "9\r\n"},
	// Underflow clamps at 0 (memcached's decr rule).
	{"decr n 100\r\n", "0\r\n"},
	// Incr wraps modulo 2^64.
	{"incr n 18446744073709551615\r\n", "18446744073709551615\r\n"},
	{"incr n 3\r\n", "2\r\n"},
	{"incr miss 1\r\n", "NOT_FOUND\r\n"},
	{"decr miss 1\r\n", "NOT_FOUND\r\n"},
	// Non-numeric stored value.
	{"set s 0 0 3\r\nabc\r\n", "STORED\r\n"},
	{"incr s 1\r\n", "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"},
	{"decr s 1\r\n", "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"},
	// Bad delta: a *different* CLIENT_ERROR, and no state change.
	{"incr n xyz\r\n", "CLIENT_ERROR invalid numeric delta argument\r\n"},
	{"incr n -5\r\n", "CLIENT_ERROR invalid numeric delta argument\r\n"},
	// noreply incr is silent.
	{"incr n 1 noreply\r\nget n\r\n", "VALUE n 0 1\r\n3\r\nEND\r\n"},
	// Malformed lines.
	{"incr n\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"incr n 1 2\r\n", "CLIENT_ERROR bad command line format\r\n"},
	// incr preserves flags and refreshes the cas unique. Counter
	// audit: 12 uniques consumed above (set/incr/decr hits, misses,
	// and non-numeric attempts; bad-delta and malformed lines
	// consume none), so the set below takes 13 and the incr 14.
	{"set f 42 0 1\r\n7\r\n", "STORED\r\n"},
	{"incr f 1\r\n", "8\r\n"},
	{"gets f\r\n", "VALUE f 42 1 14\r\n8\r\nEND\r\n"},
	// Zero-padded values are numeric (memcached's strtoull), even
	// past 20 digits; all-digit overflow is not.
	{"set zp 0 0 22\r\n0000000000000000000005\r\n", "STORED\r\n"},
	{"incr zp 1\r\n", "6\r\n"},
	{"set ov 0 0 21\r\n999999999999999999999\r\n", "STORED\r\n"},
	{"incr ov 1\r\n", "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"},
}}

// TestIncrDecrConformance: 64-bit unsigned arithmetic, wrap on incr,
// clamp-at-zero on decr, and both CLIENT_ERROR variants.
func TestIncrDecrConformance(t *testing.T) {
	forEachBackend(t, incrDecrGolden.cfg, func(t *testing.T, srv *Server) {
		runTranscript(t, srv.Addr(), incrDecrGolden.steps)
	})
}

var appendPrependGolden = golden{Config{Addr: "127.0.0.1:0"}, []step{
	{"set s 9 0 3\r\nabc\r\n", "STORED\r\n"},
	{"append s 0 0 2\r\nde\r\n", "STORED\r\n"},
	// Flags stay 9: append's flags argument is ignored.
	{"get s\r\n", "VALUE s 9 5\r\nabcde\r\nEND\r\n"},
	{"prepend s 7 100 2\r\nZY\r\n", "STORED\r\n"},
	{"get s\r\n", "VALUE s 9 7\r\nZYabcde\r\nEND\r\n"},
	// The prepend was the 3rd unique consumed.
	{"gets s\r\n", "VALUE s 9 7 3\r\nZYabcde\r\nEND\r\n"},
	{"append miss 0 0 1\r\nx\r\n", "NOT_STORED\r\n"},
	{"prepend miss 0 0 1\r\nx\r\n", "NOT_STORED\r\n"},
	// --- zero-length bodies ---
	// A set with bytes=0 stores exactly the 12-byte header; flags
	// and cas must round-trip unfabricated.
	{"set z 5 0 0\r\n\r\n", "STORED\r\n"},
	{"get z\r\n", "VALUE z 5 0\r\n\r\nEND\r\n"},
	{"gets z\r\n", "VALUE z 5 0 6\r\n\r\nEND\r\n"},
	// Append onto an empty body: data appears, flags still 5.
	{"append z 0 0 1\r\nA\r\n", "STORED\r\n"},
	{"get z\r\n", "VALUE z 5 1\r\nA\r\nEND\r\n"},
	// Zero-length append/prepend onto a non-empty body: no-ops
	// that still refresh the unique.
	{"append z 0 0 0\r\n\r\n", "STORED\r\n"},
	{"gets z\r\n", "VALUE z 5 1 8\r\nA\r\nEND\r\n"},
	{"prepend z 0 0 0\r\n\r\n", "STORED\r\n"},
	{"get z\r\n", "VALUE z 5 1\r\nA\r\nEND\r\n"},
	// An empty body is not a number.
	{"set e 0 0 0\r\n\r\n", "STORED\r\n"},
	{"incr e 1\r\n", "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"},
}}

// TestAppendPrependConformance: concatenation keeps the original flags
// and issues a fresh cas unique; the zero-length-body battery proves the
// flags+cas header survives empty data bodies in both directions.
func TestAppendPrependConformance(t *testing.T) {
	forEachBackend(t, appendPrependGolden.cfg, func(t *testing.T, srv *Server) {
		runTranscript(t, srv.Addr(), appendPrependGolden.steps)
	})
}

var appendSizeCapGolden = golden{Config{Addr: "127.0.0.1:0", MaxValueSize: 16}, []step{
	{"set s 0 0 10\r\n0123456789\r\n", "STORED\r\n"},
	{"append s 0 0 6\r\nabcdef\r\n", "STORED\r\n"},
	// 16 + 1 > cap: rejected, value untouched.
	{"append s 0 0 1\r\nX\r\n", "SERVER_ERROR object too large for cache\r\n"},
	{"prepend s 0 0 1\r\nX\r\n", "SERVER_ERROR object too large for cache\r\n"},
	{"get s\r\n", "VALUE s 0 16\r\n0123456789abcdef\r\nEND\r\n"},
	// One byte over the cap behind a leading space: refused all the same.
	{" set t 0 0 17\r\n0123456789abcdefg\r\nget t\r\n", "SERVER_ERROR object too large for cache\r\nEND\r\n"},
}}

// TestAppendSizeCap: each append body may fit individually, but the
// *merged* value must still respect MaxValueSize — otherwise repeated
// appends grow an item without bound.
func TestAppendSizeCap(t *testing.T) {
	forEachBackend(t, appendSizeCapGolden.cfg, func(t *testing.T, srv *Server) {
		runTranscript(t, srv.Addr(), appendSizeCapGolden.steps)
	})
}

var touchGatGolden = golden{Config{Addr: "127.0.0.1:0"}, []step{
	{"touch miss 100\r\n", "NOT_FOUND\r\n"},
	{"set k 3 0 2\r\nhi\r\n", "STORED\r\n"},
	{"touch k 100\r\n", "TOUCHED\r\n"},
	{"get k\r\n", "VALUE k 3 2\r\nhi\r\nEND\r\n"},
	// touch 0 clears the deadline; touch -1 kills instantly.
	{"touch k 0\r\n", "TOUCHED\r\n"},
	{"touch k -1\r\n", "TOUCHED\r\n"},
	{"get k\r\n", "END\r\n"},
	{"set g1 2 0 2\r\naa\r\n", "STORED\r\n"},
	{"set g2 0 0 2\r\nbb\r\n", "STORED\r\n"},
	// gat: multi-key, misses omitted, deadline updated per hit.
	{"gat 100 g1 miss g2\r\n", "VALUE g1 2 2\r\naa\r\nVALUE g2 0 2\r\nbb\r\nEND\r\n"},
	// gats adds the unique (g1 was the 2nd consumed).
	{"gats 100 g1\r\n", "VALUE g1 2 2 2\r\naa\r\nEND\r\n"},
	// gat -1 returns the value one last time, then it is gone.
	{"gat -1 g1\r\n", "VALUE g1 2 2\r\naa\r\nEND\r\n"},
	{"get g1\r\n", "END\r\n"},
	// touch noreply is silent.
	{"set k2 0 0 1\r\nx\r\n", "STORED\r\n"},
	{"touch k2 -1 noreply\r\nget k2\r\n", "END\r\n"},
	// Malformed lines.
	{"touch k\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"touch k abc\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"gat 100\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"gat abc k\r\n", "CLIENT_ERROR bad command line format\r\n"},
}}

// TestTouchGatConformance: deadline updates with and without retrieval.
// Only instant transitions (negative exptime = immediately expired) are
// asserted here; elapsed-time behavior is covered deterministically by
// the mock-clock tests in ttl_test.go.
func TestTouchGatConformance(t *testing.T) {
	forEachBackend(t, touchGatGolden.cfg, func(t *testing.T, srv *Server) {
		runTranscript(t, srv.Addr(), touchGatGolden.steps)
	})
}

var exptimeGolden = golden{Config{Addr: "127.0.0.1:0"}, []step{
	// Negative exptime: stored, but born dead.
	{"set neg 0 -1 2\r\nxx\r\n", "STORED\r\n"},
	{"get neg\r\n", "END\r\n"},
	// add succeeds over an expired key...
	{"add neg 4 0 2\r\nyy\r\n", "STORED\r\n"},
	{"get neg\r\n", "VALUE neg 4 2\r\nyy\r\nEND\r\n"},
	// ...but replace does not revive one, and delete misses it.
	{"set dead 0 -1 1\r\nx\r\n", "STORED\r\n"},
	{"replace dead 0 0 1\r\ny\r\n", "NOT_STORED\r\n"},
	{"delete dead\r\n", "NOT_FOUND\r\n"},
	// 2592001 > 30 days: an absolute unix timestamp in 1970.
	{"set old 0 2592001 1\r\nx\r\n", "STORED\r\n"},
	{"get old\r\n", "END\r\n"},
	// Exactly 30 days is still relative: alive now.
	{"set fut 0 2592000 1\r\nx\r\n", "STORED\r\n"},
	{"get fut\r\n", "VALUE fut 0 1\r\nx\r\nEND\r\n"},
	// A far-future absolute timestamp (2100-01-01): alive.
	{"set fut2 0 4102444800 1\r\ny\r\n", "STORED\r\n"},
	{"get fut2\r\n", "VALUE fut2 0 1\r\ny\r\nEND\r\n"},
	// Exptime overflowing int64: malformed line; the body is then
	// parsed as a (garbage) command.
	{"set k 0 99999999999999999999 1\r\nx\r\n", "CLIENT_ERROR bad command line format\r\nERROR\r\n"},
}}

// TestExptimeConformance: the wire-format exptime rules that are
// deterministic under a real clock — negative means already dead,
// >30 days means an absolute unix timestamp, and dead entries are
// invisible to replace/delete but fair game for add.
func TestExptimeConformance(t *testing.T) {
	forEachBackend(t, exptimeGolden.cfg, func(t *testing.T, srv *Server) {
		runTranscript(t, srv.Addr(), exptimeGolden.steps)
	})
}

var flushAllVerbosityGolden = golden{Config{Addr: "127.0.0.1:0", Version: "conftest"}, []step{
	{"verbosity 1\r\n", "OK\r\n"},
	// noreply verbosity is silent.
	{"verbosity 2 noreply\r\nversion\r\n", "VERSION conftest\r\n"},
	{"verbosity\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"verbosity abc\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"set a 1 0 2\r\naa\r\n", "STORED\r\n"},
	{"set b 0 0 2\r\nbb\r\n", "STORED\r\n"},
	// Everything stored before the flush dies at once...
	{"flush_all\r\n", "OK\r\n"},
	{"get a b\r\n", "END\r\n"},
	// ...and is invisible to delete, like any expired item.
	{"delete a\r\n", "NOT_FOUND\r\n"},
	// Values stored after the flush are untouched.
	{"set c 0 0 2\r\ncc\r\n", "STORED\r\n"},
	{"get c\r\n", "VALUE c 0 2\r\ncc\r\nEND\r\n"},
	// noreply flush is silent and still flushes.
	{"flush_all noreply\r\nget c\r\n", "END\r\n"},
	// Malformed forms.
	{"flush_all -1\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"flush_all 10 20\r\n", "CLIENT_ERROR bad command line format\r\n"},
	{"flush_all abc\r\n", "CLIENT_ERROR bad command line format\r\n"},
}}

// TestFlushAllVerbosityConformance: flush_all as a store-wide expiry
// epoch (O(1), honored lazily) and the verbosity no-op, on all three
// backends. Only instant flushes run here; the delayed form is asserted
// deterministically under the mock clock in ttl_test.go.
func TestFlushAllVerbosityConformance(t *testing.T) {
	forEachBackend(t, flushAllVerbosityGolden.cfg, func(t *testing.T, srv *Server) {
		runTranscript(t, srv.Addr(), flushAllVerbosityGolden.steps)
		// The flushes surface in cmd_flush; the casualties in expired.
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st["cmd_flush"] != "2" {
			t.Errorf("cmd_flush = %s, want 2", st["cmd_flush"])
		}
		if exp, _ := strconv.Atoi(st["expired"]); exp < 3 {
			t.Errorf("expired = %s, want >= 3 (a, b, c)", st["expired"])
		}
	})
}

// TestRMWStatsSurface checks the new stats counters through a full
// cas/incr/decr/touch/expiry flow.
func TestRMWStatsSurface(t *testing.T) {
	srv := startAnchorageServer(t, Config{Addr: "127.0.0.1:0"})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Set("n", 0, []byte("1")); err != nil {
		t.Fatal(err)
	}
	_, _, casID, _, err := cl.Gets("n")
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cl.Cas("n", 0, 0, casID, []byte("2")); err != nil || st != CasStored {
		t.Fatalf("cas: %v %v", st, err)
	}
	if st, err := cl.Cas("n", 0, 0, casID, []byte("3")); err != nil || st != CasExists {
		t.Fatalf("stale cas: %v %v", st, err)
	}
	if st, err := cl.Cas("miss", 0, 0, 1, []byte("x")); err != nil || st != CasNotFound {
		t.Fatalf("cas miss: %v %v", st, err)
	}
	if v, found, err := cl.Incr("n", 5); err != nil || !found || v != 7 {
		t.Fatalf("incr: %d %v %v", v, found, err)
	}
	if _, found, err := cl.Incr("miss", 1); err != nil || found {
		t.Fatalf("incr miss: %v %v", found, err)
	}
	if v, found, err := cl.Decr("n", 2); err != nil || !found || v != 5 {
		t.Fatalf("decr: %d %v %v", v, found, err)
	}
	if ok, err := cl.Touch("n", 100); err != nil || !ok {
		t.Fatalf("touch: %v %v", ok, err)
	}
	if ok, err := cl.Touch("miss", 100); err != nil || ok {
		t.Fatalf("touch miss: %v %v", ok, err)
	}
	if err := cl.SetEx("dying", 0, -1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := cl.Get("dying"); err != nil || ok {
		t.Fatalf("expired get: ok=%v err=%v", ok, err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{
		"cas_hits":     "1",
		"cas_badval":   "1",
		"cas_misses":   "1",
		"incr_hits":    "1",
		"incr_misses":  "1",
		"decr_hits":    "1",
		"decr_misses":  "0",
		"touch_hits":   "1",
		"touch_misses": "1",
		"expired":      "1",
	} {
		if st[k] != want {
			t.Errorf("stats[%s] = %q, want %q", k, st[k], want)
		}
	}
	if _, ok := st["expiry_sweeps"]; !ok {
		t.Error("stats missing expiry_sweeps")
	}
}

// TestProtocolPipelined sends a burst of commands in a single write and
// expects all responses in order.
func TestProtocolPipelined(t *testing.T) {
	forEachTransport(t, Config{Addr: "127.0.0.1:0", Version: "conftest"}, func(t *testing.T, cfg Config) {
		runTranscript(t, startAnchorageServer(t, cfg).Addr(), []step{
			{"set p 0 0 1\r\nA\r\nget p\r\ngets p\r\ndelete p\r\nget p\r\n",
				"STORED\r\nVALUE p 0 1\r\nA\r\nEND\r\nVALUE p 0 1 1\r\nA\r\nEND\r\nDELETED\r\nEND\r\n"},
		})
	})
}

// TestProtocolSplitWrites delivers a single command in several TCP
// writes — including a split mid-data-block — and expects normal
// processing, on both transports. Then, on the goroutine transport over a
// pipe (where a Write is exactly one Read for the engine), it holds the
// framing layer to the standard internal/wal/torn_test.go sets for the
// log: every request of every golden transcript, cut in two at every byte
// boundary, must produce the transcript's exact bytes.
func TestProtocolSplitWrites(t *testing.T) {
	forEachTransport(t, Config{Addr: "127.0.0.1:0", Version: "conftest"}, func(t *testing.T, cfg Config) {
		srv := startAnchorageServer(t, cfg)
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		chunks := []string{"se", "t s 0 0 8\r\nab", "cdef", "gh\r", "\nget s\r\n"}
		for _, ch := range chunks {
			if _, err := c.Write([]byte(ch)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond) // force separate segments
		}
		want := "STORED\r\nVALUE s 0 8\r\nabcdefgh\r\nEND\r\n"
		buf := make([]byte, len(want))
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatalf("read: %v (got %q)", err, buf)
		}
		if string(buf) != want {
			t.Fatalf("got %q, want %q", buf, want)
		}
	})
	for name, g := range goldens {
		t.Run("every-byte/"+name, func(t *testing.T) {
			longest := 0
			for _, st := range g.steps {
				longest = max(longest, len(st.send))
			}
			// Run k cuts every request longer than k after its k-th byte:
			// a fresh server each, so the transcript's uniques hold.
			for k := 1; k < longest; k++ {
				cfg := g.cfg
				cfg.ConnModel, cfg.Workers = "goroutine", 1
				srv := New(kv.NewShardedStore(kv.NewMallocBackend(), 8, 0), cfg)
				c := pipeConn(t, srv)
				_ = c.SetDeadline(time.Now().Add(10 * time.Second))
				for i, st := range g.steps {
					head, tail := st.send[:min(k, len(st.send))], st.send[min(k, len(st.send)):]
					// The pipe has no buffer: the writes run beside the
					// read, as a reply may be due between them.
					go func() {
						if head != "" {
							_, _ = c.Write([]byte(head))
							_, _ = c.Write([]byte(tail))
						}
					}()
					got := make([]byte, len(st.want))
					if _, err := io.ReadFull(c, got); err != nil || string(got) != st.want {
						t.Fatalf("step %d: sent %q | %q\n got  %q (%v)\n want %q", i, head, tail, got, err, st.want)
					}
				}
				_ = c.Close()
			}
		})
	}
}

// TestLargeValueRoundTrip stores a value much larger than the engine's
// flush high-water mark, exercising the mid-command flush path.
func TestLargeValueRoundTrip(t *testing.T) {
	forEachTransport(t, Config{Addr: "127.0.0.1:0"}, func(t *testing.T, cfg Config) {
		cl, err := Dial(startAnchorageServer(t, cfg).Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		val := make([]byte, 64<<10)
		for i := range val {
			val[i] = byte(i * 31)
		}
		if err := cl.Set("big", 9, val); err != nil {
			t.Fatal(err)
		}
		got, flags, ok, err := cl.Get("big")
		if err != nil || !ok || flags != 9 {
			t.Fatalf("get big: ok=%v flags=%d err=%v", ok, flags, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("large value corrupted: %d bytes, want %d", len(got), len(val))
		}
	})
}

// TestQuitClosesConnection verifies quit ends the session server-side.
func TestQuitClosesConnection(t *testing.T) {
	srv := startServer(t, kv.NewMallocBackend(), Config{Addr: "127.0.0.1:0"})
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("quit\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after quit: read %d bytes, err %v; want EOF", n, err)
	}
}

// TestStatsSurface checks the stats command through the Client and that
// the store counters show through.
func TestStatsSurface(t *testing.T) {
	srv := startAnchorageServer(t, Config{Addr: "127.0.0.1:0", Version: "conftest"})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Set("a", 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := cl.Get("a"); err != nil || !ok {
		t.Fatalf("get a: ok=%v err=%v", ok, err)
	}
	if _, _, ok, err := cl.Get("b"); err != nil || ok {
		t.Fatalf("get b: ok=%v err=%v", ok, err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{
		"version":    "conftest",
		"backend":    "anchorage",
		"cmd_set":    "1",
		"cmd_get":    "2",
		"get_hits":   "1",
		"get_misses": "1",
		"curr_items": "1",
	} {
		if st[k] != want {
			t.Errorf("stats[%s] = %q, want %q", k, st[k], want)
		}
	}
	for _, k := range []string{
		"bytes", "rss_bytes", "defrag_concurrent_passes", "defrag_barrier_passes",
		"latency_p99_us", "curr_connections",
		// The connection-limits surface: present (and zero) even on a
		// server with no limits configured.
		"max_connections", "listen_disabled_num", "accept_errors",
		"idle_kicks", "slow_client_kicks", "cmd_flush",
	} {
		if _, ok := st[k]; !ok {
			t.Errorf("stats missing %s", k)
		}
	}
	for _, k := range []string{"listen_disabled_num", "accept_errors", "idle_kicks", "slow_client_kicks"} {
		if st[k] != "0" {
			t.Errorf("stats[%s] = %q on an unconstrained healthy server, want 0", k, st[k])
		}
	}
}

// TestClientRoundTrip exercises the Client-level API against a malloc
// backend (backend-independence of the protocol layer).
func TestClientRoundTrip(t *testing.T) {
	srv := startServer(t, kv.NewMallocBackend(), Config{Addr: "127.0.0.1:0"})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if stored, err := cl.Add("k", 3, []byte("v0")); err != nil || !stored {
		t.Fatalf("add: %v %v", stored, err)
	}
	if stored, err := cl.Add("k", 3, []byte("v1")); err != nil || stored {
		t.Fatalf("re-add: %v %v", stored, err)
	}
	v, flags, cas1, ok, err := cl.Gets("k")
	if err != nil || !ok || string(v) != "v0" || flags != 3 {
		t.Fatalf("gets: %q %d %v %v", v, flags, ok, err)
	}
	if stored, err := cl.Replace("k", 4, []byte("v2")); err != nil || !stored {
		t.Fatalf("replace: %v %v", stored, err)
	}
	_, _, cas2, _, err := cl.Gets("k")
	if err != nil {
		t.Fatal(err)
	}
	if cas2 == cas1 {
		t.Errorf("cas did not change across replace: %d", cas2)
	}
	if existed, err := cl.Delete("k"); err != nil || !existed {
		t.Fatalf("delete: %v %v", existed, err)
	}
	if v, err := cl.Version(); err != nil || v == "" {
		t.Fatalf("version: %q %v", v, err)
	}
}
