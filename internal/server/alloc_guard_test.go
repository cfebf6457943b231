//go:build !race

package server

// Allocation guards: the request path must be allocation-free per op in
// steady state on every network-facing backend — malloc, mesh, and
// anchorage built as cmd/alaskad builds it (CountedPins), the system the
// paper is about and the one whose pins used to allocate. These tests
// drive the real
// handler — bounded line reader, zero-alloc tokenizer, byte parsers,
// kv read-into/in-place-store, response serialization, and the lock-free
// latency recorder — over an in-memory reader/writer, and pin GET-hit
// and SET steady state at exactly 0 allocs/op with testing.AllocsPerRun.
// (Excluded under -race: the detector's instrumentation allocates.)
//
// CI note: a regression here fails `go test ./internal/server`, and the
// nightly bench job additionally fails if cmd/alaskad-bench measures a
// nonzero steady-state GET allocation rate over real sockets.

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"time"

	"alaska/internal/kv"
)

// forEachGuardBackend runs one guard as a subtest per backend.
func forEachGuardBackend(t *testing.T, fn func(t *testing.T, backend kv.Backend)) {
	t.Run("malloc", func(t *testing.T) { fn(t, kv.NewMallocBackend()) })
	t.Run("mesh", func(t *testing.T) { fn(t, kv.NewMeshBackend(1)) })
	t.Run("anchorage", func(t *testing.T) { fn(t, anchorageBackend(t)) })
}

// hallocAllocs is what allocating and freeing one value costs in Go
// allocations inside the backend's own allocator — the one part of a
// store the guards cannot hold at zero. Anchorage pays two per replaced
// value, and both are there for a reason: one immutable handle-table
// Entry, published once with its final backing (translate is a lock-free
// load of that pointer, so an entry is never edited in place), and one
// objInfo record (a record is never reused, which is what lets a defrag
// pass that dropped the service lock around a copy recognise its object
// by pointer). The ID directory, the sub-heap object lists and the free
// bins reuse their storage in steady state. The access path proper —
// pin, mem.Space copy, LRU, framing, reply — is zero on every backend,
// which the GET guards show in isolation.
func hallocAllocs(backend kv.Backend) float64 {
	if _, ok := backend.(*kv.AnchorageBackend); ok {
		return 2
	}
	return 0
}

// guardHandler builds a connHandler over in-memory I/O on a fresh
// store over backend — the full dispatch path with no socket. The
// default config leaves instrumentation fully enabled, so every guard
// proves the 0-alloc contract with the per-opcode histograms live.
func guardHandler(backend kv.Backend) (*connHandler, *bytes.Reader) {
	return guardHandlerCfg(backend, Config{Version: "guard", MaxReplyBacklog: -1})
}

func guardHandlerCfg(backend kv.Backend, cfg Config) (*connHandler, *bytes.Reader) {
	store := kv.NewShardedStore(backend, 8, 0)
	srv := New(store, cfg)
	src := bytes.NewReader(nil)
	return blockingGuardHandler(srv, store, src), src
}

// blockingGuardHandler attaches in-memory I/O to a handler from the
// server's own constructor (so it records into a latency stripe like any
// other).
func blockingGuardHandler(srv *Server, store *kv.ShardedStore, src *bytes.Reader) *connHandler {
	h := srv.newConnHandler(store.NewSession())
	h.c = &conn{clock: srv.cfg.Clock}
	h.r = bufio.NewReaderSize(src, 16<<10)
	h.w = bufio.NewWriterSize(io.Discard, 64<<10)
	return h
}

// runCommand feeds one pre-built request through the handler exactly as
// the serve loop would: reset the source, read the line, dispatch, and
// record into the full observability plane (aggregate + per-opcode
// histograms + slow-op sampling). The write buffer is reset instead of
// flushed so the measurement covers the server path, not io.Discard.
func runCommand(tb testing.TB, h *connHandler, src *bytes.Reader, req []byte) {
	src.Reset(req)
	h.r.Reset(src)
	start := time.Now()
	line, err := h.readLine()
	if err != nil {
		tb.Fatalf("readLine: %v", err)
	}
	if _, err := h.dispatch(line); err != nil {
		tb.Fatalf("dispatch: %v", err)
	}
	h.srv.recordOp(h, h.c.id, time.Since(start))
	h.w.Reset(io.Discard)
	h.backlog = 0
}

func TestAllocFreeGetHit(t *testing.T) {
	forEachGuardBackend(t, func(t *testing.T, backend kv.Backend) {
		h, src := guardHandler(backend)
		set := []byte("set bench:key 7 0 512\r\n" + string(bytes.Repeat([]byte{'v'}, 512)) + "\r\n")
		get := []byte("get bench:key\r\n")
		runCommand(t, h, src, set)
		// Warm the connection-owned scratch buffers to steady state.
		for i := 0; i < 8; i++ {
			runCommand(t, h, src, get)
		}
		avg := testing.AllocsPerRun(200, func() {
			runCommand(t, h, src, get)
		})
		if avg != 0 {
			t.Fatalf("GET hit allocates %.2f allocs/op in steady state, want 0", avg)
		}
	})
}

func TestAllocFreeSetSteadyState(t *testing.T) {
	forEachGuardBackend(t, func(t *testing.T, backend kv.Backend) {
		h, src := guardHandler(backend)
		set := []byte("set bench:key 7 0 512\r\n" + string(bytes.Repeat([]byte{'v'}, 512)) + "\r\n")
		for i := 0; i < 8; i++ {
			runCommand(t, h, src, set)
		}
		avg := testing.AllocsPerRun(200, func() {
			runCommand(t, h, src, set)
		})
		if want := hallocAllocs(backend); avg != want {
			t.Fatalf("steady-state SET allocates %.2f allocs/op, want %.0f", avg, want)
		}
	})
}

// TestAllocFreeSlowOpCapture pins the slow-op recording path itself: a
// 1ns threshold makes every command a "slow op", so each iteration
// claims a ring slot, locks the entry, and copies the key prefix
// — all of which must stay allocation-free.
func TestAllocFreeSlowOpCapture(t *testing.T) {
	forEachGuardBackend(t, func(t *testing.T, backend kv.Backend) {
		h, src := guardHandlerCfg(backend, Config{
			Version:         "guard",
			MaxReplyBacklog: -1,
			SlowOpThreshold: time.Nanosecond,
		})
		set := []byte("set bench:key 7 0 512\r\n" + string(bytes.Repeat([]byte{'v'}, 512)) + "\r\n")
		get := []byte("get bench:key\r\n")
		runCommand(t, h, src, set)
		for i := 0; i < 8; i++ {
			runCommand(t, h, src, get)
		}
		avg := testing.AllocsPerRun(200, func() {
			runCommand(t, h, src, get)
		})
		if avg != 0 {
			t.Fatalf("GET hit with slow-op capture allocates %.2f allocs/op, want 0", avg)
		}
		if got := h.srv.slowOpTotal(); got == 0 {
			t.Fatalf("slow-op ring recorded nothing despite 1ns threshold")
		}
		ops := h.srv.SlowOps()
		if len(ops) == 0 || ops[0].Cmd != "get" || ops[0].Key != "bench:key" {
			t.Fatalf("unexpected slow-op snapshot head: %+v", ops[:min(len(ops), 1)])
		}
	})
}

// TestAllocFreeGetMiss pins the miss path too: a keyspace scan of cold
// keys must not churn the allocator either.
func TestAllocFreeGetMiss(t *testing.T) {
	forEachGuardBackend(t, func(t *testing.T, backend kv.Backend) {
		h, src := guardHandler(backend)
		get := []byte("get no:such:key\r\n")
		for i := 0; i < 8; i++ {
			runCommand(t, h, src, get)
		}
		avg := testing.AllocsPerRun(200, func() {
			runCommand(t, h, src, get)
		})
		if avg != 0 {
			t.Fatalf("GET miss allocates %.2f allocs/op in steady state, want 0", avg)
		}
	})
}

// TestAllocFreePipelinedMixed runs the realistic interleaving — set,
// get, delete-miss, multi-key get — as one pipelined batch per
// iteration, covering the tokenizer's multi-command reuse.
func TestAllocFreePipelinedMixed(t *testing.T) {
	forEachGuardBackend(t, func(t *testing.T, backend kv.Backend) {
		h, src := guardHandler(backend)
		val := string(bytes.Repeat([]byte{'x'}, 64))
		batch := []byte(
			"set a 1 0 64\r\n" + val + "\r\n" +
				"set b 2 0 64\r\n" + val + "\r\n" +
				"get a b\r\n" +
				"delete nosuch\r\n" +
				"gets a\r\n")
		runBatch := func() {
			src.Reset(batch)
			h.r.Reset(src)
			for cmds := 0; cmds < 5; cmds++ {
				line, err := h.readLine()
				if err != nil {
					t.Fatalf("readLine: %v", err)
				}
				if _, err := h.dispatch(line); err != nil {
					t.Fatalf("dispatch: %v", err)
				}
			}
			h.w.Reset(io.Discard)
			h.backlog = 0
		}
		for i := 0; i < 8; i++ {
			runBatch()
		}
		avg := testing.AllocsPerRun(100, runBatch)
		if want := 2 * hallocAllocs(backend); avg != want {
			t.Fatalf("pipelined mixed batch allocates %.2f allocs/batch in steady state, want %.0f", avg, want)
		}
	})
}
