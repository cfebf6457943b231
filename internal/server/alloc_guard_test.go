//go:build !race

package server

// Allocation guards: the request path must be allocation-free per op in
// steady state on every network-facing backend — malloc, mesh, and
// anchorage built as Boot builds it (CountedPins), the system the
// paper is about and the one whose pins used to allocate. One harness: a
// request goes through the one protocol engine, either detached from any
// socket (detachedEngine + runEventBatch: framing scan, storage prescan,
// dispatch, kv read-into / in-place store, reply append, the call's fold
// into the per-opcode histograms — what a worker runs between a read and a
// writev) or, for the TestAllocFree{GetHit,SetSteadyState,PipelinedMixed}
// trio, through the goroutine transport over an in-memory net.Conn, which
// adds the burst loop's reads and flushes through the conn seam. Every
// shape is pinned at exactly 0 allocs/op with testing.AllocsPerRun —
// stores included, when the value keeps its length and is overwritten in
// place; a store that changes the length is held to hallocAllocs. (Excluded under -race: the detector's instrumentation
// allocates.)

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"alaska/internal/kv"
	"alaska/internal/wal"
)

// forEachGuardBackend runs one guard as a subtest per backend.
func forEachGuardBackend(t *testing.T, fn func(t *testing.T, backend kv.Backend)) {
	t.Run("malloc", func(t *testing.T) { fn(t, kv.NewMallocBackend()) })
	t.Run("mesh", func(t *testing.T) { fn(t, kv.NewMeshBackend(1)) })
	t.Run("anchorage", func(t *testing.T) { fn(t, anchorageBackend(t)) })
}

// hallocAllocs is what allocating and freeing one value costs in Go
// allocations inside the backend's own allocator — the one part of a
// store the guards cannot hold at zero. The stores that pay it are the
// ones that need a block: a new key, and an overwrite whose value differs
// in length from the one it replaces (guardResize). An overwrite of the
// same length keeps its handle and block and pays nothing. Anchorage pays
// one per allocated value, and it is there for a reason: an objInfo
// record is never reused, which is what lets a defrag pass that dropped
// the service lock around a copy recognise its object by pointer. The
// handle table publishes into a packed slot and allocates nothing; the ID
// directory, the sub-heap object lists and the free bins reuse their
// storage in steady state. The access
// path proper — pin, mem.Space copy, LRU, framing, reply — is zero on
// every backend, which the GET guards show in isolation.
func hallocAllocs(backend kv.Backend) float64 {
	if _, ok := backend.(*kv.AnchorageBackend); ok {
		return 1
	}
	return 0
}

// The guarded shapes. guardBatch is the realistic interleaving — set, get,
// delete-miss, multi-key get — framed, parsed and dispatched out of one
// input buffer, as a pipelining client delivers it; guardWALBatch covers
// the full logged surface: set (LogSet), touch (LogTouch), delete
// (LogDelete), plus reads that must not log at all. In steady state every
// set in those repeats the length already stored (guardWALBatch deletes b
// and sets it anew each run: one allocating store); guardResize alternates
// two lengths on one key, so both of its sets allocate.
var (
	guardVal64    = strings.Repeat("x", 64)
	guardSet      = []byte("set bench:key 7 0 512\r\n" + strings.Repeat("v", 512) + "\r\n")
	guardGet      = []byte("get bench:key\r\n")
	guardGetMiss  = []byte("get no:such:key\r\n")
	guardBatch    = []byte("set a 1 0 64\r\n" + guardVal64 + "\r\nset b 2 0 64\r\n" + guardVal64 + "\r\nget a b\r\ndelete nosuch\r\ngets a\r\n")
	guardWALBatch = []byte("set a 1 0 64\r\n" + guardVal64 + "\r\nset b 2 0 64\r\n" + guardVal64 + "\r\ntouch a 3600\r\nget a b\r\ndelete b\r\n")
	guardResize   = []byte("set bench:key 7 0 64\r\n" + guardVal64 + "\r\nset bench:key 7 0 32\r\n" + guardVal64[:32] + "\r\n")
)

// guardRun puts one request of cmds commands through a server and consumes
// the reply.
type guardRun func(req []byte, cmds int)

// guardServer builds a server over a fresh store over backend. ConnModel
// "goroutine" keeps New from opening an epoll instance nothing would use.
func guardServer(backend kv.Backend, cfg Config) *Server {
	cfg.Version, cfg.MaxReplyBacklog, cfg.ConnModel = "guard", -1, "goroutine"
	return New(kv.NewShardedStore(backend, 8, 0), cfg)
}

// engineRun drives srv's engine detached from any socket.
func engineRun(t *testing.T, srv *Server) guardRun {
	e := detachedEngine(srv)
	return func(req []byte, cmds int) { runEventBatch(t, e, req, cmds) }
}

// driverRun drives srv through the goroutine transport over a pipe: one
// Write is one read through the conn seam, and the burst's one flush per
// round trip is one Read here. The closing version exchange would read a leftover
// reply instead, were that ever not so.
func driverRun(t *testing.T, srv *Server) guardRun {
	c := pipeConn(t, srv)
	buf := make([]byte, 16<<10)
	t.Cleanup(func() {
		if n, _ := c.Write([]byte("version\r\n")); n > 0 {
			if n, _ = c.Read(buf); string(buf[:n]) != "VERSION guard\r\n" {
				t.Errorf("driver round trips left %q unread", buf[:n])
			}
		}
	})
	return func(req []byte, _ int) {
		if _, err := c.Write(req); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := c.Read(buf); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
}

// steadyAllocs warms the buffers req touches (after warm, if any, has set
// the stage) and measures req.
func steadyAllocs(run guardRun, warm, req []byte, cmds int) float64 {
	if warm != nil {
		run(warm, 1)
	}
	for i := 0; i < 8; i++ {
		run(req, cmds)
	}
	return testing.AllocsPerRun(200, func() { run(req, cmds) })
}

// guard holds req to allocs × hallocAllocs per run on every backend, on a
// server from mk; allocs is how many of req's stores need a block.
func guard(t *testing.T, mk func(*testing.T, kv.Backend) guardRun, warm, req []byte, cmds int, allocs float64) {
	forEachGuardBackend(t, func(t *testing.T, backend kv.Backend) {
		avg := steadyAllocs(mk(t, backend), warm, req, cmds)
		if want := allocs * hallocAllocs(backend); avg != want {
			t.Fatalf("%q allocates %.2f allocs/run in steady state, want %.0f", req[:bytes.IndexByte(req, '\r')], avg, want)
		}
	})
}

func detached(t *testing.T, backend kv.Backend) guardRun {
	return engineRun(t, guardServer(backend, Config{}))
}

func blockingDriver(t *testing.T, backend kv.Backend) guardRun {
	return driverRun(t, guardServer(backend, Config{}))
}

// persisting is detached with a started, store-attached pack log —
// producer framing into the ring included, and the writer goroutine running
// on a short interval so fsync batches interleave with the measurement (the
// accounting is process-wide). The audit is disabled: its scan buffers
// would show up in the numbers. The run warms itself on first use and
// sleeps past a flush window, so the writer has run its first write and
// fsync before anything is measured.
func persisting(t *testing.T, backend kv.Backend) guardRun {
	wlog, err := wal.Open(wal.Options{
		Dir:           t.TempDir(),
		FsyncInterval: 5 * time.Millisecond,
		AuditInterval: -1,
	})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	srv := guardServer(backend, Config{WAL: wlog})
	if err := wlog.Start(srv.store); err != nil {
		t.Fatalf("wal start: %v", err)
	}
	srv.store.SetMutationLog(wlog)
	t.Cleanup(func() { _ = wlog.Close() })
	run := engineRun(t, srv)
	for i := 0; i < 8; i++ {
		run(guardWALBatch, 5)
	}
	time.Sleep(25 * time.Millisecond)
	return run
}

func TestEventAllocFreeGetHit(t *testing.T)         { guard(t, detached, guardSet, guardGet, 1, 0) }
func TestEventAllocFreeSetSteadyState(t *testing.T) { guard(t, detached, nil, guardSet, 1, 0) }
func TestEventAllocFreeSetResize(t *testing.T)      { guard(t, detached, nil, guardResize, 2, 2) }
func TestEventAllocFreePipelinedMixed(t *testing.T) { guard(t, detached, nil, guardBatch, 5, 0) }

// TestAllocFreeGetMiss pins the miss path too: a keyspace scan of cold
// keys must not churn the allocator either.
func TestAllocFreeGetMiss(t *testing.T) { guard(t, detached, nil, guardGetMiss, 1, 0) }

func TestAllocFreeGetHit(t *testing.T)         { guard(t, blockingDriver, guardSet, guardGet, 1, 0) }
func TestAllocFreeSetSteadyState(t *testing.T) { guard(t, blockingDriver, nil, guardSet, 1, 0) }
func TestAllocFreeSetResize(t *testing.T)      { guard(t, blockingDriver, nil, guardResize, 2, 2) }
func TestAllocFreePipelinedMixed(t *testing.T) { guard(t, blockingDriver, nil, guardBatch, 5, 0) }

// Attaching the pack log must not cost the request path a single
// allocation.
func TestAllocFreeSetWithPersistence(t *testing.T) { guard(t, persisting, nil, guardSet, 1, 0) }
func TestAllocFreeSetResizeWithPersistence(t *testing.T) {
	guard(t, persisting, nil, guardResize, 2, 2)
}
func TestAllocFreeGetHitWithPersistence(t *testing.T) { guard(t, persisting, guardSet, guardGet, 1, 0) }
func TestAllocFreePipelinedMixedWithPersistence(t *testing.T) {
	guard(t, persisting, nil, guardWALBatch, 5, 1)
}

// TestAllocFreeStats pins a plain `stats`: one reading, every row rendered
// with strconv into the handler's scratch, on every backend and with the
// pack log's rows too.
func TestAllocFreeStats(t *testing.T) {
	stats := []byte("stats\r\n")
	guard(t, detached, guardSet, stats, 1, 0)
	t.Run("persisting", func(t *testing.T) { guard(t, persisting, guardSet, stats, 1, 0) })
}

// TestAllocFreeSlowOpCapture pins the slow-op recording path itself: a
// 1ns threshold makes every command a "slow op", so each iteration
// claims a ring slot, locks the entry, and copies the key prefix
// — all of which must stay allocation-free.
func TestAllocFreeSlowOpCapture(t *testing.T) {
	guard(t, func(t *testing.T, backend kv.Backend) guardRun {
		srv := guardServer(backend, Config{SlowOpThreshold: time.Nanosecond})
		t.Cleanup(func() {
			ops := srv.SlowOps()
			if srv.slowOpTotal() == 0 || len(ops) == 0 || ops[0].Cmd != "get" || ops[0].Key != "bench:key" {
				t.Errorf("slow-op ring after %d captures, head: %+v", srv.slowOpTotal(), ops[:min(len(ops), 1)])
			}
		})
		return engineRun(t, srv)
	}, guardSet, guardGet, 1, 0)
}

// TestAllocFreeSlowOpCapturePipelined is the same capture for a pipelined
// call: guardBatch's five commands are one process() call, recorded as one
// ring entry under its first command (set a) — one slot, one key copy per
// call, allocation-free.
func TestAllocFreeSlowOpCapturePipelined(t *testing.T) {
	guard(t, func(t *testing.T, backend kv.Backend) guardRun {
		srv := guardServer(backend, Config{SlowOpThreshold: time.Nanosecond})
		run, calls := engineRun(t, srv), uint64(0)
		t.Cleanup(func() {
			ops := srv.SlowOps()
			if srv.slowOpTotal() != calls || len(ops) == 0 || ops[0].Cmd != "set" || ops[0].Key != "a" {
				t.Errorf("slow-op ring after %d calls of 5 commands: %d captures, head %+v", calls, srv.slowOpTotal(), ops[:min(len(ops), 1)])
			}
		})
		return func(req []byte, cmds int) {
			calls++
			run(req, cmds)
		}
	}, nil, guardBatch, 5, 0)
}

// TestEventParkReleasesMemory: a connection parked with no residue sheds
// its spill buffers entirely — the memory cost of a parked idle connection
// is the bare pollConn.
func TestEventParkReleasesMemory(t *testing.T) {
	e := detachedEngine(guardServer(kv.NewMallocBackend(), Config{}))
	pc := e.pc
	// A burst that leaves residue: partial command in the input buffer,
	// undrained reply bytes (a detached engine's seam takes nothing).
	e.in = append(e.in[:0], "get half-a-comm"...)
	e.rpos = 0
	cmds := 0
	if st := e.process(&cmds); st != evNeedInput {
		t.Fatalf("process status = %d, want evNeedInput", st)
	}
	e.out = append(e.out[:0], "VALUE residue 0 1\r\nx\r\nEND\r\n"...)
	e.park()
	if string(pc.inSpill) != "get half-a-comm" {
		t.Fatalf("inSpill = %q after park, want the partial command", pc.inSpill)
	}
	if len(pc.outSpill) == 0 {
		t.Fatal("outSpill empty after park despite undrained replies")
	}

	// Wake, let it drain (consume everything), park again: both spills
	// must be released — an idle parked connection holds no buffers.
	e.begin(pc, &scriptIO{})
	e.rpos = len(e.in) // consume the partial line
	e.spillOff = len(e.spill)
	e.park()
	if pc.inSpill != nil && cap(pc.inSpill) > connSpillRetain {
		t.Fatalf("idle park kept %d bytes of inSpill capacity", cap(pc.inSpill))
	}
	if pc.outSpill != nil && cap(pc.outSpill) > connSpillRetain {
		t.Fatalf("idle park kept %d bytes of outSpill capacity", cap(pc.outSpill))
	}
	if len(pc.inSpill) != 0 || len(pc.outSpill) != 0 {
		t.Fatalf("idle park left residue: in=%d out=%d", len(pc.inSpill), len(pc.outSpill))
	}
}
