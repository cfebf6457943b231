//go:build !race

package server

// Allocation guards for the event engine: the worker-pool path must
// uphold the same 0-allocs/op steady-state contract as the blocking
// engine. These drive a detached eventIO (fd < 0, so flushes accumulate
// in the worker buffer exactly as replies do before a writev) through
// process() — framing scan, storage prescan, dispatch, reply append,
// recordOp — and pin GET-hit, SET, and a pipelined batch at exactly 0
// allocs/op on each backend (forEachGuardBackend; a store on anchorage
// is held to hallocAllocs). (Excluded under -race: the detector's
// instrumentation allocates.)

import (
	"bytes"
	"testing"

	"alaska/internal/kv"
)

// eventGuardEngine builds a detached event engine over a fresh store
// over backend. ConnModel "goroutine" keeps New from opening a real
// epoll instance — the engine under test is driven directly.
func eventGuardEngine(backend kv.Backend) *eventIO {
	store := kv.NewShardedStore(backend, 8, 0)
	srv := New(store, Config{Version: "guard", MaxReplyBacklog: -1, ConnModel: "goroutine"})
	return detachedEngine(srv)
}

func TestEventAllocFreeGetHit(t *testing.T) {
	forEachGuardBackend(t, func(t *testing.T, backend kv.Backend) {
		e := eventGuardEngine(backend)
		set := []byte("set bench:key 7 0 512\r\n" + string(bytes.Repeat([]byte{'v'}, 512)) + "\r\n")
		get := []byte("get bench:key\r\n")
		runEventBatch(t, e, set, 1)
		for i := 0; i < 8; i++ {
			runEventBatch(t, e, get, 1)
		}
		avg := testing.AllocsPerRun(200, func() {
			runEventBatch(t, e, get, 1)
		})
		if avg != 0 {
			t.Fatalf("event-engine GET hit allocates %.2f allocs/op in steady state, want 0", avg)
		}
	})
}

func TestEventAllocFreeSetSteadyState(t *testing.T) {
	forEachGuardBackend(t, func(t *testing.T, backend kv.Backend) {
		e := eventGuardEngine(backend)
		set := []byte("set bench:key 7 0 512\r\n" + string(bytes.Repeat([]byte{'v'}, 512)) + "\r\n")
		for i := 0; i < 8; i++ {
			runEventBatch(t, e, set, 1)
		}
		avg := testing.AllocsPerRun(200, func() {
			runEventBatch(t, e, set, 1)
		})
		if want := hallocAllocs(backend); avg != want {
			t.Fatalf("event-engine steady-state SET allocates %.2f allocs/op, want %.0f", avg, want)
		}
	})
}

// TestEventAllocFreePipelinedMixed covers the burst path proper: five
// commands framed, prescanned, and dispatched out of one input buffer,
// as a pipelining client would deliver them in a single readiness event.
func TestEventAllocFreePipelinedMixed(t *testing.T) {
	forEachGuardBackend(t, func(t *testing.T, backend kv.Backend) {
		e := eventGuardEngine(backend)
		val := string(bytes.Repeat([]byte{'x'}, 64))
		batch := []byte(
			"set a 1 0 64\r\n" + val + "\r\n" +
				"set b 2 0 64\r\n" + val + "\r\n" +
				"get a b\r\n" +
				"delete nosuch\r\n" +
				"gets a\r\n")
		for i := 0; i < 8; i++ {
			runEventBatch(t, e, batch, 5)
		}
		avg := testing.AllocsPerRun(100, func() {
			runEventBatch(t, e, batch, 5)
		})
		if want := 2 * hallocAllocs(backend); avg != want {
			t.Fatalf("event-engine pipelined batch allocates %.2f allocs/batch in steady state, want %.0f", avg, want)
		}
	})
}

// TestEventParkReleasesMemory is the satellite guarantee in unit form: a
// connection parked with no residue sheds its spill buffers entirely —
// the memory cost of a parked idle connection is the bare pollConn.
func TestEventParkReleasesMemory(t *testing.T) {
	e := eventGuardEngine(kv.NewMallocBackend())
	pc := e.pc
	// A burst that leaves residue: partial command in the input buffer,
	// undrained reply bytes (fd < 0 means tryFlush drains nothing).
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
	e.begin(pc)
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
