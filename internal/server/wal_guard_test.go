//go:build !race

package server

// Persistence alloc guards: attaching the pack log must not cost the
// request path a single allocation. These mirror the alloc_guard_test
// shapes with a live WAL — producer framing into the ring included —
// and with the writer goroutine running, so a batch flush landing
// mid-measurement would be caught too (the accounting is process-wide).

import (
	"bytes"
	"io"
	"testing"
	"time"

	"alaska/internal/kv"
	"alaska/internal/wal"
)

// guardHandlerWAL is guardHandler with a started, store-attached pack
// log. The audit is disabled (its scan buffers would show up in the
// process-wide numbers); the writer runs on a short interval so fsync
// batches interleave with the measurement.
func guardHandlerWAL(t *testing.T, backend kv.Backend) (*connHandler, *bytes.Reader) {
	t.Helper()
	wlog, err := wal.Open(wal.Options{
		Dir:           t.TempDir(),
		FsyncInterval: 5 * time.Millisecond,
		AuditInterval: -1,
	})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	store := kv.NewShardedStore(backend, 8, 0)
	if err := wlog.Start(store); err != nil {
		t.Fatalf("wal start: %v", err)
	}
	store.SetMutationLog(wlog)
	t.Cleanup(func() { _ = wlog.Close() })
	srv := New(store, Config{Version: "guard", MaxReplyBacklog: -1, WAL: wlog})
	src := bytes.NewReader(nil)
	return blockingGuardHandler(srv, store, src), src
}

// warmWAL runs the mutation through once and sleeps past a flush window
// so the writer's one-time drain buffer is allocated before measuring.
func warmWAL(t *testing.T, h *connHandler, src *bytes.Reader, reqs ...[]byte) {
	t.Helper()
	for i := 0; i < 8; i++ {
		for _, req := range reqs {
			runCommand(t, h, src, req)
		}
	}
	time.Sleep(25 * time.Millisecond)
}

func TestAllocFreeSetWithPersistence(t *testing.T) {
	forEachGuardBackend(t, func(t *testing.T, backend kv.Backend) {
		h, src := guardHandlerWAL(t, backend)
		set := []byte("set bench:key 7 0 512\r\n" + string(bytes.Repeat([]byte{'v'}, 512)) + "\r\n")
		warmWAL(t, h, src, set)
		avg := testing.AllocsPerRun(200, func() {
			runCommand(t, h, src, set)
		})
		if want := hallocAllocs(backend); avg != want {
			t.Fatalf("SET with -persist allocates %.2f allocs/op in steady state, want %.0f", avg, want)
		}
	})
}

func TestAllocFreeGetHitWithPersistence(t *testing.T) {
	forEachGuardBackend(t, func(t *testing.T, backend kv.Backend) {
		h, src := guardHandlerWAL(t, backend)
		set := []byte("set bench:key 7 0 512\r\n" + string(bytes.Repeat([]byte{'v'}, 512)) + "\r\n")
		get := []byte("get bench:key\r\n")
		runCommand(t, h, src, set)
		warmWAL(t, h, src, get)
		avg := testing.AllocsPerRun(200, func() {
			runCommand(t, h, src, get)
		})
		if avg != 0 {
			t.Fatalf("GET hit with -persist allocates %.2f allocs/op in steady state, want 0", avg)
		}
	})
}

// TestAllocFreePipelinedMixedWithPersistence covers the full logged
// surface in one batch: set (LogSet), touch (LogTouch), delete
// (LogDelete), plus reads that must not log at all.
func TestAllocFreePipelinedMixedWithPersistence(t *testing.T) {
	forEachGuardBackend(t, func(t *testing.T, backend kv.Backend) {
		h, src := guardHandlerWAL(t, backend)
		val := string(bytes.Repeat([]byte{'x'}, 64))
		batch := []byte(
			"set a 1 0 64\r\n" + val + "\r\n" +
				"set b 2 0 64\r\n" + val + "\r\n" +
				"touch a 3600\r\n" +
				"get a b\r\n" +
				"delete b\r\n")
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
		time.Sleep(25 * time.Millisecond)
		avg := testing.AllocsPerRun(100, runBatch)
		if want := 2 * hallocAllocs(backend); avg != want {
			t.Fatalf("pipelined mixed batch with -persist allocates %.2f allocs/batch, want %.0f", avg, want)
		}
	})
}
