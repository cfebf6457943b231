package server

// Loopback hot-path benchmarks: GET hits, SET steady state, and
// pipelined GET bursts over a real TCP connection on the malloc backend
// (so the numbers isolate the request path from defrag machinery). All
// benchmarks ReportAllocs — together with the AllocsPerRun guards in
// alloc_guard_test.go these are the tracked evidence that the request
// path stays allocation-free per op. The end-to-end numbers of record are
// the contract benchmark's (bench/).

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"alaska/internal/kv"
	"alaska/internal/ycsb"
)

// benchServer boots a malloc-backed loopback server tuned for
// measurement: maintenance slowed to a crawl so the background goroutine
// doesn't perturb per-op numbers.
func benchServer(b *testing.B) *Server {
	b.Helper()
	store := kv.NewShardedStore(kv.NewMallocBackend(), 8, 0)
	srv := New(store, Config{
		Addr:             "127.0.0.1:0",
		Version:          "bench",
		MaintainInterval: time.Hour,
	})
	if err := srv.Listen(); err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	b.Cleanup(func() { _ = srv.Shutdown(2 * time.Second) })
	return srv
}

func benchValue(n int) []byte {
	val := make([]byte, n)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	return val
}

func BenchmarkLoopbackGetHit(b *testing.B) {
	srv := benchServer(b)
	cl, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	val := benchValue(512)
	if err := cl.Set("bench:key", 7, val); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, ok, err := cl.Get("bench:key")
		if err != nil {
			b.Fatal(err)
		}
		if !ok || len(v) != len(val) {
			b.Fatalf("get: ok=%v len=%d", ok, len(v))
		}
	}
}

func BenchmarkLoopbackSet(b *testing.B) {
	srv := benchServer(b)
	cl, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	val := benchValue(512)
	b.ReportAllocs()
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Set("bench:key", 7, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackGetPipelined issues bursts of 32 pipelined gets per
// round trip — the framing the server answers with one flush, and the
// shape where per-op allocation hurts most (no socket wait to hide it).
func BenchmarkLoopbackGetPipelined(b *testing.B) {
	const burst = 32
	srv := benchServer(b)
	cl, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	val := benchValue(512)
	if err := cl.Set("bench:key", 7, val); err != nil {
		b.Fatal(err)
	}
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReaderSize(c, 64<<10)
	w := bufio.NewWriterSize(c, 64<<10)
	req := bytes.Repeat([]byte("get bench:key\r\n"), burst)
	// One response: VALUE header + 512 bytes + CRLF + END.
	respLen := len(fmt.Sprintf("VALUE bench:key 7 %d\r\n", len(val))) + len(val) + 2 + len("END\r\n")
	resp := make([]byte, respLen*burst)
	b.ReportAllocs()
	b.SetBytes(int64(len(val) * burst))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Write(req); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		for off := 0; off < len(resp); {
			n, err := r.Read(resp[off:])
			if err != nil {
				b.Fatal(err)
			}
			off += n
		}
	}
	b.StopTimer()
	if !bytes.HasSuffix(resp, []byte("END\r\n")) {
		b.Fatalf("unexpected trailing response: %q", resp[len(resp)-32:])
	}
}

// BenchmarkLoopbackSetGet alternates SET and GET on one key — the
// steady-state overwrite cycle whose kv-side entry churn the in-place
// update path is meant to eliminate.
func BenchmarkLoopbackSetGet(b *testing.B) {
	srv := benchServer(b)
	cl, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	val := benchValue(512)
	if err := cl.Set("bench:key", 7, val); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(2 * len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Set("bench:key", 7, val); err != nil {
			b.Fatal(err)
		}
		if _, _, ok, err := cl.Get("bench:key"); err != nil || !ok {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

// detachedEngine attaches a protocol engine to srv over the scripted seam
// with nothing scripted — no read has bytes and no write makes progress, so
// replies accumulate in the engine's buffer exactly as they do before a
// writev — for driving process() directly.
func detachedEngine(srv *Server) *engine {
	return srv.newEngine(srv.store.NewSession(), &pollConn{id: 1}, &scriptIO{})
}

// runEventBatch feeds one pre-built request buffer through process() as
// a single readiness burst and resets the reply buffer, exactly as a
// worker would between bursts (minus the writev).
func runEventBatch(tb testing.TB, e *engine, req []byte, want int) {
	if cmds, st := processBatch(e, req); st != evNeedInput || cmds != want {
		tb.Fatalf("process dispatched %d commands with status %d, want %d with evNeedInput", cmds, st, want)
	}
}

// processBatch is runEventBatch without the verdict, for goroutines that
// may not call Fatal.
func processBatch(e *engine, req []byte) (cmds int, st evStatus) {
	e.in = append(e.in[:0], req...)
	e.rpos = 0
	st = e.process(&cmds)
	e.out = e.out[:0]
	e.outOff = 0
	return cmds, st
}

// benchEventPipelined is the server-side half of the benchmark's pipelined
// workloads with the wire taken away: `engines` detached event engines,
// one goroutine each, on one store built the way Boot builds it
// (anchorage + CountedPins, 32 shards) holding 20 000 × 512 B, each engine
// fed b.N pre-rendered bursts of `burst` single-key commands over seeded
// zipfian keys — all GETs (get_pipelined's shape), or with mixed every
// second one a `set … 0 0 512` (persist_mixed's, minus the WAL). The
// metric is wall time over all engines' commands, so two engines scaling
// perfectly on two CPUs read half of one.
func benchEventPipelined(b *testing.B, engines, burst int, mixed bool) {
	const (
		records = 20000
		bursts  = 512 // distinct pre-rendered bursts per engine, cycled
	)
	unit, gets := "ns/get", burst
	if mixed {
		unit, gets = "ns/cmd", burst/2
	}
	store := kv.NewShardedStore(anchorageBackend(b), 32, 0)
	srv := New(store, Config{Version: "bench", MaxReplyBacklog: -1, ConnModel: "goroutine"})
	load := store.NewSession()
	val := benchValue(512)
	for i := 0; i < records; i++ {
		if _, err := store.SetExBytes(load, []byte(ycsb.Key(uint64(i))), val, kv.SetAlways, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
	load.Close()
	es := make([]*engine, engines)
	reqs := make([][][]byte, engines)
	for w := range es {
		es[w] = detachedEngine(srv)
		gen, err := ycsb.NewGenerator(ycsb.WorkloadC, records, len(val), int64(w+1))
		if err != nil {
			b.Fatal(err)
		}
		reqs[w] = make([][]byte, bursts)
		for i := range reqs[w] {
			for j := 0; j < burst; j++ {
				if key := gen.Next().Key; mixed && j%2 == 1 {
					reqs[w][i] = append(reqs[w][i], "set "+key+" 0 0 512\r\n"...)
					reqs[w][i] = append(append(reqs[w][i], val...), "\r\n"...)
				} else {
					reqs[w][i] = append(reqs[w][i], "get "+key+"\r\n"...)
				}
			}
		}
		runEventBatch(b, es[w], reqs[w][0], burst) // grow the worker buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := range es {
		wg.Add(1)
		go func(e *engine, mine [][]byte) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if cmds, st := processBatch(e, mine[i%len(mine)]); st != evNeedInput || cmds != burst {
					b.Errorf("process dispatched %d commands with status %d", cmds, st)
					return
				}
			}
		}(es[w], reqs[w])
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst*engines), unit)
	for _, e := range es {
		e.sess.Close()
	}
	if got := srv.OpLatency("get").Count(); got != int64((b.N+1)*gets*engines) {
		b.Fatalf("recorded %d gets, want %d", got, (b.N+1)*gets*engines)
	}
	if got := srv.OpLatency("set").Count(); got != int64((b.N+1)*(burst-gets)*engines) {
		b.Fatalf("recorded %d sets, want %d", got, (b.N+1)*(burst-gets)*engines)
	}
}

func BenchmarkEventPipelinedGet(b *testing.B)     { benchEventPipelined(b, 1, 32, false) }
func BenchmarkEventPipelinedGetPar2(b *testing.B) { benchEventPipelined(b, 2, 32, false) }

// BenchmarkEventPipelinedMixed is the SET side of the per-command path: 8
// per burst, 50/50 get / set of 512 B.
func BenchmarkEventPipelinedMixed(b *testing.B) { benchEventPipelined(b, 1, 8, true) }
