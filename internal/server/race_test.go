package server

// Race-hardened end-to-end test: loadgen-style clients hammer an
// anchorage-backed alaskad over real loopback sockets while the
// maintenance tick steps the §4.3 controller with the §7 pause-free
// ConcurrentDefragPass. Every get must return the exact bytes last set on
// that key. Run under `go test -race -short`.

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/kv"
	"alaska/internal/rt"
)

func TestServerDefragUnderTrafficRace(t *testing.T) {
	acfg := anchorage.DefaultConfig()
	acfg.SubHeapSize = 256 * 1024
	acfg.FragLow = 1.1
	acfg.WakeInterval = 5 * time.Millisecond
	backend, err := kv.NewAnchorageBackend(acfg, rt.WithPinMode(rt.CountedPins))
	if err != nil {
		t.Fatal(err)
	}
	store := kv.NewShardedStore(backend, 8, 0)
	srv := New(store, Config{
		Addr:             "127.0.0.1:0",
		MaintainInterval: 2 * time.Millisecond,
		DefragFragHigh:   1.1, // run pause-free passes almost continuously
		DefragBudget:     256 * 1024,
	})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := srv.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	defer srv.Shutdown(5 * time.Second)

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	ops := 2500
	if testing.Short() {
		ops = 600
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			// Private key range per worker, so a get must return exactly
			// this worker's last set. Varying value sizes churn the heap
			// into fragmentation so the pass has work.
			want := make(map[string][]byte)
			for op := 0; op < ops; op++ {
				key := "w" + strconv.Itoa(w) + "-k" + strconv.Itoa(rng.Intn(48))
				v, r := want[key], rng.Intn(10)
				switch {
				case v != nil && r < 5:
					got, _, ok, err := cl.Get(key)
					if err != nil {
						t.Errorf("worker %d get %s: %v", w, key, err)
						return
					}
					if !ok {
						t.Errorf("worker %d get %s: miss, want %d bytes", w, key, len(v))
						return
					}
					if !bytes.Equal(got, v) {
						t.Errorf("worker %d get %s: %d bytes %x..., want %d bytes %x...",
							w, key, len(got), got[:4], len(v), v[:4])
						return
					}
				case v != nil && r < 6:
					if _, err := cl.Delete(key); err != nil {
						t.Errorf("worker %d delete %s: %v", w, key, err)
						return
					}
					delete(want, key)
				default:
					size := 32 + rng.Intn(993)
					val := make([]byte, size)
					fill := byte(w<<4) | byte(op&0xf)
					for i := range val {
						val[i] = fill ^ byte(i)
					}
					if err := cl.Set(key, uint32(op), val); err != nil {
						t.Errorf("worker %d set %s: %v", w, key, err)
						return
					}
					want[key] = val
				}
			}
		}(w)
	}
	wg.Wait()

	// The test is only meaningful if defragmentation actually ran under
	// the traffic, and it ran as the server's controller runs it: pause-free
	// passes that move bytes, and not one barrier pass. Mutation: drop the
	// line in New that installs the pause-free pass on the backend's
	// controller, and the backend's own barrier-stepped controller is left:
	// no concurrent pass runs and this fails.
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	conc, _ := strconv.ParseInt(st["defrag_concurrent_passes"], 10, 64)
	barr, _ := strconv.ParseInt(st["defrag_barrier_passes"], 10, 64)
	moved, _ := strconv.ParseInt(st["defrag_moved_bytes"], 10, 64)
	if conc == 0 {
		t.Error("no pause-free concurrent defrag passes ran under traffic")
	}
	if barr != 0 {
		t.Errorf("defrag_barrier_passes = %d: the server stopped the world", barr)
	}
	if moved == 0 {
		t.Error("defrag moved zero bytes under traffic")
	}
	if st["protocol_errors"] != "0" {
		t.Errorf("protocol_errors = %s, want 0", st["protocol_errors"])
	}
	t.Logf("defrag under traffic: %d concurrent passes, %d bytes moved, aborts=%s, frag=%s",
		conc, moved, st["defrag_move_aborts"], st["heap_fragmentation"])
}

// TestServeShutdownRace: every caller starts the accept loop as `go
// srv.Serve()`, so a Shutdown may run before Serve has been scheduled. It
// must then either wait for what Serve started or keep Serve from starting
// anything — under -race the parent's `s.wg.Add(1)` at the top of Serve
// races Shutdown's Wait, and a poller started after its stop leaks its
// workers. Mutation: drop the s.mu.Lock/Unlock around close(s.quit) in
// Shutdown and this fails within its 200 iterations.
func TestServeShutdownRace(t *testing.T) {
	store := kv.NewShardedStore(kv.NewMallocBackend(), 4, 0)
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		srv := New(store, Config{Addr: "127.0.0.1:0"})
		if err := srv.Listen(); err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve() }()
		if i%2 == 1 {
			runtime.Gosched() // let Serve win some of the races too
		}
		_ = srv.Shutdown(time.Second)
		if err := <-served; err != nil {
			t.Fatalf("iteration %d: Serve = %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the loop:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerDefragReturnsMemory: what an operator gets from live defrag
// with nothing tuned — alaskad's F_ub and budget, anchorage's default
// configuration, a -m ceiling — under sets that keep changing their
// values' lengths, then deletes of three keys in four. The server's
// controller steps only the pause-free pass, and it has to give the
// memory back: tails truncated (defrag_truncated_bytes), no stop-the-world
// pass, and once the clients go quiet the resident set within 1.35× the
// live bytes. On both transports, every get checked.
func TestServerDefragReturnsMemory(t *testing.T) {
	ops := 12000
	if testing.Short() {
		ops = 5000
	}
	forEachTransport(t, Config{Addr: "127.0.0.1:0", MaintainInterval: 5 * time.Millisecond}, func(t *testing.T, cfg Config) {
		backend, err := kv.NewAnchorageBackend(anchorage.DefaultConfig(), rt.WithPinMode(rt.CountedPins))
		if err != nil {
			t.Fatal(err)
		}
		srv := startServerWithCap(t, backend, cfg, 6<<20)
		const workers = 4
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cl, err := Dial(srv.Addr())
				if err != nil {
					t.Error(err)
					return
				}
				defer cl.Close()
				rng := rand.New(rand.NewSource(int64(w)))
				// A private key range, far more of it than fits under the
				// ceiling: eviction frees what the resizing sets do not.
				for op := 0; op < ops; op++ {
					key := "w" + strconv.Itoa(w) + "-k" + strconv.Itoa(rng.Intn(6000))
					val := bytes.Repeat([]byte{byte(op)}, 128+rng.Intn(897))
					if err := cl.Set(key, 0, val); err != nil {
						t.Errorf("worker %d set %s: %v", w, key, err)
						return
					}
					if op%4 == 0 {
						got, _, ok, err := cl.Get(key)
						if err != nil || !ok || !bytes.Equal(got, val) {
							t.Errorf("worker %d get %s right after its set: %d bytes, hit %v, err %v; want %d bytes of %#x", w, key, len(got), ok, err, len(val), byte(op))
							return
						}
					}
				}
				// Three keys in four go, so the heap the churn left is sparse
				// everywhere and a pass has a tail to move down and truncate.
				for k := 0; k < 6000; k++ {
					if k%4 != 0 {
						if _, err := cl.Delete("w" + strconv.Itoa(w) + "-k" + strconv.Itoa(k)); err != nil {
							t.Errorf("worker %d delete: %v", w, err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()

		// Quiet now: the controller runs passes until fragmentation is
		// under F_lb, and the tick drains the last vacated blocks.
		var rss, active uint64
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			rss, active = backend.Space.RSS(), backend.Svc.ActiveBytes()
			if float64(rss) <= 1.35*float64(active) || time.Now().After(deadline) {
				break
			}
		}
		if float64(rss) > 1.35*float64(active) {
			t.Errorf("RSS %d is %.3f× the %d active bytes, want <= 1.35×", rss, float64(rss)/float64(active), active)
		}
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		stat := func(name string) int64 {
			n, err := strconv.ParseInt(st[name], 10, 64)
			if err != nil {
				t.Errorf("stats: %s = %q: %v", name, st[name], err)
			}
			return n
		}
		if stat("evictions") == 0 {
			t.Error("no evictions: the keyspace fitted under the ceiling and nothing churned")
		}
		if stat("defrag_truncated_bytes") == 0 {
			t.Error("defrag_truncated_bytes = 0: the passes returned no tail to the OS")
		}
		if n := stat("defrag_barrier_passes"); n != 0 {
			t.Errorf("defrag_barrier_passes = %d: the server stopped the world", n)
		}
		if st["protocol_errors"] != "0" {
			t.Errorf("protocol_errors = %s, want 0", st["protocol_errors"])
		}
		t.Logf("%d concurrent passes moved %s bytes, truncated %s; RSS %d / active %d = %.3f",
			stat("defrag_concurrent_passes"), st["defrag_moved_bytes"], st["defrag_truncated_bytes"],
			rss, active, float64(rss)/float64(active))
	})
}
