package server

// Race-hardened RMW tests: the read-modify-write commands are exactly
// the operations a concurrent mover can corrupt — they read a block,
// compute, and write back while ConcurrentDefragPass relocates it. These
// tests hammer incr and cas over real loopback sockets while the
// pause-free pass runs, and assert *exact* arithmetic: a single lost or
// doubled update fails the test. Run under `go test -race -short`.

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/kv"
	"alaska/internal/rt"
)

// defragStress is a server config that steps the defrag controller
// every 2 ms with F_ub 1.1, for startDefragStressServer.
var defragStress = Config{
	Addr:             "127.0.0.1:0",
	MaintainInterval: 2 * time.Millisecond,
	DefragFragHigh:   1.1,
	DefragBudget:     256 * 1024,
}

// startDefragStressServer boots cfg on an anchorage backend tuned so the
// controller runs the pause-free concurrent pass nearly continuously
// under traffic.
func startDefragStressServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	acfg := anchorage.DefaultConfig()
	acfg.SubHeapSize = 256 * 1024
	acfg.FragLow = 1.1
	acfg.WakeInterval = 5 * time.Millisecond
	backend, err := kv.NewAnchorageBackend(acfg, rt.WithPinMode(rt.CountedPins))
	if err != nil {
		t.Fatal(err)
	}
	return startServer(t, backend, cfg)
}

// churn runs jittered sets on its own key range until stop closes,
// fragmenting the heap so the defrag machinery has continuous work.
func churn(t *testing.T, addr string, id int, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	cl, err := Dial(addr)
	if err != nil {
		t.Error(err)
		return
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(int64(id)))
	for op := 0; ; op++ {
		select {
		case <-stop:
			return
		default:
		}
		key := "churn" + strconv.Itoa(id) + "-" + strconv.Itoa(rng.Intn(64))
		val := bytes.Repeat([]byte{byte(op)}, 32+rng.Intn(993))
		if err := cl.Set(key, 0, val); err != nil {
			t.Errorf("churn %d: %v", id, err)
			return
		}
	}
}

// TestConcurrentIncrUnderDefragRace: N goroutines incr one counter over
// real sockets while concurrent defrag passes run; the final
// value must equal exactly the number of successful replies — ≥100
// pause-free passes must relocate under the arithmetic without losing a
// single update.
func TestConcurrentIncrUnderDefragRace(t *testing.T) {
	srv := startDefragStressServer(t, defragStress)

	setup, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Set("ctr", 0, []byte("0")); err != nil {
		t.Fatal(err)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const passTarget = 100
	stop := make(chan struct{})
	var stopOnce sync.Once

	// Monitor: end the run once enough pause-free passes have landed (or
	// a generous cap elapses — the pass count is asserted below either
	// way).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(30 * time.Second)
		for {
			time.Sleep(50 * time.Millisecond)
			st, err := setup.Stats()
			if err != nil {
				t.Error(err)
				stopOnce.Do(func() { close(stop) })
				return
			}
			passes, _ := strconv.Atoi(st["defrag_concurrent_passes"])
			if passes >= passTarget || time.Now().After(deadline) {
				stopOnce.Do(func() { close(stop) })
				return
			}
		}
	}()

	// Churn workers keep the heap fragmenting so passes have work.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go churn(t, srv.Addr(), c, stop, &wg)
	}

	// Incr workers: every successful (numeric) reply is one unit that
	// must survive into the final value.
	var succeeded atomic.Int64
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
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, found, err := cl.Incr("ctr", 1); err != nil {
					t.Errorf("incr worker %d: %v", w, err)
					return
				} else if !found {
					t.Errorf("incr worker %d: counter vanished", w)
					return
				}
				succeeded.Add(1)
			}
		}(w)
	}
	wg.Wait()

	want := succeeded.Load()
	v, _, ok, err := setup.Get("ctr")
	if err != nil || !ok {
		t.Fatalf("final get: ok=%v err=%v", ok, err)
	}
	got, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		t.Fatalf("final counter %q is not numeric: %v", v, err)
	}
	if got != want {
		t.Errorf("counter = %d, want %d successful incrs (lost %d updates)", got, want, want-got)
	}

	st, err := setup.Stats()
	if err != nil {
		t.Fatal(err)
	}
	passes, _ := strconv.Atoi(st["defrag_concurrent_passes"])
	barriers, _ := strconv.Atoi(st["defrag_barrier_passes"])
	if passes < passTarget {
		t.Errorf("only %d concurrent defrag passes ran, want >= %d", passes, passTarget)
	}
	if barriers != 0 {
		t.Errorf("defrag_barrier_passes = %d: the server stopped the world", barriers)
	}
	if st["protocol_errors"] != "0" {
		t.Errorf("protocol_errors = %s, want 0", st["protocol_errors"])
	}
	setup.Close()
	t.Logf("incr atomicity: %d incrs across %d workers, %d concurrent passes, moved=%s",
		want, workers, passes, st["defrag_moved_bytes"])
}

// TestCasContentionExactlyOneWinner: workers race gets+cas on one key;
// each generation of the value must admit exactly one STORED. The final
// counter equals the total number of STORED replies — a double-winner
// would fork a generation and leave the counter short.
func TestCasContentionExactlyOneWinner(t *testing.T) {
	srv := startDefragStressServer(t, defragStress)

	setup, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if err := setup.Set("gen", 0, []byte("0")); err != nil {
		t.Fatal(err)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	attempts := 300
	if testing.Short() {
		attempts = 120
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Background churn keeps defrag busy during the contention loop.
	wg.Add(1)
	go churn(t, srv.Addr(), 99, stop, &wg)

	var stored atomic.Int64
	var cwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		cwg.Add(1)
		go func(w int) {
			defer cwg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < attempts; i++ {
				v, _, casID, ok, err := cl.Gets("gen")
				if err != nil || !ok {
					t.Errorf("cas worker %d: gets: ok=%v err=%v", w, ok, err)
					return
				}
				n, err := strconv.ParseInt(string(v), 10, 64)
				if err != nil {
					t.Errorf("cas worker %d: value %q not numeric", w, v)
					return
				}
				status, err := cl.Cas("gen", 0, 0, casID, []byte(strconv.FormatInt(n+1, 10)))
				if err != nil {
					t.Errorf("cas worker %d: %v", w, err)
					return
				}
				switch status {
				case CasStored:
					stored.Add(1)
				case CasExists:
					// lost the race: retry next attempt from a fresh gets
				case CasNotFound:
					t.Errorf("cas worker %d: key vanished", w)
					return
				}
			}
		}(w)
	}
	cwg.Wait()
	close(stop)
	wg.Wait()

	v, _, ok, err := setup.Get("gen")
	if err != nil || !ok {
		t.Fatalf("final get: ok=%v err=%v", ok, err)
	}
	got, _ := strconv.ParseInt(string(v), 10, 64)
	if got != stored.Load() {
		t.Errorf("counter = %d, want %d STORED replies: some generation had 0 or 2 winners", got, stored.Load())
	}
	if stored.Load() == 0 {
		t.Error("no cas ever won")
	}
	t.Logf("cas contention: %d/%d attempts won across %d workers, final=%d",
		stored.Load(), int64(workers)*int64(attempts), workers, got)
}
