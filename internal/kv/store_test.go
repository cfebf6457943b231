package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/rt"
)

func backends(t *testing.T) map[string]Backend {
	t.Helper()
	anch, err := NewAnchorageBackend(anchorage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{
		"baseline":     NewMallocBackend(),
		"activedefrag": NewActiveDefragBackend(),
		"mesh":         NewMeshBackend(1),
		"anchorage":    anch,
	}
}

func TestSetGetDelAllBackends(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s, sess := NewShardedStore(b, 1, 0), SingleThreadedSession(b)
			if err := set(s, sess, "k1", []byte("hello world")); err != nil {
				t.Fatal(err)
			}
			v, err := get(s, sess, "k1")
			if err != nil {
				t.Fatal(err)
			}
			if string(v) != "hello world" {
				t.Errorf("Get = %q", v)
			}
			if v, _ := get(s, sess, "missing"); v != nil {
				t.Error("missing key returned a value")
			}
			ok, err := del(s, sess, "k1")
			if err != nil || !ok {
				t.Errorf("Del = %v, %v", ok, err)
			}
			if v, _ := get(s, sess, "k1"); v != nil {
				t.Error("deleted key still readable")
			}
			if ok, _ := del(s, sess, "k1"); ok {
				t.Error("double delete reported success")
			}
		})
	}
}

func TestOverwriteReplacesValue(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s, sess := NewShardedStore(b, 1, 0), SingleThreadedSession(b)
			if err := set(s, sess, "k", []byte("old-value-that-is-long")); err != nil {
				t.Fatal(err)
			}
			if err := set(s, sess, "k", []byte("new")); err != nil {
				t.Fatal(err)
			}
			v, _ := get(s, sess, "k")
			if string(v) != "new" {
				t.Errorf("Get after overwrite = %q", v)
			}
			if s.Len() != 1 {
				t.Errorf("Len = %d", s.Len())
			}
			if got := b.UsedBytes(); got != 3 {
				t.Errorf("UsedBytes = %d, want 3", got)
			}
		})
	}
}

func TestLRUEvictionUnderMaxMemory(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s, sess := NewShardedStore(b, 1, 10*1024), SingleThreadedSession(b)
			val := make([]byte, 1024)
			for i := 0; i < 20; i++ {
				if err := set(s, sess, fmt.Sprintf("key%02d", i), val); err != nil {
					t.Fatal(err)
				}
			}
			if b.UsedBytes() > 10*1024 {
				t.Errorf("UsedBytes %d exceeds maxmemory", b.UsedBytes())
			}
			if s.Snapshot().Evictions == 0 {
				t.Error("no evictions")
			}
			// Oldest keys evicted, newest retained.
			if v, _ := get(s, sess, "key00"); v != nil {
				t.Error("LRU key survived")
			}
			if v, _ := get(s, sess, "key19"); v == nil {
				t.Error("MRU key evicted")
			}
		})
	}
}

func TestGetRefreshesLRU(t *testing.T) {
	// Budget for exactly three entries of charged cost (value + 2-byte
	// key + EntryOverhead each).
	b := NewMallocBackend()
	s, sess := NewShardedStore(b, 1, 3*entryCost(2, 100)), SingleThreadedSession(b)
	val := make([]byte, 100)
	for i := 0; i < 3; i++ {
		if err := set(s, sess, fmt.Sprintf("k%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 becomes LRU.
	if _, err := get(s, sess, "k0"); err != nil {
		t.Fatal(err)
	}
	if err := set(s, sess, "k3", val); err != nil {
		t.Fatal(err)
	}
	if v, _ := get(s, sess, "k0"); v == nil {
		t.Error("recently-read key was evicted")
	}
	if v, _ := get(s, sess, "k1"); v != nil {
		t.Error("LRU key survived")
	}
}

// Fragmentation-and-defrag integration: churn all four backends the same
// way; verify values; anchorage and activedefrag must end with lower RSS
// than baseline.
func TestDefragBackendsBeatBaseline(t *testing.T) {
	results := make(map[string]uint64)
	for name, b := range backends(t) {
		s, sess := NewShardedStore(b, 1, 4<<20), SingleThreadedSession(b) // 4 MiB maxmemory
		maintain := func(now time.Duration) {
			sess.Safepoint()
			s.Maintain(now)
		}
		rng := rand.New(rand.NewSource(5))
		now := time.Duration(0)
		// Insert 3x the limit; every 20th key is "hot" and re-read
		// periodically so it survives LRU eviction. Hot survivors scatter
		// across the heap and pin pages a non-moving allocator can never
		// reclaim (the Redis-as-cache pattern behind Figure 9).
		var hot []string
		for i := 0; i < 24000; i++ {
			size := 200 + rng.Intn(400)
			if i > 12000 {
				size = 64 + rng.Intn(64)
			}
			key := fmt.Sprintf("key%07d", i)
			val := bytes.Repeat([]byte{byte(i)}, size)
			if err := set(s, sess, key, val); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if i%20 == 0 {
				hot = append(hot, key)
			}
			if i%500 == 499 {
				for _, k := range hot {
					if _, err := get(s, sess, k); err != nil {
						t.Fatalf("%s: hot get: %v", name, err)
					}
				}
			}
			now += 50 * time.Microsecond
			maintain(now)
		}
		// Let maintenance settle.
		for i := 0; i < 100; i++ {
			now += 100 * time.Millisecond
			maintain(now)
		}
		results[name] = b.RSS()
		// Spot-check value integrity after all the moving.
		checked := 0
		for i := 23999; i >= 0 && checked < 50; i-- {
			v, err := get(s, sess, fmt.Sprintf("key%07d", i))
			if err != nil {
				t.Fatalf("%s: get: %v", name, err)
			}
			if v == nil {
				continue
			}
			checked++
			for _, c := range v {
				if c != byte(i) {
					t.Fatalf("%s: key%07d corrupted", name, i)
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no keys survived to check", name)
		}
	}
	if results["anchorage"] >= results["baseline"] {
		t.Errorf("anchorage RSS %d not below baseline %d", results["anchorage"], results["baseline"])
	}
	if results["activedefrag"] >= results["baseline"] {
		t.Errorf("activedefrag RSS %d not below baseline %d", results["activedefrag"], results["baseline"])
	}
}

func TestShardedStoreConcurrent(t *testing.T) {
	anch, err := NewAnchorageBackend(anchorage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]Backend{"baseline": NewMallocBackend(), "anchorage": anch} {
		t.Run(name, func(t *testing.T) {
			st := NewShardedStore(b, 8, 0)
			const nWorkers = 4
			var wg sync.WaitGroup
			for w := 0; w < nWorkers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sess := st.NewSession()
					defer sess.Close()
					for i := 0; i < 500; i++ {
						key := fmt.Sprintf("w%d-k%d", w, i%50)
						val := []byte(fmt.Sprintf("value-%d-%d", w, i))
						if err := set(st, sess, key, val); err != nil {
							t.Errorf("set: %v", err)
							return
						}
						got, err := get(st, sess, key)
						if err != nil {
							t.Errorf("get: %v", err)
							return
						}
						if !bytes.Equal(got, val) {
							t.Errorf("read back %q, want %q", got, val)
							return
						}
						sess.Safepoint()
					}
				}(w)
			}
			wg.Wait()
			if st.Len() != nWorkers*50 {
				t.Errorf("Len = %d, want %d", st.Len(), nWorkers*50)
			}
		})
	}
}

// Concurrent workers + periodic relocation barriers: reads must never see
// torn or stale data.
func TestShardedStoreWithConcurrentDefrag(t *testing.T) {
	anch, err := NewAnchorageBackend(anchorage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := NewShardedStore(anch, 8, 0)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := st.NewSession()
			defer sess.Close()
			for i := 0; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				key := fmt.Sprintf("w%d-k%d", w, i%100)
				want := []byte(fmt.Sprintf("stable-value-%d-%d", w, i%100))
				if err := set(st, sess, key, want); err != nil {
					t.Errorf("set: %v", err)
					return
				}
				got, err := get(st, sess, key)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if got != nil && !bytes.Equal(got, want) {
					t.Errorf("torn read: %q vs %q", got, want)
					return
				}
				sess.Safepoint()
			}
		}(w)
	}
	// Pauser: relocate up to 64 KiB every few hundred microseconds. The
	// primary thread never runs mutator code here, so it initiates.
	for i := 0; i < 50; i++ {
		anch.Runtime.Barrier(anch.primary, func(scope *rt.BarrierScope) {
			anch.Svc.DefragPass(scope, 64<<10)
		})
		time.Sleep(200 * time.Microsecond)
	}
	close(quit)
	wg.Wait()
}
