package kv

// Memory-ceiling battery: real memcached `-m` semantics. The ceiling is
// a budget of charged bytes (value + key + EntryOverhead), global across
// shards, enforced by LRU eviction with spill to the coldest shards,
// never exceeded even transiently, with oversized values rejected up
// front and dead victims classified as reclaims rather than evictions.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/rt"
)

// flakyBackend wraps a backend so tests can make session writes fail on
// demand — the only way to exercise the failed-store path, which must
// leave the old value intact and refund its budget reservation.
type flakyBackend struct {
	Backend
	failWrites atomic.Bool
}

func (f *flakyBackend) NewSession() Session {
	return &flakySession{Session: f.Backend.NewSession(), b: f}
}

type flakySession struct {
	Session
	b *flakyBackend
}

func (s *flakySession) Write(ref Ref, off uint64, b []byte) error {
	if s.b.failWrites.Load() {
		return errors.New("injected write failure")
	}
	return s.Session.Write(ref, off, b)
}

// TestOversizedValueRejected: a value whose charged cost exceeds the
// whole ceiling must be refused up front — previously the store
// evicted the entire LRU and then stored it over the cap anyway.
func TestOversizedValueRejected(t *testing.T) {
	const keyLen = 2 // "kN"
	cap4 := 4 * entryCost(keyLen, 100)
	small := make([]byte, 100)
	huge := make([]byte, int(cap4)) // cost > cap even before key+overhead

	t.Run("sharded", func(t *testing.T) {
		s := NewShardedStore(NewMallocBackend(), 4, cap4)
		sess := s.NewSession()
		defer sess.Close()
		for i := 0; i < 4; i++ {
			if err := set(s, sess, fmt.Sprintf("k%d", i), small); err != nil {
				t.Fatal(err)
			}
		}
		err := set(s, sess, "kX", huge)
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("oversized set: err = %v, want ErrTooLarge", err)
		}
		snap := s.Snapshot()
		if snap.Evictions != 0 || snap.Reclaimed != 0 {
			t.Errorf("oversized set evicted: evictions=%d reclaimed=%d, want 0", snap.Evictions, snap.Reclaimed)
		}
		if snap.Bytes != cap4 {
			t.Errorf("Bytes = %d, want %d (unchanged full store)", snap.Bytes, cap4)
		}
		for i := 0; i < 4; i++ {
			if v, _ := get(s, sess, fmt.Sprintf("k%d", i)); v == nil {
				t.Errorf("k%d lost to an oversized set", i)
			}
		}
	})
}

// TestCeilingSmallerThanShardCount: regression for the alaskad
// `maxMem/shards` truncation — a cap below the shard count used to
// become 0 = unlimited per shard. Under global semantics any positive
// cap limits, no matter how many shards.
func TestCeilingSmallerThanShardCount(t *testing.T) {
	ceiling := entryCost(3, 8) // room for exactly one tiny entry
	s := NewShardedStore(NewMallocBackend(), 32, ceiling)
	sess := s.NewSession()
	defer sess.Close()
	val := make([]byte, 8)
	for i := 0; i < 10; i++ {
		if err := set(s, sess, fmt.Sprintf("k%02d", i), val); err != nil {
			t.Fatal(err)
		}
		if snap := s.Snapshot(); snap.Bytes > snap.LimitMaxbytes {
			t.Fatalf("bytes %d exceeds limit_maxbytes %d", snap.Bytes, snap.LimitMaxbytes)
		}
	}
	if got := s.Len(); got != 1 {
		t.Errorf("Len = %d, want 1 (every insert must evict the previous entry)", got)
	}
	if snap := s.Snapshot(); snap.Evictions != 9 {
		t.Errorf("evictions = %d, want 9", snap.Evictions)
	}
}

// shardKeys buckets generated keys by the shard they hash to, so tests
// can aim inserts at specific shards.
func shardKeys(s *ShardedStore, prefix string, want, perShard int) map[int][]string {
	out := make(map[int][]string)
	for i := 0; len(out) < want || shortest(out, want) < perShard; i++ {
		key := fmt.Sprintf("%s%04d", prefix, i)
		sh := s.shardForB([]byte(key))
		for idx, cand := range s.shards {
			if cand == sh {
				if len(out[idx]) < perShard {
					out[idx] = append(out[idx], key)
				}
				break
			}
		}
	}
	return out
}

func shortest(m map[int][]string, want int) int {
	n := -1
	for _, ks := range m {
		if n == -1 || len(ks) < n {
			n = len(ks)
		}
	}
	if len(m) < want {
		return 0
	}
	return n
}

// TestEvictionSpillsToOtherShards: when the inserting shard's own LRU
// runs dry, pressure must spill to other shards instead of blowing the
// global budget — the hot-shard-starves-while-cold-shards-idle bug.
func TestEvictionSpillsToOtherShards(t *testing.T) {
	const valLen = 64
	s := NewShardedStore(NewMallocBackend(), 4, 0) // cap set below, after costing keys
	keys := shardKeys(s, "spill", 4, 8)
	keyLen := len(keys[0][0])
	ceiling := 8 * entryCost(keyLen, valLen)
	s.maxMemory = ceiling

	sess := s.NewSession()
	defer sess.Close()
	val := make([]byte, valLen)
	// Fill the budget entirely with shard 0's keys.
	for _, k := range keys[0] {
		if err := set(s, sess, k, val); err != nil {
			t.Fatal(err)
		}
	}
	if snap := s.Snapshot(); snap.Bytes != ceiling {
		t.Fatalf("Bytes = %d, want full ceiling %d", snap.Bytes, ceiling)
	}
	// Now insert through each of the other shards: local pressure comes
	// first, so each insert goes through a shard whose own LRU is empty
	// — the only way to make room is evicting shard 0's coldest entries.
	for _, k := range []string{keys[1][0], keys[2][0], keys[3][0]} {
		if err := set(s, sess, k, val); err != nil {
			t.Fatal(err)
		}
		if snap := s.Snapshot(); snap.Bytes > ceiling {
			t.Fatalf("bytes %d exceeds ceiling %d after spill insert", snap.Bytes, ceiling)
		}
	}
	snap := s.Snapshot()
	if snap.Evictions != 3 {
		t.Errorf("evictions = %d, want 3 spills", snap.Evictions)
	}
	// Spill must take shard 0's LRU order: its three oldest keys die.
	for i, k := range keys[0] {
		v, err := get(s, sess, k)
		if err != nil {
			t.Fatal(err)
		}
		if i < 3 && v != nil {
			t.Errorf("%s survived; spill should evict shard 0's coldest first", k)
		}
		if i >= 3 && v == nil {
			t.Errorf("%s evicted; spill took more than needed", k)
		}
	}
}

// TestEvictionClassifiesDeadAsReclaimed: the eviction walk removing an
// expired (or flushed) entry is reclamation — it must not count as an
// eviction of live data.
func TestEvictionClassifiesDeadAsReclaimed(t *testing.T) {
	base := time.Unix(1700000000, 0)
	now := base
	clock := func() time.Time { return now }
	const keyLen = 2
	cap2 := 2 * entryCost(keyLen, 64)
	val := make([]byte, 64)

	t.Run("sharded", func(t *testing.T) {
		now = base
		s := NewShardedStore(NewMallocBackend(), 1, cap2)
		s.Clock = clock
		sess := s.NewSession()
		defer sess.Close()
		for i := 0; i < 2; i++ {
			if _, err := setEx(s, sess, fmt.Sprintf("d%d", i), val, SetAlways, now.Add(time.Second)); err != nil {
				t.Fatal(err)
			}
		}
		now = now.Add(2 * time.Second)
		for i := 0; i < 2; i++ {
			if err := set(s, sess, fmt.Sprintf("n%d", i), val); err != nil {
				t.Fatal(err)
			}
		}
		snap := s.Snapshot()
		if snap.Reclaimed != 2 || snap.Evictions != 0 {
			t.Errorf("reclaimed=%d evictions=%d, want 2/0: dead victims are reclaims", snap.Reclaimed, snap.Evictions)
		}
	})
}

// TestEvictedUnfetchedCounter: evicting an entry that was never read
// since it was stored bumps evicted_unfetched; a fetched victim doesn't.
func TestEvictedUnfetchedCounter(t *testing.T) {
	const keyLen = 2
	cap2 := 2 * entryCost(keyLen, 64)
	val := make([]byte, 64)
	s := NewShardedStore(NewMallocBackend(), 1, cap2)
	sess := s.NewSession()
	defer sess.Close()
	for _, k := range []string{"ka", "kb"} {
		if err := set(s, sess, k, val); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := get(s, sess, "ka"); err != nil { // ka fetched; kb now the LRU tail
		t.Fatal(err)
	}
	if err := set(s, sess, "kc", val); err != nil { // evicts kb (never fetched)
		t.Fatal(err)
	}
	if err := set(s, sess, "kd", val); err != nil { // evicts ka (fetched)
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", snap.Evictions)
	}
	if snap.EvictedUnfetched != 1 {
		t.Errorf("evicted_unfetched = %d, want 1 (only kb was never read)", snap.EvictedUnfetched)
	}
}

// TestOverwriteDiscountsReplacedBytes: re-setting a live key needs no
// net room — the replaced entry's cost is credited, so a full store
// survives same-size overwrites with zero evictions.
func TestOverwriteDiscountsReplacedBytes(t *testing.T) {
	const keyLen = 2
	cap2 := 2 * entryCost(keyLen, 64)
	val := make([]byte, 64)
	s := NewShardedStore(NewMallocBackend(), 2, cap2)
	sess := s.NewSession()
	defer sess.Close()
	for _, k := range []string{"ka", "kb"} {
		if err := set(s, sess, k, val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := set(s, sess, "ka", val); err != nil {
			t.Fatal(err)
		}
		snap := s.Snapshot()
		if snap.Bytes != cap2 {
			t.Fatalf("Bytes = %d, want %d after overwrite %d", snap.Bytes, cap2, i)
		}
		if snap.Evictions != 0 || snap.Reclaimed != 0 {
			t.Fatalf("overwrite evicted: evictions=%d reclaimed=%d", snap.Evictions, snap.Reclaimed)
		}
	}
	if v, _ := get(s, sess, "kb"); v == nil {
		t.Error("kb evicted by a same-size overwrite of ka")
	}
}

// TestFailedStoreLeavesOldValueAndBudget: a write failure mid-store must
// keep the previous value readable and refund the budget reservation —
// a leak here would strangle the ceiling one failed set at a time.
func TestFailedStoreLeavesOldValueAndBudget(t *testing.T) {
	const keyLen = 2
	cap4 := 4 * entryCost(keyLen, 64)
	v1 := bytes.Repeat([]byte{0xAA}, 64)
	v2 := bytes.Repeat([]byte{0xBB}, 64)

	t.Run("sharded", func(t *testing.T) {
		fb := &flakyBackend{Backend: NewMallocBackend()}
		s := NewShardedStore(fb, 2, cap4)
		sess := s.NewSession()
		defer sess.Close()
		if err := set(s, sess, "k0", v1); err != nil {
			t.Fatal(err)
		}
		before := s.Snapshot().Bytes
		fb.failWrites.Store(true)
		if err := set(s, sess, "k0", v2); err == nil {
			t.Fatal("set succeeded despite injected write failure")
		}
		// A brand-new key must also refund its (full-cost) reservation.
		if err := set(s, sess, "k1", v2); err == nil {
			t.Fatal("set succeeded despite injected write failure")
		}
		fb.failWrites.Store(false)
		got, err := get(s, sess, "k0")
		if err != nil || !bytes.Equal(got, v1) {
			t.Errorf("k0 = %v, %v; want old value intact", got, err)
		}
		if after := s.Snapshot().Bytes; after != before {
			t.Errorf("Bytes %d -> %d across failed stores; reservation leaked", before, after)
		}
		// The refunded budget must still be fully usable.
		for i := 0; i < 3; i++ {
			if err := set(s, sess, fmt.Sprintf("f%d", i), v2); err != nil {
				t.Fatalf("post-failure set %d: %v", i, err)
			}
		}
		if snap := s.Snapshot(); snap.Evictions != 0 {
			t.Errorf("evictions = %d filling to the cap after refunds, want 0", snap.Evictions)
		}
	})
}

// TestLRUOrderAcrossTouches: get, touch, and RMW reads all refresh
// recency, so the eviction victim is always the least-recently-touched
// entry, not merely the least-recently-stored.
func TestLRUOrderAcrossTouches(t *testing.T) {
	const keyLen = 2
	cap3 := 3 * entryCost(keyLen, 64)
	val := make([]byte, 64)
	s := NewShardedStore(NewMallocBackend(), 1, cap3)
	sess := s.NewSession()
	defer sess.Close()
	for _, k := range []string{"ka", "kb", "kc"} {
		if err := set(s, sess, k, val); err != nil {
			t.Fatal(err)
		}
	}
	// Recency now kc > kb > ka. Refresh ka (get) then kb (touch): the
	// victim must be kc.
	if _, err := get(s, sess, "ka"); err != nil {
		t.Fatal(err)
	}
	if _, err := touch(s, sess, "kb", time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := set(s, sess, "kd", val); err != nil {
		t.Fatal(err)
	}
	if v, _ := get(s, sess, "kc"); v != nil {
		t.Error("kc survived; it was the least-recently-touched entry")
	}
	for _, k := range []string{"ka", "kb", "kd"} {
		if v, _ := get(s, sess, k); v == nil {
			t.Errorf("%s evicted despite recent touch", k)
		}
	}
	// An RMW read (CompareAndSwap's lookup) refreshes too: ka is oldest
	// again after the loop above; CAS it, then kb must be the victim.
	if _, _, err := cas(s, sess, "ka", val, val); err != nil {
		t.Fatal(err)
	}
	if err := set(s, sess, "ke", val); err != nil {
		t.Fatal(err)
	}
	if v, _ := get(s, sess, "kb"); v != nil {
		t.Error("kb survived; the CAS read should have refreshed ka past it")
	}
	if v, _ := get(s, sess, "ka"); v == nil {
		t.Error("ka evicted despite the CAS read refreshing it")
	}
}

// TestChargedBytesReturnToZero: every charge path has a refund path —
// deleting everything must land the accounting exactly on zero.
func TestChargedBytesReturnToZero(t *testing.T) {
	s := NewShardedStore(NewMallocBackend(), 4, 1<<20)
	sess := s.NewSession()
	defer sess.Close()
	rng := rand.New(rand.NewSource(42))
	keys := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("z%03d", i)
		keys = append(keys, k)
		val := make([]byte, 1+rng.Intn(700))
		if err := set(s, sess, k, val); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:32] { // overwrite half with different sizes
		val := make([]byte, 1+rng.Intn(700))
		if err := set(s, sess, k, val); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if _, err := del(s, sess, k); err != nil {
			t.Fatal(err)
		}
	}
	if snap := s.Snapshot(); snap.Bytes != 0 {
		t.Errorf("Bytes = %d after deleting every key, want 0", snap.Bytes)
	}
}

// TestEvictionPressureDefragRace hammers eviction-pressure sets — every
// insert over the ceiling evicts, spilling across shards — against the
// §7 pause-free ConcurrentDefragPass relocating blocks underneath. Run
// under `go test -race ./internal/kv`.
func TestEvictionPressureDefragRace(t *testing.T) {
	acfg := anchorage.DefaultConfig()
	acfg.SubHeapSize = 128 * 1024
	backend, err := NewAnchorageBackend(acfg, rt.WithPinMode(rt.CountedPins))
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 192 * 1024
	store := NewShardedStore(backend, 8, ceiling)

	ops := 2000
	if testing.Short() {
		ops = 500
	}
	stop := make(chan struct{})
	var defragWG sync.WaitGroup
	defragWG.Add(1)
	go func() {
		defer defragWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			backend.Svc.ConcurrentDefragPass(64 << 10)
			backend.Svc.DrainDeferred()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	workers := 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := store.NewSession()
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < ops; op++ {
				sess.Safepoint()
				// Keyspace far larger than the ceiling holds, so most
				// sets evict; values are derived from the key so any
				// worker can verify any key's bytes.
				id := rng.Intn(2048)
				key := fmt.Sprintf("race-%04d", id)
				if rng.Intn(4) == 0 {
					got, err := get(store, sess, key)
					if err != nil {
						t.Errorf("worker %d get %s: %v", w, key, err)
						return
					}
					if got != nil && (len(got) != 128+id%512 || got[0] != byte(id)) {
						t.Errorf("worker %d get %s: torn value (%d bytes, lead %#x)", w, key, len(got), got[0])
						return
					}
					continue
				}
				val := make([]byte, 128+id%512)
				for i := range val {
					val[i] = byte(id)
				}
				if err := set(store, sess, key, val); err != nil {
					t.Errorf("worker %d set %s: %v", w, key, err)
					return
				}
				if snap := store.Snapshot(); snap.Bytes > ceiling {
					t.Errorf("bytes %d exceeds ceiling %d mid-churn", snap.Bytes, ceiling)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	defragWG.Wait()

	snap := store.Snapshot()
	if snap.Evictions == 0 {
		t.Error("no evictions; the churn raced nothing")
	}
	if snap.Bytes > ceiling {
		t.Errorf("final bytes %d exceeds ceiling %d", snap.Bytes, ceiling)
	}
	t.Logf("defrag-vs-eviction churn: %d evictions, %d reclaimed, bytes %d/%d, %d keys",
		snap.Evictions, snap.Reclaimed, snap.Bytes, ceiling, snap.Keys)
}
