package kv

// Tests for the read-modify-write primitive (Apply/CompareAndSwap) and
// TTL machinery (lazy expiry, Touch, SweepExpired), across every backend.

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// manualClock is a settable clock for deterministic expiry tests.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestShardedApplyRMW(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			st := NewShardedStore(b, 4, 0)
			sess := st.NewSession()
			defer sess.Close()

			// Apply on a missing key sees found == false.
			called := false
			if err := apply(st, sess, "k", func(old []byte, found bool) ApplyOp {
				called = true
				if found || old != nil {
					t.Errorf("missing key: found=%v old=%v", found, old)
				}
				return ApplyOp{}
			}); err != nil || !called {
				t.Fatalf("apply miss: called=%v err=%v", called, err)
			}

			// ApplyStore inserts, then mutates in place.
			if err := set(st, sess, "k", []byte("abc")); err != nil {
				t.Fatal(err)
			}
			if err := apply(st, sess, "k", func(old []byte, found bool) ApplyOp {
				if !found || string(old) != "abc" {
					t.Errorf("apply read: found=%v old=%q", found, old)
				}
				return ApplyOp{Verdict: ApplyStore, Value: append(old, 'd')}
			}); err != nil {
				t.Fatal(err)
			}
			if v, _ := get(st, sess, "k"); string(v) != "abcd" {
				t.Errorf("after apply: %q", v)
			}

			// ApplyDelete removes; ApplyNone leaves untouched.
			if err := apply(st, sess, "k", func([]byte, bool) ApplyOp {
				return ApplyOp{Verdict: ApplyDelete}
			}); err != nil {
				t.Fatal(err)
			}
			if v, _ := get(st, sess, "k"); v != nil {
				t.Errorf("after apply-delete: %q", v)
			}

			// Every RMWStat moves its own counter by exactly one (StatNone
			// moves none) on its way through shardCounters.bump and addTo.
			rmw := func(s StatsSnapshot) [9]int64 {
				return [9]int64{s.CasHits, s.CasBadval, s.CasMisses, s.IncrHits, s.IncrMisses,
					s.DecrHits, s.DecrMisses, s.TouchHits, s.TouchMisses}
			}
			for stat := StatNone; stat <= StatTouchMiss; stat++ {
				want := rmw(st.Snapshot())
				if stat != StatNone {
					want[stat-1]++
				}
				if err := apply(st, sess, "k", func([]byte, bool) ApplyOp { return ApplyOp{Stat: stat} }); err != nil {
					t.Fatal(err)
				}
				if got := rmw(st.Snapshot()); got != want {
					t.Errorf("stat %d: rmw counters %v, want %v", stat, got, want)
				}
			}
		})
	}
}

func TestShardedCompareAndSwap(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			st := NewShardedStore(b, 4, 0)
			sess := st.NewSession()
			defer sess.Close()
			if _, found, err := cas(st, sess, "k", []byte("x"), []byte("y")); err != nil || found {
				t.Fatalf("cas on missing: found=%v err=%v", found, err)
			}
			if err := set(st, sess, "k", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if swapped, _, _ := cas(st, sess, "k", []byte("stale"), []byte("v2")); swapped {
				t.Error("cas with stale expected value swapped")
			}
			if v, _ := get(st, sess, "k"); string(v) != "v1" {
				t.Errorf("after failed cas: %q", v)
			}
			if swapped, _, _ := cas(st, sess, "k", []byte("v1"), []byte("v2")); !swapped {
				t.Error("cas with matching expected value did not swap")
			}
			if v, _ := get(st, sess, "k"); string(v) != "v2" {
				t.Errorf("after cas: %q", v)
			}
			snap := st.Snapshot()
			if snap.CasHits != 1 || snap.CasBadval != 1 || snap.CasMisses != 1 {
				t.Errorf("cas counters: hits=%d badval=%d misses=%d, want 1/1/1",
					snap.CasHits, snap.CasBadval, snap.CasMisses)
			}
		})
	}
}

// TestShardedCASContention: concurrent CompareAndSwap over one key must
// admit exactly one winner per generation — final value equals the
// total number of successful swaps.
func TestShardedCASContention(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			st := NewShardedStore(b, 4, 0)
			init := st.NewSession()
			if err := set(st, init, "ctr", []byte("0")); err != nil {
				t.Fatal(err)
			}
			init.Close()

			workers, attempts := 8, 200
			if testing.Short() {
				attempts = 50
			}
			wins := make([]int64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sess := st.NewSession()
					defer sess.Close()
					for i := 0; i < attempts; i++ {
						cur, err := get(st, sess, "ctr")
						if err != nil || cur == nil {
							t.Errorf("worker %d: get: %q %v", w, cur, err)
							return
						}
						var n int64
						fmt.Sscanf(string(cur), "%d", &n)
						next := []byte(fmt.Sprintf("%d", n+1))
						swapped, found, err := cas(st, sess, "ctr", cur, next)
						if err != nil || !found {
							t.Errorf("worker %d: cas: found=%v err=%v", w, found, err)
							return
						}
						if swapped {
							wins[w]++
						}
					}
				}(w)
			}
			wg.Wait()
			var total int64
			for _, n := range wins {
				total += n
			}
			sess := st.NewSession()
			defer sess.Close()
			final, _ := get(st, sess, "ctr")
			var got int64
			fmt.Sscanf(string(final), "%d", &got)
			if got != total {
				t.Errorf("final counter %d != %d successful swaps (lost or duplicated generations)", got, total)
			}
		})
	}
}

func TestShardedExpiry(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			clk := newManualClock()
			st := NewShardedStore(b, 4, 0)
			st.Clock = clk.Now
			sess := st.NewSession()
			defer sess.Close()

			deadline := clk.Now().Add(5 * time.Second)
			if _, err := setEx(st, sess, "k", []byte("v"), SetAlways, deadline); err != nil {
				t.Fatal(err)
			}
			if v, _ := get(st, sess, "k"); string(v) != "v" {
				t.Fatalf("before deadline: %q", v)
			}
			clk.Advance(5 * time.Second) // exactly at the deadline = dead
			if v, _ := get(st, sess, "k"); v != nil {
				t.Errorf("at deadline: still alive: %q", v)
			}
			snap := st.Snapshot()
			if snap.Expired != 1 {
				t.Errorf("Expired = %d, want 1", snap.Expired)
			}
			if snap.Keys != 0 {
				t.Errorf("Keys = %d after lazy expiry, want 0", snap.Keys)
			}

			// add resurrects an expired key; replace must not.
			if _, err := setEx(st, sess, "k", []byte("v"), SetAlways, clk.Now().Add(time.Second)); err != nil {
				t.Fatal(err)
			}
			clk.Advance(2 * time.Second)
			if stored, _ := setEx(st, sess, "k", []byte("r"), SetReplace, time.Time{}); stored {
				t.Error("replace revived an expired key")
			}
			if stored, _ := setEx(st, sess, "k", []byte("a"), SetAdd, time.Time{}); !stored {
				t.Error("add refused over an expired key")
			}

			// Touch moves the deadline; Del of a dead key is a miss.
			if _, err := setEx(st, sess, "t", []byte("v"), SetAlways, clk.Now().Add(time.Second)); err != nil {
				t.Fatal(err)
			}
			if ok, _ := touch(st, sess, "t", clk.Now().Add(10*time.Second)); !ok {
				t.Error("touch on live key missed")
			}
			clk.Advance(5 * time.Second)
			if v, _ := get(st, sess, "t"); string(v) != "v" {
				t.Errorf("touched key died early: %q", v)
			}
			clk.Advance(6 * time.Second)
			if existed, _ := del(st, sess, "t"); existed {
				t.Error("delete of expired key reported a hit")
			}
			if ok, _ := touch(st, sess, "t", time.Time{}); ok {
				t.Error("touch on dead key reported a hit")
			}
		})
	}
}

func TestShardedSweepReclaims(t *testing.T) {
	clk := newManualClock()
	b := NewMallocBackend()
	st := NewShardedStore(b, 4, 0)
	st.Clock = clk.Now
	sess := st.NewSession()
	defer sess.Close()

	const n = 200
	deadline := clk.Now().Add(time.Second)
	for i := 0; i < n; i++ {
		if _, err := setEx(st, sess, fmt.Sprintf("k%03d", i), bytes.Repeat([]byte("x"), 64), SetAlways, deadline); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := setEx(st, sess, "keeper", []byte("alive"), SetAlways, time.Time{}); err != nil {
		t.Fatal(err)
	}
	used := b.UsedBytes()
	clk.Advance(2 * time.Second)

	// No accesses: only the sweep may reclaim. The per-shard budget means
	// one round per 16 entries of the fullest shard, and not one more.
	reclaimed := 0
	for rounds := sweepRounds(st, 16); rounds > 0; rounds-- {
		reclaimed += st.SweepExpired(16)
	}
	if reclaimed != n {
		t.Fatalf("sweep reclaimed %d, want %d", reclaimed, n)
	}
	snap := st.Snapshot()
	if snap.Expired != n {
		t.Errorf("Expired = %d, want %d", snap.Expired, n)
	}
	if snap.ExpirySweeps == 0 {
		t.Error("ExpirySweeps = 0")
	}
	if snap.Keys != 1 {
		t.Errorf("Keys = %d, want 1 (the unexpiring keeper)", snap.Keys)
	}
	if b.UsedBytes() >= used {
		t.Errorf("sweep released no heap: used %d -> %d", used, b.UsedBytes())
	}
	if v, _ := get(st, sess, "keeper"); string(v) != "alive" {
		t.Errorf("keeper damaged by sweep: %q", v)
	}
}

// sweepRounds is how many SweepExpired(budget) calls examine every entry
// of st's fullest shard: ⌈entries / budget⌉.
func sweepRounds(st *ShardedStore, budget int) int {
	most := 0
	for _, sh := range st.shards {
		most = max(most, len(sh.index))
	}
	return (most + budget - 1) / budget
}

// TestSweepRepeatsAndCovers: the expiry sweep walks each shard's LRU
// list, so two runs of one workload reclaim the same number of entries
// sweep by sweep, and ⌈entries / budget⌉ sweeps of the fullest shard
// reclaim every dead entry while one fewer does not (the newest keys,
// at the head end, are dead). A crawl in map order fails both: its
// counts differ run to run and its coverage is a matter of luck.
func TestSweepRepeatsAndCovers(t *testing.T) {
	const keys, budget = 400, 16
	run := func() []int {
		clk := newManualClock()
		st := NewShardedStore(NewMallocBackend(), 4, 0)
		st.Clock = clk.Now
		sess := st.NewSession()
		defer sess.Close()
		live := 0
		for i := 0; i < keys; i++ {
			ttl := time.Hour
			if i%2 == 1 || i >= keys-50 {
				ttl = time.Second
			} else {
				live++
			}
			if _, err := setEx(st, sess, fmt.Sprintf("k%03d", i), []byte("v"), SetAlways, clk.Now().Add(ttl)); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(2 * time.Second)
		rounds := sweepRounds(st, budget)
		var counts []int
		for r := 1; r <= rounds; r++ {
			counts = append(counts, st.SweepExpired(budget))
			if r == rounds-1 && st.Len() == live {
				t.Errorf("%d sweeps reclaimed every dead entry; the fullest shard needs %d", r, rounds)
			}
		}
		if st.Len() != live {
			t.Errorf("%d sweeps (budget %d) left %d entries, want the %d live; per sweep %v", rounds, budget, st.Len(), live, counts)
		}
		return counts
	}
	if a, b := run(), run(); !slices.Equal(a, b) {
		t.Fatalf("two identical runs reclaimed %v and %v per sweep", a, b)
	}
}

// TestSweepCursorFollowsRemoval: unlinking the entry the sweep cursor
// rests on — a delete, or a store moving it to the head — hands the
// cursor to the next entry the walk would have reached, and a sweep that
// reaches the head wraps to the tail. Mutation: drop the hand-off in
// lruList.remove and the cursor rests on a recycled entry.
func TestSweepCursorFollowsRemoval(t *testing.T) {
	clk := newManualClock()
	st := NewShardedStore(NewMallocBackend(), 1, 0)
	st.Clock = clk.Now
	sess := st.NewSession()
	defer sess.Close()
	for i := 0; i < 8; i++ {
		if _, err := setEx(st, sess, fmt.Sprintf("k%d", i), []byte("v"), SetAlways, clk.Now().Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	cursor := func(step, want string) {
		t.Helper()
		got := "<tail>"
		if e := st.shards[0].lru.sweep; e != nil {
			got = e.key
		}
		if got != want {
			t.Fatalf("after %s the sweep cursor is on %s, want %s", step, got, want)
		}
	}
	st.SweepExpired(2)
	cursor("a sweep of k0 and k1", "k2")
	if _, err := del(st, sess, "k2"); err != nil {
		t.Fatal(err)
	}
	cursor("deleting k2", "k3")
	if err := set(st, sess, "k3", []byte("w")); err != nil {
		t.Fatal(err)
	}
	cursor("storing k3 again", "k4")
	st.SweepExpired(7) // k4 k5 k6 k7 k3, then k0 k1 after the wrap
	cursor("a sweep of all seven", "k4")
}

// TestDumpWalksLRU: Dump emits each shard's live entries from its LRU
// tail to its head — least recently stored first, shard by shard — and
// so identically on every run. The expected order is kept by the test:
// keys in store order, a re-stored key moving to the end, the one dead
// key left out.
func TestDumpWalksLRU(t *testing.T) {
	run := func() []string {
		clk := newManualClock()
		st := NewShardedStore(NewMallocBackend(), 4, 0)
		st.Clock = clk.Now
		sess := st.NewSession()
		defer sess.Close()
		var order []string
		store := func(key string, expireAt time.Time) {
			if _, err := setEx(st, sess, key, []byte("v-"+key), SetAlways, expireAt); err != nil {
				t.Fatal(err)
			}
			order = append(slices.DeleteFunc(order, func(k string) bool { return k == key }), key)
		}
		store("dead", clk.Now().Add(time.Second))
		for i := 0; i < 64; i++ {
			store(fmt.Sprintf("k%02d", i), time.Time{})
		}
		for i := 0; i < 64; i += 3 {
			store(fmt.Sprintf("k%02d", i), clk.Now().Add(time.Hour))
		}
		clk.Advance(2 * time.Second)

		var got, want []string
		if err := st.Dump(sess, func(key, value []byte, _, _ time.Time) error {
			if string(value) != "v-"+string(key) {
				t.Fatalf("dump %s = %q", key, value)
			}
			got = append(got, string(key))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, sh := range st.shards {
			for _, k := range order {
				if k != "dead" && st.shardForB([]byte(k)) == sh {
					want = append(want, k)
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("dump order:\n got %v\nwant %v", got, want)
		}
		return got
	}
	if a, b := run(), run(); !slices.Equal(a, b) {
		t.Fatalf("two dumps of one workload differ:\n%v\n%v", a, b)
	}
}

func TestStoreApplyAndExpiry(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			clk := newManualClock()
			s, sess := NewShardedStore(b, 1, 0), SingleThreadedSession(b)
			s.Clock = clk.Now

			// Apply RMW on a one-shard store driven from one session.
			if err := set(s, sess, "k", []byte("1")); err != nil {
				t.Fatal(err)
			}
			if err := apply(s, sess, "k", func(old []byte, found bool) ApplyOp {
				if !found {
					t.Error("apply missed a live key")
				}
				return ApplyOp{Verdict: ApplyStore, Value: append(old, '2')}
			}); err != nil {
				t.Fatal(err)
			}
			if v, _ := get(s, sess, "k"); string(v) != "12" {
				t.Errorf("after apply: %q", v)
			}
			if swapped, _, _ := cas(s, sess, "k", []byte("12"), []byte("3")); !swapped {
				t.Error("store cas did not swap")
			}

			// Expiry: lazy on get, eager via sweep (wired into Maintain).
			if _, err := setEx(s, sess, "dead", []byte("x"), SetAlways, clk.Now().Add(time.Second)); err != nil {
				t.Fatal(err)
			}
			clk.Advance(2 * time.Second)
			sess.Safepoint()
			s.Maintain(0)
			snap := s.Snapshot()
			if snap.Expired != 1 || snap.ExpirySweeps == 0 {
				t.Errorf("after Maintain: Expired=%d ExpirySweeps=%d", snap.Expired, snap.ExpirySweeps)
			}
			if v, _ := get(s, sess, "dead"); v != nil {
				t.Errorf("dead key still readable: %q", v)
			}
			// KeepExpire: RMW preserves the deadline.
			if _, err := setEx(s, sess, "ttl", []byte("5"), SetAlways, clk.Now().Add(10*time.Second)); err != nil {
				t.Fatal(err)
			}
			if err := apply(s, sess, "ttl", func(old []byte, found bool) ApplyOp {
				return ApplyOp{Verdict: ApplyStore, Value: []byte("6"), KeepExpire: true}
			}); err != nil {
				t.Fatal(err)
			}
			clk.Advance(11 * time.Second)
			if v, _ := get(s, sess, "ttl"); v != nil {
				t.Errorf("KeepExpire lost the deadline: %q survived", v)
			}
		})
	}
}
