package kv

// Tests of the read hit's gated LRU bump (shard.markRead): the rule itself,
// hit by hit; the list invariants under a mixed load; and what the rule
// costs in hit ratio against an exact LRU of the same shards and ceiling.

import (
	"container/list"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"
)

// lruState is a shard's list as the gate sees it: keys MRU first, and each
// entry's stamp.
func lruState(sh *shard) (keys []string, stamps []int64) {
	for e := sh.lru.head; e != nil; e = e.next {
		keys = append(keys, e.key)
		stamps = append(stamps, e.lastUsed)
	}
	return keys, stamps
}

// checkLRUInvariants: sorted by lastUsed, newest first, and the published
// tail stamp is the tail's. Caller is the only user of the store.
func checkLRUInvariants(t *testing.T, s *ShardedStore, when string) {
	t.Helper()
	for i, sh := range s.shards {
		_, stamps := lruState(sh)
		if !sort.SliceIsSorted(stamps, func(a, b int) bool { return stamps[a] > stamps[b] }) {
			t.Fatalf("%s: shard %d's LRU is not sorted by lastUsed: %v", when, i, stamps)
		}
		want := int64(math.MaxInt64)
		if n := len(stamps); n > 0 {
			want = stamps[n-1]
		}
		if got := sh.tailStamp.Load(); got != want {
			t.Fatalf("%s: shard %d tailStamp = %d, tail.lastUsed = %d", when, i, got, want)
		}
	}
}

// gatedHit reads key at the clock's now and holds the hit to the rule as
// the docs state it, recomputed here from the shard's state before the
// read: stamp and links untouched when 0 <= age and 8·age < span, an exact
// bump otherwise. It reports which it was. (Every clock step in this file
// is a whole microsecond, so span is a multiple of 8 ns and the product
// form here and the quotient form in markRead agree to the nanosecond.)
func gatedHit(t *testing.T, s *ShardedStore, sess Session, clock *manualClock, key string) (skipped bool) {
	t.Helper()
	sh := s.shardForB([]byte(key))
	e := sh.index[key]
	if e == nil {
		t.Fatalf("%s is not stored", key)
	}
	now := clock.Now().UnixNano()
	age, span := now-e.lastUsed, now-sh.lru.back().lastUsed
	wantSkip := age >= 0 && 8*age < span
	keysBefore, stampsBefore := lruState(sh)
	if _, hit, err := s.GetInto(sess, []byte(key), nil); err != nil || !hit {
		t.Fatalf("get %s = hit %v, %v", key, hit, err)
	}
	keys, stamps := lruState(sh)
	if wantSkip {
		if !slices.Equal(keys, keysBefore) || !slices.Equal(stamps, stampsBefore) {
			t.Fatalf("hit on %s at age %d of span %d moved the list:\n%v %v\n%v %v", key, age, span, keysBefore, stampsBefore, keys, stamps)
		}
	} else if keys[0] != key || stamps[0] != now {
		t.Fatalf("hit on %s at age %d of span %d did not bump: head %s stamped %d, now %d", key, age, span, keys[0], stamps[0], now)
	}
	if got, want := sh.tailStamp.Load(), stamps[len(stamps)-1]; got != want {
		t.Fatalf("after a hit on %s: tailStamp = %d, tail.lastUsed = %d", key, got, want)
	}
	if !e.fetched {
		t.Fatalf("hit on %s did not mark it fetched", key)
	}
	return wantSkip
}

// TestGatedBumpRule walks the rule's cases on one shard of ten keys stored
// a second apart, then holds the invariants through 10⁴ mixed operations.
// Run under -race in CI with the rest of the package. Mutation: make
// markRead return unconditionally and the tail case fails; make it never
// return early and the young case fails.
func TestGatedBumpRule(t *testing.T) {
	newStore := func(constant bool) (*ShardedStore, Session, *manualClock) {
		s := NewShardedStore(NewMallocBackend(), 1, 0)
		clock := newManualClock()
		s.Clock = clock.Now
		sess := s.NewSession()
		for i := 0; i < 10; i++ {
			if _, err := setEx(s, sess, "k"+strconv.Itoa(i), []byte("v"), SetAlways, time.Time{}); err != nil {
				t.Fatal(err)
			}
			if !constant {
				clock.Advance(time.Second)
			}
		}
		return s, sess, clock
	}

	t.Run("stepping clock", func(t *testing.T) {
		s, sess, clock := newStore(false)
		defer sess.Close()
		// now = t0+10s: k9 is 1 s old, the tail k0 is 10 s old, span/8 = 1.25 s.
		if !gatedHit(t, s, sess, clock, "k9") {
			t.Error("a hit on the MRU entry, 1 s old in a 10 s span, bumped")
		}
		if gatedHit(t, s, sess, clock, "k8") {
			t.Error("a hit 2 s old in a 10 s span (older than span/8) was skipped")
		}
		if gatedHit(t, s, sess, clock, "k0") {
			t.Error("a hit on the tail was skipped")
		}
		// k0 and k8 now carry this instant: age 0, span 9 s — skipped, and
		// again after a step short of the new span/8.
		if !gatedHit(t, s, sess, clock, "k8") {
			t.Error("a second hit in the same instant bumped")
		}
		clock.Advance(time.Second)
		if !gatedHit(t, s, sess, clock, "k0") {
			t.Error("a hit 1 s after its bump, in a 10 s span, bumped")
		}
		for i := 0; i < 40; i++ { // and wherever the walk goes, the rule holds
			clock.Advance(700 * time.Millisecond)
			gatedHit(t, s, sess, clock, "k"+strconv.Itoa(i*7%10))
		}
		checkLRUInvariants(t, s, "after the walk")
		// The clock steps back behind every stamp: age < 0 bumps exactly.
		clock.Advance(-time.Hour)
		if gatedHit(t, s, sess, clock, s.shards[0].lru.head.key) {
			t.Error("a hit under a clock that stepped backwards was skipped")
		}
	})

	t.Run("constant clock", func(t *testing.T) {
		s, sess, clock := newStore(true)
		defer sess.Close()
		for _, k := range []string{"k9", "k3", "k0", "k3"} { // span 0: exact LRU
			if gatedHit(t, s, sess, clock, k) && s.shards[0].lru.head.key != k {
				t.Errorf("a hit on %s under a constant clock left it off the head", k)
			}
		}
		if keys, _ := lruState(s.shards[0]); keys[0] != "k3" || keys[1] != "k0" || keys[2] != "k9" {
			t.Errorf("LRU after hits on k9 k3 k0 k3 under a constant clock: %v", keys)
		}
	})

	t.Run("mixed ops", func(t *testing.T) {
		s := NewShardedStore(NewMallocBackend(), 4, 64<<10)
		clock := newManualClock()
		s.Clock = clock.Now
		sess := s.NewSession()
		defer sess.Close()
		rng := rand.New(rand.NewSource(23))
		val := make([]byte, 1024)
		var buf []byte
		skips := 0
		for op := 0; op < 10000; op++ {
			clock.Advance(time.Duration(rng.Intn(2000)) * time.Microsecond)
			key := "key" + strconv.Itoa(rng.Intn(400))
			var err error
			switch k := rng.Intn(10); {
			case k < 5:
				if s.shardForB([]byte(key)).index[key] != nil {
					if gatedHit(t, s, sess, clock, key) {
						skips++
					}
				} else {
					_, _, err = s.GetInto(sess, []byte(key), buf)
				}
			case k < 8:
				_, err = setEx(s, sess, key, val[:100+rng.Intn(900)], SetAlways, time.Time{})
			case k == 8:
				buf, _, err = s.GetAndTouchInto(sess, []byte(key), clock.Now().Add(time.Hour), buf, clock.Now())
			default:
				_, err = del(s, sess, key)
			}
			if err != nil {
				t.Fatalf("op %d on %s: %v", op, key, err)
			}
			if op%50 == 0 {
				checkLRUInvariants(t, s, "op "+strconv.Itoa(op))
			}
		}
		checkLRUInvariants(t, s, "at the end")
		if ev := s.Snapshot().Evictions; ev == 0 || skips == 0 {
			t.Fatalf("%d evictions, %d skipped bumps: the mix missed a path", ev, skips)
		}
	})
}

// exactLRU is the policy the store had before the gate — every hit bumps —
// over the same shards, costs and ceiling: each shard an ordered list, an
// insert evicting its own shard's tail until the charged total fits, then
// the tail of whichever other shard's is stalest.
type exactLRU struct {
	ceiling, used uint64
	shards        []*list.List // front = MRU; values are *lruItem
	index         map[string]*list.Element
}

type lruItem struct {
	key      string
	shard    int
	cost     uint64
	lastUsed int64
}

func (m *exactLRU) get(key string, now int64) bool {
	el, ok := m.index[key]
	if ok {
		el.Value.(*lruItem).lastUsed = now
		m.shards[el.Value.(*lruItem).shard].MoveToFront(el)
	}
	return ok
}

func (m *exactLRU) evictTail(shard int) bool {
	el := m.shards[shard].Back()
	if el == nil {
		return false
	}
	it := m.shards[shard].Remove(el).(*lruItem)
	delete(m.index, it.key)
	m.used -= it.cost
	return true
}

func (m *exactLRU) insert(key string, shard int, cost uint64, now int64) {
	for m.used+cost > m.ceiling {
		if m.evictTail(shard) {
			continue
		}
		coldest, stamp := -1, int64(math.MaxInt64)
		for i, l := range m.shards {
			if el := l.Back(); i != shard && el != nil && el.Value.(*lruItem).lastUsed < stamp {
				coldest, stamp = i, el.Value.(*lruItem).lastUsed
			}
		}
		m.evictTail(coldest)
	}
	m.used += cost
	m.index[key] = m.shards[shard].PushFront(&lruItem{key, shard, cost, now})
}

// TestGatedBumpHitRatioMatchesExactLRU runs one seeded zipf(0.99)
// get/set-on-miss trace, its keys costing 4× the ceiling, through the
// store and through exactLRU, and holds the two hit ratios within 0.005 of
// each other: leaving the newest eighth of each shard's span unbumped
// costs eviction decisions next to nothing.
func TestGatedBumpHitRatioMatchesExactLRU(t *testing.T) {
	const nkeys, ops = 20000, 300000
	keys := make([][]byte, nkeys)
	vlen := make([]int, nkeys)
	var total uint64
	cdf := make([]float64, nkeys)
	var mass float64
	for i := range keys {
		keys[i] = []byte("key:" + strconv.Itoa(100000+i))
		vlen[i] = 128 + (i*37)%897 // 128–1024 B
		total += entryCost(len(keys[i]), vlen[i])
		mass += 1 / math.Pow(float64(i+1), 0.99)
		cdf[i] = mass
	}
	ceiling := total / 4
	s := NewShardedStore(NewMallocBackend(), 8, ceiling)
	clock := newManualClock()
	s.Clock = clock.Now
	sess := s.NewSession()
	defer sess.Close()
	shardOf := map[*shard]int{}
	model := &exactLRU{ceiling: ceiling, index: map[string]*list.Element{}}
	for i, sh := range s.shards {
		shardOf[sh] = i
		model.shards = append(model.shards, list.New())
	}

	rng := rand.New(rand.NewSource(99))
	val := make([]byte, 1024)
	var buf []byte
	hits, modelHits := 0, 0
	for op := 0; op < ops; op++ {
		clock.Advance(time.Duration(1+rng.Intn(50)) * time.Microsecond)
		k := sort.SearchFloat64s(cdf, rng.Float64()*mass)
		var hit bool
		var err error
		if buf, hit, err = s.GetInto(sess, keys[k], buf); err != nil {
			t.Fatal(err)
		}
		if hit {
			hits++
		} else if _, err := s.SetExBytes(sess, keys[k], val[:vlen[k]], SetAlways, time.Time{}); err != nil {
			t.Fatal(err)
		}
		now := clock.Now().UnixNano()
		if model.get(string(keys[k]), now) {
			modelHits++
		} else {
			model.insert(string(keys[k]), shardOf[s.shardForB(keys[k])], entryCost(len(keys[k]), vlen[k]), now)
		}
	}
	got, want := float64(hits)/ops, float64(modelHits)/ops
	t.Logf("hit ratio %.4f gated, %.4f exact LRU; %d evictions", got, want, s.Snapshot().Evictions)
	if math.Abs(got-want) > 0.005 {
		t.Errorf("hit ratio %.4f is more than 0.005 from exact LRU's %.4f", got, want)
	}
	if want < 0.5 || want > 0.99 || s.Snapshot().Evictions == 0 {
		t.Errorf("exact LRU hit ratio %.4f, %d evictions: the trace does not exercise eviction", want, s.Snapshot().Evictions)
	}
	checkLRUInvariants(t, s, "after the trace")
}
