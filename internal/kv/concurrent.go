package kv

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ShardedStore is the store every experiment and the alaskad server run
// on: a fixed set of mutex-protected shards, accessed by worker
// goroutines that each hold their own Session (and, under Alaska, their
// own runtime thread with pin sets and safepoints). The single-threaded
// experiments use one shard and SingleThreadedSession.
//
// The request path is allocation-free in steady state: keys arrive as
// []byte slices into network buffers (GetInto, SetExBytes, ApplyInto)
// and are interned to strings only when a brand-new entry is created;
// value copy-out lands in caller-owned scratch buffers; an overwrite of
// a live key reuses its entry and LRU node — and, when the value keeps
// its length, its handle and block (insertLocked); and the per-shard
// counters are atomics, so Snapshot never takes a shard lock.
type ShardedStore struct {
	backend Backend
	shards  []*shard
	// maxMemory is the store-wide charged-byte ceiling — memcached's -m,
	// global across shards (0 = unlimited). used is the charged total
	// (Σ value + key + EntryOverhead per live entry, plus in-flight
	// reservations); inserts reserve against it with a CAS before
	// linking, so `bytes` can never exceed `limit_maxbytes`, not even
	// transiently between concurrent inserts.
	maxMemory uint64
	used      atomic.Int64
	// Clock supplies the wall-clock time used for expiry decisions; nil
	// means time.Now. Swap in a fake before serving traffic to make TTL
	// behavior deterministic in tests.
	Clock func() time.Time

	sweeps atomic.Int64 // expiry sweep rounds run
	// flushAt is the flush_all epoch in Clock unixnanos (0 = none):
	// every entry stored strictly before it is dead once the clock
	// reaches it. An atomic so FlushAll is O(1) and lock-free while the
	// per-entry check rides the existing lazy-expiry paths.
	flushAt atomic.Int64

	// mlog, when non-nil, receives every state-changing mutation for
	// persistence (see MutationLog / SetMutationLog). Read without
	// synchronization on the hot path; set before serving traffic.
	mlog MutationLog
}

// shardCounters are the per-shard operation counters, all atomics:
// writers bump them while already holding the shard lock for the data,
// but readers (Snapshot, the stats command under load) never have to
// take that lock — hot-path counting never waits on a stats poll.
type shardCounters struct {
	sets                     atomic.Int64
	hits, misses             atomic.Int64 // gets = hits + misses (see addTo)
	deleteHits, deleteMisses atomic.Int64
	evictions, expired       atomic.Int64
	// reclaimed counts dead entries the eviction walk removed under
	// pressure; evictedUnfetched counts evictions of never-fetched
	// entries (see StatsSnapshot).
	reclaimed, evictedUnfetched atomic.Int64
	casHits                     atomic.Int64
	casBadval, casMisses        atomic.Int64
	incrHits, incrMisses        atomic.Int64
	decrHits, decrMisses        atomic.Int64
	touchHits, touchMisses      atomic.Int64
	keys                        atomic.Int64
}

// bump increments the counter named by stat.
func (c *shardCounters) bump(stat RMWStat) {
	switch stat {
	case StatCasHit:
		c.casHits.Add(1)
	case StatCasBadval:
		c.casBadval.Add(1)
	case StatCasMiss:
		c.casMisses.Add(1)
	case StatIncrHit:
		c.incrHits.Add(1)
	case StatIncrMiss:
		c.incrMisses.Add(1)
	case StatDecrHit:
		c.decrHits.Add(1)
	case StatDecrMiss:
		c.decrMisses.Add(1)
	case StatTouchHit:
		c.touchHits.Add(1)
	case StatTouchMiss:
		c.touchMisses.Add(1)
	}
}

// addTo folds the counters into a snapshot.
func (c *shardCounters) addTo(out *StatsSnapshot) {
	out.Sets += c.sets.Load()
	// Every get bumps exactly one of hits / misses, so the total needs no
	// counter of its own on the request path.
	hits, misses := c.hits.Load(), c.misses.Load()
	out.Gets += hits + misses
	out.Hits += hits
	out.Misses += misses
	out.DeleteHits += c.deleteHits.Load()
	out.DeleteMisses += c.deleteMisses.Load()
	out.Evictions += c.evictions.Load()
	out.Reclaimed += c.reclaimed.Load()
	out.EvictedUnfetched += c.evictedUnfetched.Load()
	out.Expired += c.expired.Load()
	out.CasHits += c.casHits.Load()
	out.CasBadval += c.casBadval.Load()
	out.CasMisses += c.casMisses.Load()
	out.IncrHits += c.incrHits.Load()
	out.IncrMisses += c.incrMisses.Load()
	out.DecrHits += c.decrHits.Load()
	out.DecrMisses += c.decrMisses.Load()
	out.TouchHits += c.touchHits.Load()
	out.TouchMisses += c.touchMisses.Load()
	out.Keys += int(c.keys.Load())
}

type shard struct {
	mu    sync.Mutex
	index map[string]*entry
	lru   lruList
	free  entryFreeList
	// used is the shard's charged byte total (Σ entry cost).
	used uint64
	// ttl counts live entries carrying a deadline, so the sweep can skip
	// the shard outright for TTL-free workloads.
	ttl   int
	stats shardCounters
	// flushedFor is the flush_all epoch this shard has been fully swept
	// for, so each flush costs exactly one full scan per shard.
	flushedFor int64
	// tailStamp is the lastUsed unixnano of the LRU tail (MaxInt64 when
	// the shard is empty), republished under sh.mu whenever the tail
	// changes. Other shards read it lock-free to pick the globally
	// coldest victim when their own LRU runs dry under the global
	// ceiling.
	tailStamp atomic.Int64
}

// noteTail republishes the LRU tail's recency stamp. Caller holds sh.mu
// and must invoke it after any mutation that can change the tail or the
// tail's lastUsed, keeping the invariant evictColdest reads through:
// outside sh.mu, tailStamp == lru.back().lastUsed (MaxInt64 when empty).
func (sh *shard) noteTail() {
	if tail := sh.lru.back(); tail != nil {
		sh.tailStamp.Store(tail.lastUsed)
	} else {
		sh.tailStamp.Store(math.MaxInt64)
	}
}

// markUsed stamps e used at now and makes it the MRU entry. The tail stamp is
// republished only when e was the tail: otherwise neither the tail nor its
// lastUsed changed, the invariant above already holds, and a hit skips
// both the store and the load of the (cold) tail entry. Caller holds
// sh.mu.
func (sh *shard) markUsed(e *entry, now time.Time) {
	e.lastUsed = now.UnixNano()
	wasTail := sh.lru.back() == e
	sh.lru.moveToFront(e)
	if wasTail {
		sh.noteTail()
	}
}

// markRead is a read hit's markUsed, skipped while the bump could not
// matter: e was used within the newest eighth of the time the shard's LRU
// spans (age < span/8; the quotient cannot overflow), so its recorded
// recency lags the truth by under an eighth of one turnover and the hit
// stores to no other entry's cache line. The tail (age = span), the older
// seven eighths, and a clock that stood still (span = 0) or stepped back
// (age < 0) bump exactly; the list stays sorted by lastUsed. Caller holds
// sh.mu.
func (sh *shard) markRead(e *entry, now time.Time) {
	t := now.UnixNano()
	if age := t - e.lastUsed; age >= 0 && age < (t-sh.tailStamp.Load())/8 {
		return
	}
	sh.markUsed(e, now)
}

// setDeadline rewrites e's deadline, keeping the shard's ttl-entry count
// exact. Caller holds sh.mu.
func (sh *shard) setDeadline(e *entry, expireAt time.Time) {
	if e.expireAt.IsZero() != expireAt.IsZero() {
		if expireAt.IsZero() {
			sh.ttl--
		} else {
			sh.ttl++
		}
	}
	e.expireAt = expireAt
}

// SetMode selects the conditional-store semantics of SetExBytesAt,
// mirroring the memcached storage commands.
type SetMode int

const (
	// SetAlways stores unconditionally (memcached `set`).
	SetAlways SetMode = iota
	// SetAdd stores only if the key is absent (memcached `add`).
	SetAdd
	// SetReplace stores only if the key is present (memcached `replace`).
	SetReplace
)

// NewShardedStore builds a store with n shards under one store-wide
// memory ceiling of maxMemory charged bytes (0 = unlimited) — memcached
// -m semantics, not a per-shard split, so a cap below the shard count
// still limits and zipfian traffic cannot evict hot shards while cold
// shards idle under budget.
func NewShardedStore(b Backend, n int, maxMemory uint64) *ShardedStore {
	st := &ShardedStore{backend: b, maxMemory: maxMemory}
	for i := 0; i < n; i++ {
		sh := &shard{index: make(map[string]*entry)}
		sh.tailStamp.Store(math.MaxInt64)
		st.shards = append(st.shards, sh)
	}
	if ad, ok := b.(*ActiveDefragBackend); ok {
		ad.Iterator = st.iterateRefs
	}
	return st
}

// iterateRefs is the application half of the activedefrag protocol: it
// walks every live entry and lets the allocator relocate it, rewriting
// the store's own reference — the (mercifully small) Go equivalent of
// the invasive pointer bookkeeping Redis had to add. Each shard is
// visited with its lock held: a request on that shard would otherwise
// read or free a ref the allocator is in the middle of replacing. It walks
// the LRU list, which holds the index's entries in an order the workload
// decides, not the map's randomised one, so a run repeats exactly.
func (s *ShardedStore) iterateRefs(visit func(ref Ref, size uint64, update func(Ref))) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for e := sh.lru.head; e != nil; e = e.next {
			visit(e.ref, e.size, func(n Ref) { e.ref = n })
		}
		sh.mu.Unlock()
	}
}

// Backend returns the underlying backend.
func (s *ShardedStore) Backend() Backend { return s.backend }

// NewSession opens a worker session.
func (s *ShardedStore) NewSession() Session { return s.backend.NewSession() }

// now reads the store's clock. The request path never calls it under a
// shard lock: every …At entry point (and the methods that take now
// outright) is handed the command's one reading by its caller. What is
// left are GetInto and SetExBytes, which read it once before
// dispatching, and the maintenance paths (SweepExpired, ItemsSnapshot,
// Dump, replay), which read it once per call and judge every entry they
// walk at that one instant: on a simulated clock, a sweep or a dump is
// as repeatable as the LRU order it walks.
func (s *ShardedStore) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Now()
}

// FNV-1a, inlined: hashing a key must not construct a hash.Hash32 or
// convert the key to a fresh []byte — on the request path every get and
// set passes through here.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func (s *ShardedStore) shardForB(key []byte) *shard {
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return s.shards[h%uint32(len(s.shards))]
}

// removeLocked frees e's storage, refunds its charged bytes (shard and
// store-wide), and unlinks it; the struct goes to the shard's free list
// for reuse. Caller holds sh.mu.
func (s *ShardedStore) removeLocked(sh *shard, e *entry) {
	cost := e.cost()
	sh.used -= cost
	s.used.Add(-int64(cost))
	_ = s.backend.Free(e.ref, e.size)
	sh.lru.remove(e)
	delete(sh.index, e.key)
	sh.stats.keys.Add(-1)
	if !e.expireAt.IsZero() {
		sh.ttl--
	}
	sh.free.put(e)
	sh.noteTail()
}

// deadAt reports whether e is dead at now: past its own deadline, or
// stored before a flush_all epoch the clock has reached.
func (s *ShardedStore) deadAt(e *entry, now time.Time) bool {
	if e.expiredAt(now) {
		return true
	}
	fa := s.flushAt.Load()
	return fa != 0 && now.UnixNano() >= fa && e.storedAt.UnixNano() < fa
}

// FlushAll marks every entry stored before at as expired once the clock
// reaches at — memcached's flush_all [delay]: a store-wide epoch honored
// by the same lazy-expiry paths as per-entry TTLs, plus one full
// reclamation sweep per shard by Maintain after the epoch passes.
// Entries stored after the epoch (even while it is still pending) are
// untouched. O(1) no matter how many items are live.
func (s *ShardedStore) FlushAll(at time.Time) {
	s.flushAt.Store(at.UnixNano())
	if s.mlog != nil {
		s.mlog.LogFlushAll(at)
	}
}

// liveLocked applies lazy expiry to a looked-up entry: a dead one is
// reclaimed on the spot (counted in Expired) and reported absent —
// memcached's expire-on-access. Caller holds sh.mu.
func (s *ShardedStore) liveLocked(sh *shard, e *entry, ok bool, now time.Time) (*entry, bool) {
	if !ok {
		return nil, false
	}
	if s.deadAt(e, now) {
		s.removeLocked(sh, e)
		sh.stats.expired.Add(1)
		return nil, false
	}
	return e, true
}

// lookupLockedB returns key's entry after lazy expiry; the map access
// compiles to a no-copy lookup. Caller holds sh.mu.
func (s *ShardedStore) lookupLockedB(sh *shard, key []byte, now time.Time) (*entry, bool) {
	e, ok := sh.index[string(key)]
	return s.liveLocked(sh, e, ok, now)
}

// insertLocked stores key's new value. old is the entry the caller's
// lookup just found under key (nil if none), so an overwrite does not
// hash the key a second time. What a store reuses depends on what it
// replaces:
//
//   - old holds a value of the same length: entry, handle and block are
//     all kept. The new bytes go through sess.Write(old.ref) — the pinned
//     write a fresh block gets, so a mover sees nothing it does not see
//     today — and the entry is restamped. No Alloc, no Free, no
//     reservation (the charged cost is unchanged), no Go allocation.
//   - old holds a value of another length: the entry struct, its LRU
//     links and its interned key are kept; the value gets a new handle
//     and block and the old ones are freed after the write. A value that
//     would fit in the old block still moves: parking small values in
//     large blocks is RSS the allocator can no longer see.
//   - no old: a new handle and block, and an entry struct off the
//     shard's free list when eviction left one; only this case interns
//     the key string.
//
// A failed store leaves the previous value intact on every path. On the
// allocating paths the replaced block is freed only after the new one is
// written, and under a ceiling the budget delta reserved up front
// (makeRoomLocked, one CAS, so the charged total never exceeds the
// ceiling even transiently) is refunded. On the in-place path the only
// fallible step is the write itself, and it fails before it copies:
// handleSession.Write errors in Pin or in mem.Space's bounds check, the
// raw sessions in that same check, all ahead of the first byte. Caller
// holds sh.mu.
//
// now is the command's one reading: it stamps lastUsed and judges the
// eviction scan's victims, the same instant the caller's existence check
// used. storedAt is the store timestamp recorded on the entry: zero
// means now (every live path); WAL replay passes the record's original
// timestamp so the flush_all-epoch check stays correct across a
// restart. record=false suppresses the mutation-log hook — replay must
// not re-log the records it is applying.
func (s *ShardedStore) insertLocked(sh *shard, sess Session, key []byte, old *entry, value []byte, expireAt, storedAt, now time.Time, record bool) error {
	at := storedAt
	if at.IsZero() {
		at = now
	}
	e := old
	if e != nil && e.size == uint64(len(value)) {
		if err := sess.Write(e.ref, 0, value); err != nil {
			return err
		}
	} else {
		var err error
		if e, err = s.allocLocked(sh, sess, key, e, value, now); err != nil {
			return err
		}
	}
	e.storedAt = at
	e.fetched = false
	sh.setDeadline(e, expireAt)
	sh.markUsed(e, now)
	if record && s.mlog != nil {
		s.mlog.LogSet(key, value, expireAt, at)
	}
	return nil
}

// allocLocked is insertLocked's allocating half: it reserves the budget
// delta, writes value into a new block, settles the charged totals and
// returns key's entry pointing at that block — old with its previous
// block freed, or a new entry linked at the LRU head with no deadline.
// Caller holds sh.mu.
func (s *ShardedStore) allocLocked(sh *shard, sess Session, key []byte, old *entry, value []byte, now time.Time) (*entry, error) {
	newCost := entryCost(len(key), len(value))
	var reserved uint64
	if s.maxMemory > 0 {
		if newCost > s.maxMemory {
			// Can never fit: reject with the LRU untouched rather than
			// evicting the whole store and storing over the cap anyway.
			return nil, fmt.Errorf("kv: sharded store %q: %w", string(key), ErrTooLarge)
		}
		var err error
		if reserved, old, err = s.makeRoomLocked(sh, key, old, newCost, now); err != nil {
			return nil, fmt.Errorf("kv: sharded store %q: %w", string(key), err)
		}
	}
	size := uint64(len(value))
	ref, err := s.backend.Alloc(size)
	if err != nil {
		s.used.Add(-int64(reserved))
		return nil, fmt.Errorf("kv: sharded store %q: %w", string(key), err)
	}
	if err := sess.Write(ref, 0, value); err != nil {
		_ = s.backend.Free(ref, size)
		s.used.Add(-int64(reserved))
		return nil, err
	}
	e, oldCost := old, uint64(0)
	if e != nil {
		oldCost = e.cost()
		_ = s.backend.Free(e.ref, e.size)
	} else {
		if e = sh.free.get(); e == nil {
			e = &entry{}
		}
		e.key = string(key)
		sh.lru.pushFront(e)
		sh.index[e.key] = e
		sh.stats.keys.Add(1)
	}
	e.ref, e.size = ref, size
	sh.used += newCost - oldCost
	// Settle the global counter: the net change is newCost-oldCost, of
	// which `reserved` was already added by makeRoomLocked.
	s.used.Add(int64(newCost) - int64(oldCost) - int64(reserved))
	return e, nil
}

// tryReserve CASes n bytes out of the global budget, failing when the
// ceiling would be exceeded.
func (s *ShardedStore) tryReserve(n uint64) bool {
	for {
		u := s.used.Load()
		if uint64(u)+n > s.maxMemory {
			return false
		}
		if s.used.CompareAndSwap(u, u+int64(n)) {
			return true
		}
	}
}

// spillRounds bounds how many consecutive no-progress rounds
// makeRoomLocked tolerates before giving up with ErrNoRoom. Rounds that
// evict something reset the count, so this only limits pathological
// spinning when every other shard is empty or lock-contended while
// concurrent reservations hold the budget.
const spillRounds = 64

// makeRoomLocked reserves the global-budget delta a newCost-byte insert
// of key needs, evicting until the reservation succeeds: the inserting
// shard's own LRU first, then — when it runs dry — the globally coldest
// other shards (best-effort, via their lock-free tail stamps and
// TryLock, so two inserting shards can never deadlock on each other).
// The replaced entry old (nil if key is new) has its cost discounted but
// is itself left in place for insertLocked to settle after a durable
// write — unless an eviction from sh took it, which is why key is looked
// up again after one and why the entry to replace is returned beside the
// bytes reserved. Caller holds sh.mu.
func (s *ShardedStore) makeRoomLocked(sh *shard, key []byte, old *entry, newCost uint64, now time.Time) (uint64, *entry, error) {
	stuck := 0
	for {
		credit := uint64(0)
		if old != nil {
			// Only this lock-holder can evict from sh, so the credit
			// cannot be invalidated between here and the reservation.
			credit = old.cost()
		}
		if newCost <= credit {
			return 0, old, nil
		}
		need := newCost - credit
		if s.tryReserve(need) {
			return need, old, nil
		}
		if s.evictOneLocked(sh, now) {
			old = sh.index[string(key)] // the victim may have been old itself
			stuck = 0
		} else if s.evictColdest(sh, now) {
			stuck = 0
		} else if stuck++; stuck >= spillRounds {
			return 0, old, ErrNoRoom
		}
	}
}

// evictOneLocked removes sh's LRU tail, classifying the removal: a dead
// victim (expired / flushed) is a reclaim, a live one an eviction (and
// evicted_unfetched if never read). Caller holds sh.mu. Returns false
// when the shard is empty.
func (s *ShardedStore) evictOneLocked(sh *shard, now time.Time) bool {
	victim := sh.lru.back()
	if victim == nil {
		return false
	}
	if s.deadAt(victim, now) {
		sh.stats.reclaimed.Add(1)
	} else {
		sh.stats.evictions.Add(1)
		if !victim.fetched {
			sh.stats.evictedUnfetched.Add(1)
		}
	}
	s.removeLocked(sh, victim)
	return true
}

// evictColdest evicts one entry from the globally coldest shard other
// than me (the shard whose LRU tail is stalest, per the lock-free tail
// stamps). Victim shards are TryLocked — me's lock is already held, and
// blocking here could deadlock two spilling inserters — so under
// contention the next-best shard is taken instead. Returns whether
// anything was evicted.
func (s *ShardedStore) evictColdest(me *shard, now time.Time) bool {
	var coldest *shard
	coldestTS := int64(math.MaxInt64)
	for _, cand := range s.shards {
		if cand == me {
			continue
		}
		if ts := cand.tailStamp.Load(); ts < coldestTS {
			coldestTS, coldest = ts, cand
		}
	}
	if coldest != nil && coldest.mu.TryLock() {
		ok := s.evictOneLocked(coldest, now)
		coldest.mu.Unlock()
		if ok {
			return true
		}
	}
	// Coldest shard contended or raced empty: take any other shard we
	// can get rather than stalling the insert.
	for _, cand := range s.shards {
		if cand == me || cand == coldest || !cand.mu.TryLock() {
			continue
		}
		ok := s.evictOneLocked(cand, now)
		cand.mu.Unlock()
		if ok {
			return true
		}
	}
	return false
}

// SetExBytes is SetExBytesAt at one reading of the store's Clock. It is
// kept only because the frozen bench/ harness calls it; nothing else
// should (ROADMAP item 1(g) retires it).
func (s *ShardedStore) SetExBytes(sess Session, key, value []byte, mode SetMode, expireAt time.Time) (bool, error) {
	return s.setEx(sess, s.shardForB(key), key, value, mode, expireAt, s.now())
}

// SetExBytesAt stores key=value under the given conditional mode with an
// absolute expiry deadline (zero = never expires), reporting whether the
// value was stored. now is the caller's reading of the clock: it decides
// whether the key already exists, stamps storedAt and lastUsed, and
// judges the eviction scan — one instant for the whole command.
//
// The existence check and the store are one critical section, so
// concurrent add/replace races resolve like memcached's: exactly one
// concurrent `add` of a key wins. An entry past its deadline counts as
// absent — `add` succeeds over a dead value, `replace` does not revive
// one. The key is interned to a string only if a brand-new entry is
// created, and the caller may reuse both key and value the moment the
// call returns (the store copies the value into its heap under the lock).
func (s *ShardedStore) SetExBytesAt(sess Session, key, value []byte, mode SetMode, expireAt, now time.Time) (bool, error) {
	return s.setEx(sess, s.shardForB(key), key, value, mode, expireAt, now)
}

func (s *ShardedStore) setEx(sess Session, sh *shard, key, value []byte, mode SetMode, expireAt, now time.Time) (bool, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats.sets.Add(1)
	old, exists := s.lookupLockedB(sh, key, now)
	switch mode {
	case SetAdd:
		if exists {
			return false, nil
		}
	case SetReplace:
		if !exists {
			return false, nil
		}
	}
	if err := s.insertLocked(sh, sess, key, old, value, expireAt, time.Time{}, now, true); err != nil {
		return false, err
	}
	return true, nil
}

// ApplyInto runs a read-modify-write on key as one critical section at
// the caller's reading of the clock: fn sees the current value (old ==
// nil, found == false when the key is absent or dead at now) and decides
// the outcome — store a new value, touch the deadline, delete, or do
// nothing. The shard lock is held from the read through the write-back,
// so a concurrent set/delete/defrag pass can never interleave: this is
// the primitive behind cas, incr/decr, and append/prepend, and the access
// pattern most exposed to a concurrent mover. fn must be fast and must
// not call back into the store.
//
// The old value is copied out into the caller's scratch buffer, valid
// only for the duration of fn. ApplyInto returns the (possibly grown)
// scratch for the caller to keep for the next call; fn's ApplyOp.Value
// may alias that scratch. A nil scratch is fine — the first call sizes
// it.
func (s *ShardedStore) ApplyInto(sess Session, key []byte, scratch []byte, now time.Time, fn func(old []byte, found bool) ApplyOp) ([]byte, error) {
	return s.apply(sess, s.shardForB(key), key, true, scratch, now, fn)
}

// apply is the shared RMW core; needValue false skips the copy-out
// (Touch's callback never looks at the bytes — a touch of a large value
// must not copy it under the shard lock). now judges the lookup and
// stamps whatever the verdict writes.
func (s *ShardedStore) apply(sess Session, sh *shard, key []byte, needValue bool, scratch []byte, now time.Time, fn func(old []byte, found bool) ApplyOp) ([]byte, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, found := s.lookupLockedB(sh, key, now)
	var old []byte
	if found && needValue {
		scratch = growBytes(scratch, int(e.size))
		old = scratch[:e.size]
		if err := sess.Read(e.ref, 0, old); err != nil {
			return scratch, err
		}
		e.fetched = true // an RMW read counts as a fetch, like memcached's
	}
	op := fn(old, found)
	// The counter is bumped only once the verdict has actually taken
	// effect: a hit whose write-back fails must not inflate cas_hits
	// past the number of successful replies.
	switch op.Verdict {
	case ApplyNone:
	case ApplyDelete:
		if found {
			s.removeLocked(sh, e)
			if s.mlog != nil {
				s.mlog.LogDelete(key)
			}
		}
	case ApplyTouch:
		if found {
			sh.setDeadline(e, op.Expire)
			sh.markUsed(e, now)
			if s.mlog != nil {
				s.mlog.LogTouch(key, op.Expire)
			}
		}
	case ApplyStore:
		expire := op.Expire
		if op.KeepExpire && found {
			expire = e.expireAt
		}
		if err := s.insertLocked(sh, sess, key, e, op.Value, expire, time.Time{}, now, true); err != nil {
			return scratch, err
		}
	default:
		return scratch, fmt.Errorf("kv: apply %q: bad verdict %d", string(key), op.Verdict)
	}
	sh.stats.bump(op.Stat)
	return scratch, nil
}

// TouchBytes replaces key's expiry deadline (zero = never expires) at
// the caller's reading of the clock, reporting whether the key was
// present and alive. It runs over apply, so the touch semantics live in
// exactly one place.
func (s *ShardedStore) TouchBytes(sess Session, key []byte, expireAt, now time.Time) (found bool, err error) {
	_, err = s.apply(sess, s.shardForB(key), key, false, nil, now, touchApply(expireAt, &found))
	return found, err
}

// GetInto is GetIntoAt at one reading of the store's Clock. It is kept
// only because the frozen bench/ harness calls it; nothing else should
// (ROADMAP item 1(g) retires it).
func (s *ShardedStore) GetInto(sess Session, key []byte, buf []byte) ([]byte, bool, error) {
	return s.getInto(sess, s.shardForB(key), key, false, time.Time{}, buf, s.now())
}

// GetIntoAt reads key's value into the caller's scratch buffer, growing
// it only when the value doesn't fit: the copy-out from the shard-lock
// critical section lands directly in a buffer the caller reuses across
// requests, so a cache hit allocates nothing. It returns the value
// (aliasing buf's storage), whether the key was present, and any read
// error; the value is only valid until the caller's next use of buf. now
// is the caller's reading of the clock: it decides whether the entry is
// still alive and stamps its recency. The server passes each command's
// one reading, so a GET reads no clock under the shard lock.
func (s *ShardedStore) GetIntoAt(sess Session, key []byte, buf []byte, now time.Time) ([]byte, bool, error) {
	return s.getInto(sess, s.shardForB(key), key, false, time.Time{}, buf, now)
}

// GetAndTouchInto is GetIntoAt plus a deadline update on a hit, as one
// critical section (memcached `gat`/`gats`). It bumps both the get and
// the touch counters, like memcached.
func (s *ShardedStore) GetAndTouchInto(sess Session, key []byte, expireAt time.Time, buf []byte, now time.Time) ([]byte, bool, error) {
	return s.getInto(sess, s.shardForB(key), key, true, expireAt, buf, now)
}

// getInto is the copy-out core shared by every retrieval path.
//
// The copy-out happens under the shard lock: with `delete` (and same-key
// `set`, which frees the old value) arriving from untrusted network
// clients, a reference held outside the lock could be freed — and its
// block recycled to another key — mid-read, silently returning another
// object's bytes. Holding the lock for the copy is the memcached
// item-reference discipline reduced to its simplest correct form. Under
// Alaska a concurrent relocation pass may still move the object mid-copy;
// the copy reads on from the old block, which the grace period keeps
// intact until the session's next safepoint (handleSession.Read).
func (s *ShardedStore) getInto(sess Session, sh *shard, key []byte, touch bool, expireAt time.Time, buf []byte, now time.Time) ([]byte, bool, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := s.lookupLockedB(sh, key, now)
	if !ok {
		sh.stats.misses.Add(1)
		if touch {
			sh.stats.touchMisses.Add(1)
		}
		return buf, false, nil
	}
	sh.stats.hits.Add(1)
	e.fetched = true
	sh.markRead(e, now)
	buf = growBytes(buf, int(e.size))
	out := buf[:e.size]
	if err := sess.Read(e.ref, 0, out); err != nil {
		return buf, false, err
	}
	// The deadline moves only after the read succeeded: a failed gat
	// must not extend — or, with a negative exptime, destroy — a value
	// the client never received.
	if touch {
		sh.stats.touchHits.Add(1)
		sh.setDeadline(e, expireAt)
		if s.mlog != nil {
			s.mlog.LogTouch(key, expireAt)
		}
	}
	return out, true, nil
}

// DelBytes removes key at the caller's reading of the clock, reporting
// whether it existed. A dead (expired) entry is reclaimed but reported as
// a miss, like memcached's delete of an expired item.
func (s *ShardedStore) DelBytes(sess Session, key []byte, now time.Time) (bool, error) {
	return s.del(s.shardForB(key), key, now)
}

func (s *ShardedStore) del(sh *shard, key []byte, now time.Time) (bool, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := s.lookupLockedB(sh, key, now)
	if !ok {
		sh.stats.deleteMisses.Add(1)
		return false, nil
	}
	sh.stats.deleteHits.Add(1)
	s.removeLocked(sh, e)
	if s.mlog != nil {
		s.mlog.LogDelete(key)
	}
	return true, nil
}

// SweepExpired examines up to budget entries per shard at the store's
// clock and reclaims the dead ones, returning the number reclaimed. Each
// shard's sweep resumes where the last one stopped, walking its LRU list
// from tail to head and wrapping at the head, so ⌈entries / budget⌉
// calls examine every entry and two runs of one workload reclaim the
// same entries. Dead items release heap even if never accessed again —
// which matters here more than in stock memcached, because unreclaimed
// bytes hold their sub-heaps hostage against the defrag controller's
// truncation.
func (s *ShardedStore) SweepExpired(budget int) int {
	now := s.now()
	fa := s.flushAt.Load()
	flushDue := fa != 0 && now.UnixNano() >= fa
	reclaimed := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		switch {
		case flushDue && sh.flushedFor < fa:
			// A flush_all epoch has passed that this shard hasn't been
			// swept for: one full walk reclaims everything the epoch
			// killed (a flush is a rare admin event; one O(shard) walk is
			// the whole cost), then the shard drops back to the
			// budget-bounded walk.
			reclaimed += s.sweepLocked(sh, len(sh.index), now)
			sh.flushedFor = fa
		case sh.ttl > 0:
			// TTL-free shards are skipped outright, so workloads that never
			// set an exptime pay nothing for the sweep.
			reclaimed += s.sweepLocked(sh, budget, now)
		}
		sh.mu.Unlock()
	}
	s.sweeps.Add(1)
	return reclaimed
}

// sweepLocked examines the next min(budget, entries) entries at sh's
// sweep cursor, reclaiming the dead ones; no entry is examined twice in
// one call. Caller holds sh.mu.
func (s *ShardedStore) sweepLocked(sh *shard, budget int, now time.Time) int {
	reclaimed := 0
	for n := min(budget, len(sh.index)); n > 0; n-- {
		e := sh.lru.sweep
		if e == nil {
			e = sh.lru.tail
		}
		sh.lru.sweep = e.prev
		if s.deadAt(e, now) {
			s.removeLocked(sh, e)
			sh.stats.expired.Add(1)
			reclaimed++
		}
	}
	return reclaimed
}

// Maintain advances the backend's background machinery to simulated time
// now and runs one expiry-sweep increment, returning pause time incurred.
func (s *ShardedStore) Maintain(now time.Duration) time.Duration {
	pause := s.backend.Maintain(now)
	s.SweepExpired(sweepBudgetPerShard)
	return pause
}

// Len returns the total number of keys.
func (s *ShardedStore) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += int(sh.stats.keys.Load())
	}
	return n
}

// Bytes returns the charged byte total, Snapshot's Bytes, in one atomic load.
func (s *ShardedStore) Bytes() uint64 { return uint64(s.used.Load()) }

// Snapshot aggregates the per-shard counters with the backend's memory
// metrics. The counters are atomics, so the aggregation takes no shard
// lock and never stalls the request path; the result is a relaxed cut —
// the same guarantee memcached's `stats` gives.
func (s *ShardedStore) Snapshot() StatsSnapshot {
	var out StatsSnapshot
	for _, sh := range s.shards {
		sh.stats.addTo(&out)
	}
	out.ExpirySweeps = s.sweeps.Load()
	out.Bytes = s.Bytes()
	out.LimitMaxbytes = s.maxMemory
	out.Used = s.backend.UsedBytes()
	out.RSS = s.backend.RSS()
	return out
}

// ItemsStats is one shard's row set for the `stats items`-style
// per-state accounting: live-item counts and bytes alongside the
// pressure counters, plus the age of the LRU tail.
type ItemsStats struct {
	// Number is the live-entry count; Bytes their charged total.
	Number int
	Bytes  uint64
	// AgeSeconds is how long the LRU tail has gone untouched (0 when
	// the shard is empty).
	AgeSeconds float64
	// NumberWithTTL counts live entries carrying a deadline;
	// NumberFetched counts live entries read at least once since stored.
	NumberWithTTL int
	NumberFetched int
	// Pressure and expiry counters, per shard (see StatsSnapshot).
	Evictions        int64
	Reclaimed        int64
	EvictedUnfetched int64
	Expired          int64
}

// ItemsSnapshot returns per-shard item accounting — the payload of the
// server's `stats items`. Each shard is locked briefly to read a
// consistent row; the live-entry walk for the fetched count is bounded
// by the shard's size (stats items is an admin command, not a hot
// path).
func (s *ShardedStore) ItemsSnapshot() []ItemsStats {
	now := s.now()
	out := make([]ItemsStats, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		row := ItemsStats{
			Number:           len(sh.index),
			Bytes:            sh.used,
			NumberWithTTL:    sh.ttl,
			Evictions:        sh.stats.evictions.Load(),
			Reclaimed:        sh.stats.reclaimed.Load(),
			EvictedUnfetched: sh.stats.evictedUnfetched.Load(),
			Expired:          sh.stats.expired.Load(),
		}
		if tail := sh.lru.back(); tail != nil {
			row.AgeSeconds = now.Sub(time.Unix(0, tail.lastUsed)).Seconds()
		}
		for _, e := range sh.index {
			if e.fetched {
				row.NumberFetched++
			}
		}
		sh.mu.Unlock()
		out[i] = row
	}
	return out
}
