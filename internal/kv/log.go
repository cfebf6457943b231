package kv

import "time"

// MutationLog receives every state-changing mutation the sharded store
// applies — the hook the persistence layer (internal/wal) hangs off.
// Calls are made with the owning shard's lock held, immediately after
// the mutation took effect, so the per-key record order on the log is
// exactly the apply order. Implementations must be fast, must not
// block, must not allocate (the hot-path 0 allocs/op invariant covers
// the hook call), and must not call back into the store. The key and
// value slices are only valid for the duration of the call.
//
// Lazy-expiry removals and ceiling evictions are deliberately NOT
// logged: expiry is deterministic from the absolute deadlines already
// on the log, and a resurrected evictee replays through the same
// ceiling-enforced insert path that evicted it.
type MutationLog interface {
	// LogSet records key=value stored with the given absolute expiry
	// deadline (zero = never) at storedAt. The value is the full stored
	// payload (for alaskad that includes the protocol header, so replay
	// restores flags and cas state byte-exactly).
	LogSet(key, value []byte, expireAt, storedAt time.Time)
	// LogDelete records an explicit, successful deletion of key.
	LogDelete(key []byte)
	// LogTouch records key's deadline moving to expireAt (zero = never).
	LogTouch(key []byte, expireAt time.Time)
	// LogFlushAll records the flush_all epoch moving to at — including
	// future-dated epochs from `flush_all <delay>`, so a scheduled flush
	// survives a restart.
	LogFlushAll(at time.Time)
}

// SetMutationLog attaches l to the store. Attach before serving traffic
// (after replay): the field is read without synchronization on the hot
// path.
func (s *ShardedStore) SetMutationLog(l MutationLog) { s.mlog = l }

// FlushEpoch returns the current flush_all epoch (zero time = none).
func (s *ShardedStore) FlushEpoch() time.Time {
	if fa := s.flushAt.Load(); fa != 0 {
		return time.Unix(0, fa)
	}
	return time.Time{}
}

// RestoreBytes is the replay entry point for a set record: it inserts
// key=value preserving the record's original storedAt (the flush_all
// epoch check compares against it) without logging the insert again and
// without touching the op counters. The ceiling is still enforced —
// replaying onto a smaller -max-memory just re-evicts.
func (s *ShardedStore) RestoreBytes(sess Session, key, value []byte, expireAt, storedAt time.Time) error {
	sh := s.shardForB(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// No lazy expiry on replay: whatever sits under key is overwritten.
	return s.insertLocked(sh, sess, key, sh.index[string(key)], value, expireAt, storedAt, s.now(), false)
}

// RestoreDeleteBytes is the replay entry point for a delete record:
// remove key if present (dead or alive), without logging or counting.
func (s *ShardedStore) RestoreDeleteBytes(key []byte) bool {
	sh := s.shardForB(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.index[string(key)]
	if !ok {
		return false
	}
	s.removeLocked(sh, e)
	return true
}

// RestoreTouchBytes is the replay entry point for a touch record: move
// key's deadline to expireAt if the entry exists, without logging or
// counting. Existence is the whole test: the record proves the entry was
// live then, and the deadline it replaces may have passed by the restart.
func (s *ShardedStore) RestoreTouchBytes(key []byte, expireAt time.Time) bool {
	sh := s.shardForB(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.index[string(key)]
	if ok {
		sh.setDeadline(e, expireAt)
	}
	return ok
}

// RestoreFlushEpoch is the replay entry point for a flush-epoch record.
func (s *ShardedStore) RestoreFlushEpoch(at time.Time) {
	if at.IsZero() {
		s.flushAt.Store(0)
		return
	}
	s.flushAt.Store(at.UnixNano())
}

// dumpMeta carries one entry's metadata from inside the shard lock to
// the emit call outside it.
type dumpMeta struct {
	key                string
	off, n             int
	expireAt, storedAt time.Time
}

// Dump streams every live entry through emit — the WAL compactor's
// source of truth when it rewrites the log to the live set. Per shard it
// copies the values into a reusable arena under the shard lock (the
// same item-reference discipline as getInto: a ref used outside the
// lock could be freed mid-read), then emits outside the lock and polls
// a safepoint, so a dump of a large shard never blocks a concurrent
// defrag barrier for long. The key/value slices passed to emit are only
// valid for the duration of the call. Entries dead at the start of the
// dump (expired, or killed by a reached flush epoch) are skipped.
//
// Each shard is emitted from its LRU tail to its head, so two dumps of
// one store state are identical, and replaying a dump inserts the
// coldest entry first: the replayed shard's LRU order is the dumped
// one's.
func (s *ShardedStore) Dump(sess Session, emit func(key, value []byte, expireAt, storedAt time.Time) error) error {
	now := s.now()
	var vals []byte
	var metas []dumpMeta
	for _, sh := range s.shards {
		vals, metas = vals[:0], metas[:0]
		sh.mu.Lock()
		for e := sh.lru.tail; e != nil; e = e.prev {
			if s.deadAt(e, now) {
				continue
			}
			off := len(vals)
			need := off + int(e.size)
			if cap(vals) < need {
				nv := make([]byte, need, 2*need)
				copy(nv, vals)
				vals = nv
			} else {
				vals = vals[:need]
			}
			if err := sess.Read(e.ref, 0, vals[off:need]); err != nil {
				sh.mu.Unlock()
				return err
			}
			metas = append(metas, dumpMeta{e.key, off, int(e.size), e.expireAt, e.storedAt})
		}
		sh.mu.Unlock()
		for i := range metas {
			m := &metas[i]
			if err := emit(unsafeKeyBytes(m.key), vals[m.off:m.off+m.n], m.expireAt, m.storedAt); err != nil {
				return err
			}
		}
		sess.Safepoint()
	}
	return nil
}
