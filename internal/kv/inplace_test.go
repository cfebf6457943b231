package kv

// Tests for the in-place overwrite: a store whose value has the length of
// the one it replaces keeps its entry, handle and block (insertLocked).
// Three things are held here, each on malloc, mesh and anchorage as
// server.Boot builds it: a failed in-place write changes nothing; the
// accounting (charged bytes, allocator bytes, live handles) never drifts
// over a long random mix of stores that do and do not take the path, judged
// against a plain map; and the log such a mix writes replays to the same
// state, including over an entry that is dead when its record arrives.

import (
	"bytes"
	"errors"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/handle"
	"alaska/internal/rt"
)

// forEachBackend runs fn once per network-facing backend, handing it a
// constructor. The anchorage one is built as server.Boot builds it, plus
// whatever runtime options the caller adds; the others take none.
func forEachBackend(t *testing.T, fn func(t *testing.T, mk func(...rt.Option) Backend)) {
	t.Run("malloc", func(t *testing.T) { fn(t, func(...rt.Option) Backend { return NewMallocBackend() }) })
	t.Run("mesh", func(t *testing.T) { fn(t, func(...rt.Option) Backend { return NewMeshBackend(1) }) })
	t.Run("anchorage", func(t *testing.T) {
		fn(t, func(opts ...rt.Option) Backend {
			b, err := NewAnchorageBackend(anchorage.DefaultConfig(),
				append([]rt.Option{rt.WithPinMode(rt.CountedPins)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			return b
		})
	})
}

// liveHandles is the backend's count of allocated objects, where it keeps
// one: the handle table's live entries on anchorage.
func liveHandles(b Backend) (int, bool) {
	if ab, ok := b.(*AnchorageBackend); ok {
		return ab.Runtime.Table.Live(), true
	}
	return 0, false
}

// recLog is a MutationLog that keeps what it is handed.
type recLog struct{ recs []logRec }

type logRec struct {
	kind               byte // 's'et, 'd'elete, 't'ouch, 'f'lush
	key, value         []byte
	expireAt, storedAt time.Time
}

func (l *recLog) LogSet(key, value []byte, expireAt, storedAt time.Time) {
	l.recs = append(l.recs, logRec{'s', bytes.Clone(key), bytes.Clone(value), expireAt, storedAt})
}
func (l *recLog) LogDelete(key []byte) {
	l.recs = append(l.recs, logRec{kind: 'd', key: bytes.Clone(key)})
}
func (l *recLog) LogTouch(key []byte, expireAt time.Time) {
	l.recs = append(l.recs, logRec{kind: 't', key: bytes.Clone(key), expireAt: expireAt})
}
func (l *recLog) LogFlushAll(at time.Time) { l.recs = append(l.recs, logRec{kind: 'f', expireAt: at}) }

// replayInto applies the records the way wal replay does.
func (l *recLog) replayInto(t *testing.T, s *ShardedStore, sess Session) {
	t.Helper()
	for _, r := range l.recs {
		switch r.kind {
		case 's':
			if err := s.RestoreBytes(sess, r.key, r.value, r.expireAt, r.storedAt); err != nil {
				t.Fatalf("replay set %q: %v", r.key, err)
			}
		case 'd':
			s.RestoreDeleteBytes(r.key)
		case 't':
			s.RestoreTouchBytes(r.key, r.expireAt)
		case 'f':
			s.RestoreFlushEpoch(r.expireAt)
		}
	}
}

// entryState is everything about an entry a failed store must not touch.
type entryState struct {
	ref                Ref
	size               uint64
	expireAt, storedAt time.Time
	fetched            bool
	lastUsed           int64
	lru                string // the shard's keys, MRU first
	ttl                int
	bytes              uint64 // Snapshot().Bytes
	used               uint64 // Backend.UsedBytes()
	handles            int
	records            int
}

func stateOf(s *ShardedStore, b Backend, key string, l *recLog) entryState {
	sh := s.shardForB([]byte(key))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.index[key]
	st := entryState{ref: e.ref, size: e.size, expireAt: e.expireAt, storedAt: e.storedAt,
		fetched: e.fetched, lastUsed: e.lastUsed, ttl: sh.ttl,
		bytes: s.Snapshot().Bytes, used: b.UsedBytes(), records: len(l.recs)}
	for n := sh.lru.head; n != nil; n = n.next {
		st.lru += n.key + " "
	}
	st.handles, _ = liveHandles(b)
	return st
}

// TestInPlaceOverwriteFailureLeavesEntryIntact: a same-length overwrite
// whose write errors — a stale ref, a session that refuses the write, on
// anchorage a fault handler that fails — leaves the value, deadline, store
// stamp, fetched bit, LRU position, charged bytes, allocator bytes, live
// handles and the mutation log exactly as they were, whichever entry point
// carried the store; once the cause is gone the same store succeeds on the
// same handle.
func TestInPlaceOverwriteFailureLeavesEntryIntact(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk func(...rt.Option) Backend) {
		// On anchorage, a fault handler that fails while failFaults is set.
		failFaults, revalidate := false, anchorage.RevalidateFaultHandler()
		b := mk(rt.WithFaultHandler(func(r *rt.Runtime, id uint32) error {
			if failFaults {
				return errors.New("injected handle fault")
			}
			return revalidate(r, id)
		}))
		fb := &flakyBackend{Backend: b}
		s := NewShardedStore(fb, 1, 0)
		clock := newManualClock()
		s.Clock = clock.Now
		log := &recLog{}
		s.SetMutationLog(log)
		sess := s.NewSession()
		defer sess.Close()

		v1, v2 := bytes.Repeat([]byte{0xA1}, 96), bytes.Repeat([]byte{0xB2}, 96)
		deadline := clock.Now().Add(time.Hour)
		for _, k := range []string{"older", "k", "newer"} {
			if _, err := setEx(s, sess, k, v1, SetAlways, deadline); err != nil {
				t.Fatal(err)
			}
			clock.Advance(time.Second)
		}
		if got, err := get(s, sess, "k"); err != nil || !bytes.Equal(got, v1) { // sets fetched, moves k to the front
			t.Fatalf("get k = %x, %v", got, err)
		}
		if got, err := get(s, sess, "newer"); err != nil || got == nil { // ... and off it again
			t.Fatalf("get newer = %x, %v", got, err)
		}
		clock.Advance(time.Second)

		// A ref the backend cannot write through: a freed handle on
		// anchorage, an unmapped address on the raw backends (a freed raw
		// block stays mapped).
		stale := Ref(1)
		if _, ok := b.(*AnchorageBackend); ok {
			r, err := b.Alloc(96)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Free(r, 96); err != nil {
				t.Fatal(err)
			}
			stale = r
		}
		e := s.shards[0].index["k"]
		good := e.ref

		causes := map[string]func(on bool){
			"stale-ref": func(on bool) {
				if e.ref = good; on {
					e.ref = stale
				}
			},
			"session-write": func(on bool) { fb.failWrites.Store(on) },
		}
		if ab, ok := b.(*AnchorageBackend); ok {
			causes["fault-handler"] = func(on bool) {
				failFaults = on
				if err := ab.Runtime.Table.SetInvalid(handle.Handle(good).ID(), on); err != nil {
					t.Fatal(err)
				}
			}
		}
		stores := map[string]func() error{
			"set": func() error {
				_, err := s.SetExBytesAt(sess, []byte("k"), v2, SetAlways, time.Time{}, clock.Now())
				return err
			},
			"apply": func() error {
				_, err := s.ApplyInto(sess, []byte("k"), nil, clock.Now(), func(old []byte, found bool) ApplyOp {
					return ApplyOp{Verdict: ApplyStore, Value: v2, Stat: StatCasHit}
				})
				return err
			},
			"restore": func() error {
				return s.RestoreBytes(sess, []byte("k"), v2, time.Time{}, clock.Now())
			},
		}
		for cause, inject := range causes {
			for name, store := range stores {
				before := stateOf(s, b, "k", log)
				casHits := s.Snapshot().CasHits
				inject(true)
				err := store()
				inject(false)
				if err == nil {
					t.Fatalf("%s/%s: store succeeded", cause, name)
				}
				if after := stateOf(s, b, "k", log); after != before {
					t.Errorf("%s/%s: failed store changed the entry:\n before %+v\n after  %+v", cause, name, before, after)
				}
				if got := s.Snapshot().CasHits; got != casHits {
					t.Errorf("%s/%s: failed store counted a cas hit", cause, name)
				}
				if ab, ok := b.(*AnchorageBackend); ok {
					if n := ab.Runtime.Table.PinCount(handle.Handle(good).ID()); n != 0 {
						t.Errorf("%s/%s: failed store left %d pins on the handle", cause, name, n)
					}
				}
			}
		}
		// Reading moves k in the LRU, so the bytes are checked last.
		if got, err := get(s, sess, "k"); err != nil || !bytes.Equal(got, v1) {
			t.Errorf("k = %x, %v after failed stores; want the old value", got, err)
		}
		before := stateOf(s, b, "k", log)
		if err := stores["set"](); err != nil {
			t.Fatalf("store after the failures: %v", err)
		}
		after := stateOf(s, b, "k", log)
		if after.ref != good || after.handles != before.handles || after.used != before.used || after.bytes != before.bytes {
			t.Errorf("same-length store took a new block: before %+v after %+v", before, after)
		}
		if after.records != before.records+1 || !after.expireAt.IsZero() || after.fetched || after.ttl != before.ttl-1 {
			t.Errorf("same-length store did not restamp the entry: %+v", after)
		}
		if got, _ := get(s, sess, "k"); !bytes.Equal(got, v2) {
			t.Errorf("k = %x after the store, want the new value", got)
		}
	})
}

// refOf is key's current backend reference.
func refOf(s *ShardedStore, key string) Ref {
	sh := s.shardForB([]byte(key))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.index[key].ref
}

// modelItem is the test's own record of a key: the bytes, the deadline
// and the store stamp, nothing else.
type modelItem struct {
	val                []byte
	expireAt, storedAt time.Time
}

// kvModel is the plain map the random sequence is judged against. An item
// stays in it, dead, until an operation on its key finds it so — which is
// when the store reclaims it too — so Len and the byte totals agree exactly
// at every step without a sweep.
type kvModel struct {
	items   map[string]*modelItem
	flushAt time.Time
}

func (m *kvModel) dead(it *modelItem, now time.Time) bool {
	if !it.expireAt.IsZero() && !now.Before(it.expireAt) {
		return true
	}
	return !m.flushAt.IsZero() && !now.Before(m.flushAt) && it.storedAt.Before(m.flushAt)
}

// lookup is the model's lazy expiry.
func (m *kvModel) lookup(key string, now time.Time) *modelItem {
	it := m.items[key]
	if it != nil && m.dead(it, now) {
		delete(m.items, key)
		return nil
	}
	return it
}

func (m *kvModel) store(key string, val []byte, expireAt, now time.Time) {
	m.items[key] = &modelItem{bytes.Clone(val), expireAt, now}
}

// checkAgainst holds the store's totals to the model's, and key's value.
func (m *kvModel) checkAgainst(t *testing.T, s *ShardedStore, sess Session, step int, op, key string, now time.Time) {
	t.Helper()
	var cost, bytesUsed uint64
	for k, it := range m.items {
		cost += entryCost(len(k), len(it.val))
		bytesUsed += uint64(len(it.val))
	}
	if got := s.Len(); got != len(m.items) {
		t.Fatalf("step %d (%s %s): Len = %d, model holds %d", step, op, key, got, len(m.items))
	}
	if got := s.Snapshot().Bytes; got != cost {
		t.Fatalf("step %d (%s %s): Snapshot().Bytes = %d, Σ entryCost = %d", step, op, key, got, cost)
	}
	if got := s.backend.UsedBytes(); got != bytesUsed {
		t.Fatalf("step %d (%s %s): backend holds %d bytes, Σ len(value) = %d (leaked or double-freed block)", step, op, key, got, bytesUsed)
	}
	if got, ok := liveHandles(s.backend); ok && got != len(m.items) {
		t.Fatalf("step %d (%s %s): %d live handles for %d entries", step, op, key, got, len(m.items))
	}
	keys := []string{key}
	if step%16 == 0 {
		keys = keys[:0]
		for k := range m.items {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		var want []byte
		if it := m.lookup(k, now); it != nil {
			want = it.val
		}
		got, _, err := s.GetIntoAt(sess, []byte(k), nil, now)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("step %d (%s %s): %s = %q, %v; model says %q", step, op, key, k, got, err, want)
		}
	}
}

// TestInPlaceOverwriteMatchesModel drives a seeded random mix of set / add
// / replace / cas / incr / decr / append / touch / delete / flush_all —
// about half the stores repeating the stored length — through the store's
// entry points and checks it against kvModel after every operation; then
// replays the log the mix wrote into a fresh store and checks that too.
func TestInPlaceOverwriteMatchesModel(t *testing.T) {
	const steps = 6000
	forEachBackend(t, func(t *testing.T, mk func(...rt.Option) Backend) {
		b := mk()
		s := NewShardedStore(b, 4, 0)
		clock := newManualClock()
		s.Clock = clock.Now
		log := &recLog{}
		s.SetMutationLog(log)
		sess := s.NewSession()
		defer sess.Close()
		m := &kvModel{items: map[string]*modelItem{}}
		rng := rand.New(rand.NewSource(22))
		inPlace, allocating := 0, 0
		for step := 1; step <= steps; step++ {
			clock.Advance(time.Duration(rng.Intn(1500)) * time.Millisecond)
			now := clock.Now()
			k := rng.Intn(24)
			key := "key" + strconv.Itoa(k)
			var expireAt time.Time
			if rng.Intn(3) == 0 {
				expireAt = now.Add(time.Duration(1+rng.Intn(30)) * time.Second)
			}
			op := [...]string{"set", "set", "set", "add", "replace", "cas", "incr", "decr", "append", "touch", "delete", "flush_all"}[rng.Intn(12)]
			if op == "flush_all" && rng.Intn(8) != 0 {
				op = "set" // a flush every ~100 steps leaves something to overwrite
			}
			// Every operation but flush_all looks its key up, and that is
			// when a dead entry goes — from the store and from the model.
			var old *modelItem
			var oldRef Ref
			if op != "flush_all" {
				if old = m.lookup(key, now); old != nil {
					oldRef = refOf(s, key)
				}
			}
			// The value offered: a little over half the time at the length
			// already stored under the key.
			n := 1 + rng.Intn(48)
			if old != nil && rng.Intn(20) < 11 {
				n = len(old.val)
			}
			val := make([]byte, n)
			for i := range val {
				val[i] = 'a' + byte(step%26)
			}
			stored := []byte(nil) // what this step stored, if anything
			switch op {
			case "set", "add", "replace":
				mode := map[string]SetMode{"set": SetAlways, "add": SetAdd, "replace": SetReplace}[op]
				want := op == "set" || (op == "add") == (old == nil)
				ok, err := s.SetExBytesAt(sess, []byte(key), val, mode, expireAt, now)
				if err != nil || ok != want {
					t.Fatalf("step %d: %s %s = %v, %v; want %v", step, op, key, ok, err, want)
				}
				if ok {
					m.store(key, val, expireAt, now)
					stored = val
				}
			case "cas": // half the time against a stale expectation
				expected := []byte("no such value")
				if old != nil && rng.Intn(2) == 0 {
					expected = old.val
				}
				var swapped, found bool
				_, err := s.ApplyInto(sess, []byte(key), nil, now, casApply(expected, val, &swapped, &found))
				if err != nil || found != (old != nil) || swapped != (old != nil && bytes.Equal(expected, old.val)) {
					t.Fatalf("step %d: cas %s = swapped %v found %v, %v", step, key, swapped, found, err)
				}
				if swapped {
					m.store(key, val, old.expireAt, now) // casApply keeps the deadline
					stored = val
				}
			case "incr", "decr", "append": // read-modify-write that keeps the deadline
				next := func(cur []byte) []byte {
					if op == "append" {
						return append(bytes.Clone(cur), val[:min(len(val), rng.Intn(3))]...) // a third append nothing
					}
					n, err := strconv.ParseUint(string(cur), 10, 64)
					if err != nil {
						n = 95 // first use of this key as a counter
					}
					if op == "incr" {
						n += 3
					} else if n < 3 {
						n = 0
					} else {
						n -= 3
					}
					return strconv.AppendUint(nil, n, 10)
				}
				var wrote []byte
				_, err := s.ApplyInto(sess, []byte(key), nil, now, func(cur []byte, found bool) ApplyOp {
					if !found {
						return ApplyOp{}
					}
					wrote = next(cur)
					return ApplyOp{Verdict: ApplyStore, Value: wrote, KeepExpire: true}
				})
				if err != nil || (wrote != nil) != (old != nil) {
					t.Fatalf("step %d: %s %s wrote %q, %v; model found %v", step, op, key, wrote, err, old != nil)
				}
				if old != nil {
					m.store(key, wrote, old.expireAt, now)
					stored = wrote
				}
			case "touch":
				found, err := s.TouchBytes(sess, []byte(key), expireAt, now)
				if err != nil || found != (old != nil) {
					t.Fatalf("step %d: touch %s = %v, %v", step, key, found, err)
				}
				if found {
					old.expireAt = expireAt
				}
			case "delete":
				found, err := s.DelBytes(sess, []byte(key), now)
				if err != nil || found != (old != nil) {
					t.Fatalf("step %d: delete %s = %v, %v", step, key, found, err)
				}
				delete(m.items, key)
			case "flush_all":
				at := now.Add(time.Duration(rng.Intn(3)) * time.Second)
				s.FlushAll(at)
				m.flushAt = at
			}
			// A store over a live value keeps its ref exactly when it keeps
			// the length.
			if stored != nil && old != nil {
				newRef := refOf(s, key)
				if same := len(stored) == len(old.val); same != (newRef == oldRef) {
					t.Fatalf("step %d: %s %s, %d → %d bytes: ref %#x → %#x", step, op, key, len(old.val), len(stored), oldRef, newRef)
				} else if same {
					inPlace++
				} else {
					allocating++
				}
			}
			m.checkAgainst(t, s, sess, step, op, key, now)
		}
		if inPlace < steps/8 || allocating < steps/8 {
			t.Fatalf("%d in-place and %d allocating overwrites in %d steps: the mix missed a path", inPlace, allocating, steps)
		}
		t.Logf("%d steps: %d in-place overwrites, %d allocating, %d log records, %d keys left", steps, inPlace, allocating, len(log.recs), len(m.items))

		// The log replays to the same state on a fresh store with the clock
		// at the last step's time: a set record dead by then is applied all
		// the same and a touch record judges by existence, so a touch that
		// extended a deadline in time still does.
		rs := NewShardedStore(mk(), 4, 0)
		end := clock.Now()
		rs.Clock = func() time.Time { return end }
		rsess := rs.NewSession()
		defer rsess.Close()
		log.replayInto(t, rs, rsess)
		for k := 0; k < 24; k++ { // reclaim what is dead at the end, on both sides
			key := "key" + strconv.Itoa(k)
			m.lookup(key, end)
			if _, _, err := rs.GetIntoAt(rsess, []byte(key), nil, end); err != nil {
				t.Fatal(err)
			}
		}
		m.checkAgainst(t, rs, rsess, 0, "replay", "", end)
	})
}

// TestRestoreBytesInPlaceOverDeadEntry: replay does no lazy expiry, so a
// set record can meet, under its key, an entry that is already dead at the
// time of the restart — by its deadline, or by a flush epoch replayed in
// between. A same-length record overwrites it in place and the result is
// the record's value with the record's stamps; the accounting and the
// handle do not change.
func TestRestoreBytesInPlaceOverDeadEntry(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk func(...rt.Option) Backend) {
		b := mk()
		s := NewShardedStore(b, 2, 0)
		clock := newManualClock()
		s.Clock = clock.Now
		sess := s.NewSession()
		defer sess.Close()
		t0 := clock.Now()
		at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
		clock.Advance(100 * time.Second) // the restart happens long after the records were written

		v1, v2 := bytes.Repeat([]byte{1}, 40), bytes.Repeat([]byte{2}, 40)
		restore := func(key string, v []byte, expireSec, storedSec int) {
			t.Helper()
			var exp time.Time
			if expireSec != 0 {
				exp = at(expireSec)
			}
			if err := s.RestoreBytes(sess, []byte(key), v, exp, at(storedSec)); err != nil {
				t.Fatal(err)
			}
		}
		restore("ttl", v1, 5, 1)     // expired at t0+5
		restore("flushed", v1, 0, 1) // killed by the epoch below
		restore("stays-dead", v1, 0, 1)
		s.RestoreFlushEpoch(at(10))
		refs := map[string]Ref{}
		for _, k := range []string{"ttl", "flushed"} {
			refs[k] = s.shardForB([]byte(k)).index[k].ref
		}
		bytesBefore, usedBefore := s.Snapshot().Bytes, b.UsedBytes()
		handlesBefore, _ := liveHandles(b)

		restore("ttl", v2, 0, 20)
		restore("flushed", v2, 0, 20)

		for _, k := range []string{"ttl", "flushed"} {
			if got := s.shardForB([]byte(k)).index[k].ref; got != refs[k] {
				t.Errorf("%s: same-length restore changed the ref %#x → %#x", k, refs[k], got)
			}
			if got, err := get(s, sess, k); err != nil || !bytes.Equal(got, v2) {
				t.Errorf("%s = %x, %v; want the later record's value, alive", k, got, err)
			}
		}
		if handles, _ := liveHandles(b); s.Snapshot().Bytes != bytesBefore || b.UsedBytes() != usedBefore || handles != handlesBefore {
			t.Errorf("accounting moved: bytes %d → %d, backend %d → %d, handles %d → %d",
				bytesBefore, s.Snapshot().Bytes, usedBefore, b.UsedBytes(), handlesBefore, handles)
		}
		if s.shardForB([]byte("ttl")).ttl != 0 {
			t.Errorf("ttl count = %d after the deadline was overwritten with none", s.shardForB([]byte("ttl")).ttl)
		}
		if got, _ := get(s, sess, "stays-dead"); got != nil {
			t.Errorf("stays-dead = %x; stored before the flush epoch, want a miss", got)
		}
		if s.Len() != 2 {
			t.Errorf("Len = %d, want 2", s.Len())
		}
	})
}
