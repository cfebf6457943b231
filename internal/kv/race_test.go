package kv

// Race-detector stress test for the memcached-like sharded store over the
// full Alaska stack: worker goroutines set/get concurrently — each through
// its own runtime thread with pin sets and safepoint polls — while the
// Anchorage controller stops the world and compacts underneath them. Every
// translation in every session races relocation through the sharded
// lock-free handle table. Run under `go test -race ./internal/kv`.
//
// The second test holds the rule mem.Space's unlocked copy leans on: a
// pinned object's bytes are never released (DontNeed) or reused before
// the unpin plus a grace period, with the pause-free mover live.
//
// The third runs activedefrag's application half — the store rewriting
// its own refs — against live request traffic on the same shards.
//
// The fourth holds the in-place overwrite to the same mover: writers
// rewrite hot keys at a fixed length, so every store goes through the
// handle the mover may be relocating at that moment.
//
// The fifth takes the barrier pass away: the pause-free pass alone
// coalesces, moves and truncates under in-place and resizing writers,
// readers, and a raw Halloc/Hfree client reading inside its grace period.
//
// The sixth holds the store's own reads to that grace period: a GET hit
// copies through an unpinned translation while the pass moves the value
// and truncates the block it left.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/handle"
	"alaska/internal/mem"
	"alaska/internal/rt"
)

func TestShardedStoreConcurrentDefragRace(t *testing.T) {
	cfg := anchorage.DefaultConfig()
	cfg.SubHeapSize = 256 * 1024
	cfg.FragHigh = 1.1 // defragment eagerly so barriers actually fire
	cfg.FragLow = 1.05
	cfg.WakeInterval = time.Millisecond
	backend, err := NewAnchorageBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := NewShardedStore(backend, 8, 0)

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	ops := 3000
	if testing.Short() {
		ops = 600
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Maintenance goroutine: drives the §4.3 controller with a synthetic
	// clock so it defragments (with stop-the-world barriers) throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		now := time.Duration(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			backend.Maintain(now)
			now += 2 * time.Millisecond
			// Yield between barriers so workers make progress; thousands of
			// back-to-back stop-the-worlds test nothing extra.
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var mwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		mwg.Add(1)
		go func(w int) {
			defer mwg.Done()
			sess := store.NewSession()
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			// Each worker owns a private key range, so a Get must return
			// exactly what this worker last Set (no cross-worker dels).
			want := make(map[string]byte)
			for op := 0; op < ops; op++ {
				sess.Safepoint()
				key := fmt.Sprintf("w%d-k%03d", w, rng.Intn(64))
				if v, ok := want[key]; ok && rng.Intn(2) == 0 {
					got, err := get(store, sess, key)
					if err != nil {
						t.Error(err)
						return
					}
					if len(got) == 0 || got[0] != v {
						t.Errorf("worker %d: %s = %v, want leading byte %#x", w, key, got, v)
						return
					}
					continue
				}
				val := make([]byte, 32+rng.Intn(480))
				tag := byte(op)
				for i := range val {
					val[i] = tag
				}
				if err := set(store, sess, key, val); err != nil {
					t.Error(err)
					return
				}
				want[key] = tag
			}
		}(w)
	}
	mwg.Wait()
	close(stop)
	wg.Wait()

	if store.Len() == 0 {
		t.Error("store empty after stress")
	}
	if backend.Svc.Passes == 0 {
		t.Error("controller never ran a defrag pass; the test raced nothing")
	}
	t.Logf("%d workers × %d ops over %d keys: %d defrag passes, %d bytes moved, frag %.3f",
		workers, ops, store.Len(), backend.Svc.Passes, backend.Svc.MovedBytes, backend.Svc.Fragmentation())
}

// TestPinnedBytesStableUnderConcurrentDefrag: mem.Space.Read/Write copy
// with no lock held, so nothing in the space stops a block from being
// zeroed or handed to another object mid-copy. What does is the layer
// above: the mover skips a pinned object, and a vacated block is neither
// truncated away nor reused until every thread that could still hold its
// address has crossed a safepoint. Holders read their object through the
// raw address of a long-lived pin; stragglers read through an unpinned
// translation they keep until their next safepoint (the grace period);
// both must see their own bytes every time while both movers run — the
// pause-free pass with DrainDeferred, and the backend's barrier-stepped
// controller (the figures') — and churning sets recycle every block that
// comes free.
// Under -race a reuse or a DontNeed overlapping a reader's copy is also a
// reported data race.
func TestPinnedBytesStableUnderConcurrentDefrag(t *testing.T) {
	cfg := anchorage.DefaultConfig()
	cfg.SubHeapSize = 256 * 1024
	cfg.FragHigh = 1.1
	cfg.FragLow = 1.05
	cfg.WakeInterval = time.Millisecond
	backend, err := NewAnchorageBackend(cfg, rt.WithPinMode(rt.CountedPins))
	if err != nil {
		t.Fatal(err)
	}
	store := NewShardedStore(backend, 8, 0)
	rounds := 1500
	if testing.Short() {
		rounds = 300
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { // both movers, compressed
		defer bg.Done()
		for now := time.Duration(0); ; now += 2 * time.Millisecond {
			select {
			case <-stop:
				return
			default:
			}
			backend.Svc.ConcurrentDefragPass(64 << 10)
			backend.Svc.DrainDeferred()
			backend.Maintain(now)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for w := 0; w < 2; w++ { // churn: fragments the heap and reuses freed blocks
		bg.Add(1)
		go func(w int) {
			defer bg.Done()
			sess := store.NewSession()
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for op := 0; ; op++ {
				select {
				case <-stop:
					return
				default:
				}
				sess.Safepoint()
				key := fmt.Sprintf("c%d-%03d", w, rng.Intn(256))
				if rng.Intn(3) == 0 {
					if _, err := del(store, sess, key); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := set(store, sess, key, make([]byte, 32+rng.Intn(480))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			th := backend.Runtime.NewThread()
			defer func() {
				if err := th.Destroy(); err != nil {
					t.Error(err)
				}
			}()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			pinned := w%2 == 0 // holders pin; stragglers only translate
			for i := 0; i < rounds; i++ {
				th.Safepoint()
				size := uint64(64 + rng.Intn(960))
				ref, err := backend.Alloc(size)
				if err != nil {
					t.Error(err)
					return
				}
				h, tag := handle.Handle(ref), byte(w<<6|i&0x3f|1)
				want := make([]byte, size)
				for j := range want {
					want[j] = tag
				}
				a, unpin, err := th.Pin(h)
				if err != nil {
					t.Error(err)
					return
				}
				err = backend.Space.Write(a, want)
				unpin()
				if err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, size)
				for k := 0; k < 4; k++ {
					th.Safepoint() // unpinned here: the mover may take the object
					unpin = func() {}
					if pinned {
						a, unpin, err = th.Pin(h)
					} else {
						a, err = th.Translate(h)
					}
					if err != nil {
						t.Error(err)
						return
					}
					// No safepoint inside this loop: a stays usable for all
					// of it, through the pin or through the grace period.
					for n := 0; n < 8 && err == nil; n++ {
						err = backend.Space.Read(a, got)
						if err == nil && !bytes.Equal(got, want) {
							err = fmt.Errorf("reader %d (pinned=%v): %d-byte object at %#x reads %x..., want all %#x",
								w, pinned, size, a, got[:8], tag)
						}
						runtime.Gosched()
					}
					unpin()
					if err != nil {
						t.Error(err)
						return
					}
				}
				if err := backend.Free(ref, size); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	bg.Wait()

	m := backend.Svc.MetricsSnapshot()
	if m.ConcurrentPasses == 0 || m.MovedBytes == 0 {
		t.Errorf("mover idle (%d concurrent passes, %d bytes moved); the test raced nothing", m.ConcurrentPasses, m.MovedBytes)
	}
	t.Logf("%d concurrent + %d barrier passes, %d bytes moved, %d truncated, %d move aborts",
		m.ConcurrentPasses, m.Passes, m.MovedBytes, m.Truncated, m.MoveAborts)
}

// TestActiveDefragMaintainRacesRequests: two workers set/get/del on a
// 4-shard store — their own keys, and reads of the sparse survivors the
// defrag cycle is busy relocating — while a third goroutine loops
// Maintain on the ActiveDefragBackend underneath them. Every read must
// return the bytes last written under that key.
//
// Mutation check: drop the sh.mu.Lock()/Unlock() pair from
// ShardedStore.iterateRefs (visit a shard's entries without sh.mu) and
// this fails — the race detector flags the unlocked index walk and
// e.ref rewrite against getInto/insertLocked, and without -race the
// runtime usually aborts on "concurrent map iteration and map write".
func TestActiveDefragMaintainRacesRequests(t *testing.T) {
	b := NewActiveDefragBackend()
	st, seed := sparseStore(t, b)
	seed.Close()
	ops := 4000
	if testing.Short() {
		ops = 1000
	}

	stop := make(chan struct{})
	var maint, workers sync.WaitGroup
	maint.Add(1)
	go func() {
		defer maint.Done()
		for now := b.CycleInterval; ; now += b.CycleInterval {
			select {
			case <-stop:
				return
			default:
			}
			st.Maintain(now)
			runtime.Gosched()
		}
	}()
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			sess := st.NewSession()
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			reads := func(k string, want []byte) bool {
				got, err := get(st, sess, k)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("get %s: wrong bytes mid-defrag (err=%v)", k, err)
				}
				return err == nil && bytes.Equal(got, want)
			}
			for i := 0; i < ops; i++ {
				own := fmt.Sprintf("w%d-%d", w, rng.Intn(64))
				val := bytes.Repeat([]byte{byte(i)}, 64+rng.Intn(128))
				if err := set(st, sess, own, val); err != nil {
					t.Errorf("set %s: %v", own, err)
					return
				}
				if !reads(own, val) {
					return
				}
				if i%3 == 0 {
					if _, err := del(st, sess, own); err != nil {
						t.Errorf("del %s: %v", own, err)
						return
					}
				}
				if k := rng.Intn(sparseN); sparseKept(k) && !reads(sparseKey(k), sparseVal(k)) {
					return
				}
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	maint.Wait()
	if b.Moved == 0 {
		t.Error("no entry was relocated while the workers ran")
	}
}

// tagOf reports the byte v is filled with, or false if v is empty or not
// all one byte; fillTag makes v all tag. (Neither loops over bytes: under
// -race that would be most of a test's time, and none of it inside the
// window the tests that use them are about.)
func tagOf(v []byte) (byte, bool) {
	if len(v) == 0 || bytes.Count(v, v[:1]) != len(v) {
		return 0, false
	}
	return v[0], true
}

func fillTag(v []byte, tag byte) {
	v[0] = tag
	for n := 1; n < len(v); n *= 2 {
		copy(v[n:], v[:n])
	}
}

// TestInPlaceOverwriteUnderConcurrentDefrag: a same-length overwrite keeps
// its handle, so the write lands in a block the pause-free mover may be
// copying that instant — which is safe only because it is a pinned write:
// the mover skips a pinned object, and a pin that meets a moving entry
// faults, revalidates and aborts the move. Each writer owns a few hot keys
// and works in cycles: it lifts one to the top of the heap with holes
// beneath it (ballast in, key re-created above it, ballast out), then
// rewrites it, tag-filled, at one length, over and over, while the mover
// takes it down into one of those holes. Readers read every hot key;
// both movers run compressed — ConcurrentDefragPass + DrainDeferred every
// turn, and the backend's barrier-stepped controller (the figures') every
// few.
// Every read must be one whole value some writer wrote under that key, and
// a key's owner must read back its last acknowledged write.
//
// Mutation check: in insertLocked's same-length branch, replace
// sess.Write(e.ref, 0, value) with a write through an unpinned translation
// (hs := sess.(*handleSession); a, _ := hs.th.Translate(handle.Handle(e.ref));
// err := hs.space.Write(a, value)) and this fails: the mover copies the
// block between the translation and the end of the store and commits — the
// owner reads its previous tag back, or two tags in one value.
func TestInPlaceOverwriteUnderConcurrentDefrag(t *testing.T) {
	cfg := anchorage.DefaultConfig()
	cfg.SubHeapSize = 256 * 1024
	cfg.FragHigh = 1.1
	cfg.FragLow = 1.05
	cfg.WakeInterval = time.Millisecond
	backend, err := NewAnchorageBackend(cfg, rt.WithPinMode(rt.CountedPins))
	if err != nil {
		t.Fatal(err)
	}
	store := NewShardedStore(backend, 8, 0)
	const (
		writers    = 2
		hotKeys    = 3 // per writer
		ballast    = 6 // per writer: the holes a lifted key is moved into
		valLen     = 8 << 10
		overwrites = 12 // per cycle: the mover has the key down within a few
	)
	cycles := 1500
	if testing.Short() {
		cycles = 500
	}
	hotKey := func(w, k int) string { return fmt.Sprintf("hot-%d-%d", w, k) }
	// whole reports the byte v is filled with, or false if v is not one
	// tag-filled value of the hot keys' length.
	whole := func(v []byte) (byte, bool) {
		if len(v) != valLen {
			return 0, false
		}
		return tagOf(v)
	}
	fill := fillTag

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { // both movers, compressed
		defer bg.Done()
		for i, now := 0, time.Duration(0); ; i, now = i+1, now+2*time.Millisecond {
			select {
			case <-stop:
				return
			default:
			}
			backend.Svc.ConcurrentDefragPass(64 << 10)
			backend.Svc.DrainDeferred()
			if i%8 == 0 {
				backend.Maintain(now)
			}
			runtime.Gosched()
		}
	}()
	for r := 0; r < 2; r++ {
		bg.Add(1)
		go func(r int) {
			defer bg.Done()
			sess := store.NewSession()
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(50 + r)))
			var buf []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				sess.Safepoint()
				key := hotKey(rng.Intn(writers), rng.Intn(hotKeys))
				got, hit, err := store.GetInto(sess, []byte(key), buf)
				if err != nil {
					t.Error(err)
					return
				}
				if _, ok := whole(got); hit && !ok { // a miss is a key between its Del and its Set
					t.Errorf("reader %d: %s is not one whole value: %d bytes, %x…%x", r, key, len(got), got[:4], got[len(got)-4:])
					return
				}
				buf = got[:0]
			}
		}(r)
	}

	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			sess := store.NewSession()
			defer sess.Close()
			val := make([]byte, valLen)
			var buf []byte
			failed := false
			set := func(key string) {
				sess.Safepoint()
				if err := set(store, sess, key, val); err != nil && !failed {
					failed = true
					t.Error(err)
				}
			}
			del := func(key string) {
				sess.Safepoint()
				if _, err := del(store, sess, key); err != nil && !failed {
					failed = true
					t.Error(err)
				}
			}
			tag := byte(0)
			for c := 0; c < cycles && !failed; c++ {
				key := hotKey(w, c%hotKeys)
				// Lift key: the ballast fills what holes there are, a spare
				// takes the one key's own block leaves, key goes on top, and
				// out goes the ballast from under it.
				for b := 0; b < ballast; b++ {
					set(fmt.Sprintf("ballast-%d-%d", w, b))
				}
				del(key)
				set(fmt.Sprintf("spare-%d", w))
				set(key)
				del(fmt.Sprintf("spare-%d", w))
				for b := 0; b < ballast; b++ {
					del(fmt.Sprintf("ballast-%d-%d", w, b))
				}
				for i := 0; i < overwrites && !failed; i++ {
					tag++
					fill(val, tag)
					set(key)
					got, hit, err := store.GetInto(sess, []byte(key), buf)
					if err != nil {
						t.Error(err)
						return
					}
					if b, ok := whole(got); !hit || !ok || b != tag {
						t.Errorf("writer %d cycle %d: %s reads back %#x (hit %v, whole %v) after an acknowledged write of %#x", w, c, key, b, hit, ok, tag)
						return
					}
					buf = got[:0]
				}
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	bg.Wait()

	m := backend.Svc.MetricsSnapshot()
	if m.ConcurrentPasses == 0 || m.MovedBytes == 0 {
		t.Errorf("mover idle (%d concurrent passes, %d bytes moved); the test raced nothing", m.ConcurrentPasses, m.MovedBytes)
	}
	t.Logf("%d concurrent + %d barrier passes, %d bytes moved, %d move aborts", m.ConcurrentPasses, m.Passes, m.MovedBytes, m.MoveAborts)
}

// TestPauseFreePassReclaimsUnderTraffic holds the pass that gives memory
// back with no barrier — holes coalesced, tails truncated and their pages
// released, all while threads run — to what alaskad does with it:
// ConcurrentDefragPass and DrainDeferred every turn and never a barrier
// pass. One writer overwrites its hot keys in place, one changes their
// length on every store (a shorter value splits the longer one's freed
// block); each lifts its key on top of ballast it then deletes, so there
// is always a tail to
// vacate. Two readers require every value whole; each writer reads back
// its last acknowledged write. Beside the store a raw client of the
// runtime churns Halloc/Hfree the same way and reads its objects the way
// the grace period exists for: translate a batch unpinned, then read them
// all before the next safepoint — the mover may commit a move of any of
// them in between, and the old copy must still be there, whole, and at a
// 16-byte boundary. At the end memory did come back: Truncated > 0,
// Passes == 0.
//
// Mutation this fails under (-race -short -count=20): truncate not
// holding the bump above s.deferred (the raw client reads a released
// page: zeroes, and the race detector on DontNeed's clear).
func TestPauseFreePassReclaimsUnderTraffic(t *testing.T) {
	cfg := anchorage.DefaultConfig()
	cfg.SubHeapSize = 256 * 1024
	backend, err := NewAnchorageBackend(cfg, rt.WithPinMode(rt.CountedPins))
	if err != nil {
		t.Fatal(err)
	}
	store := NewShardedStore(backend, 8, 0)
	const (
		writers    = 2 // writer 0 in place, writer 1 resizing
		hotKeys    = 3 // per writer
		ballast    = 6 // per writer: the holes a lifted key is moved into
		maxLen     = 8 << 10
		overwrites = 8 // per cycle
	)
	cycles := 1200
	if testing.Short() {
		cycles = 250
	}
	hotKey := func(w, k int) string { return fmt.Sprintf("hot-%d-%d", w, k) }
	whole, fill := tagOf, fillTag

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { // alaskad's maintenance loop above its trigger, compressed
		defer bg.Done()
		for !stopped() {
			backend.Svc.ConcurrentDefragPass(64 << 10)
			backend.Svc.DrainDeferred()
			runtime.Gosched()
		}
	}()
	for r := 0; r < 2; r++ {
		bg.Add(1)
		go func(r int) {
			defer bg.Done()
			sess := store.NewSession()
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(70 + r)))
			var buf []byte
			for !stopped() {
				sess.Safepoint()
				key := hotKey(rng.Intn(writers), rng.Intn(hotKeys))
				got, hit, err := store.GetInto(sess, []byte(key), buf)
				if err != nil {
					t.Error(err)
					return
				}
				if _, ok := whole(got); hit && !ok { // a miss is a key between its Del and its Set
					t.Errorf("reader %d: %s is not one whole value: %d bytes", r, key, len(got))
					return
				}
				buf = got[:0]
			}
		}(r)
	}
	bg.Add(1)
	go func() { // the raw client
		defer bg.Done()
		r, space := backend.Runtime, backend.Space
		th := r.NewThread()
		defer th.Destroy()
		rng := rand.New(rand.NewSource(90))
		type obj struct {
			h    handle.Handle
			size int
			tag  byte
		}
		buf := make([]byte, 4<<10)
		alloc := func(size int, tag byte) (obj, bool) {
			h, err := r.Halloc(uint64(size))
			if err != nil {
				t.Error(err)
				return obj{}, false
			}
			a, unpin, err := th.Pin(h)
			if err != nil {
				t.Error(err)
				return obj{}, false
			}
			fill(buf[:size], tag)
			err = space.Write(a, buf[:size])
			unpin()
			if err != nil {
				t.Error(err)
				return obj{}, false
			}
			return obj{h, size, tag}, true
		}
		var ring [32]obj
		var addrs [len(ring)]mem.Addr
		var under [12]obj
		defer func() {
			for _, o := range ring {
				if o.size != 0 {
					if err := r.Hfree(o.h); err != nil {
						t.Error(err)
					}
				}
			}
		}()
		for step := 0; !stopped(); step++ {
			th.Safepoint()
			// A quarter of the ring goes and comes back on top of blocks
			// freed again at once: holes under it, a tail above them.
			for i := range under {
				var ok bool
				if under[i], ok = alloc(2<<10, 0); !ok {
					return
				}
			}
			for i := 0; i < len(ring)/4; i++ {
				k := rng.Intn(len(ring))
				if ring[k].size != 0 {
					if err := r.Hfree(ring[k].h); err != nil {
						t.Error(err)
						return
					}
				}
				var ok bool
				if ring[k], ok = alloc(64+rng.Intn(len(buf)-64), byte(step)); !ok {
					return
				}
			}
			for _, o := range under {
				if err := r.Hfree(o.h); err != nil {
					t.Error(err)
					return
				}
			}
			// Unpinned: these addresses are good until the next safepoint,
			// whatever the mover commits meanwhile.
			for k, o := range ring {
				if o.size == 0 {
					continue
				}
				a, err := th.Translate(o.h)
				if err != nil {
					t.Error(err)
					return
				}
				if a%16 != 0 {
					t.Errorf("raw client: object of %d bytes at %#x, not 16-byte aligned", o.size, a)
					return
				}
				addrs[k] = a
			}
			runtime.Gosched()
			for k, o := range ring {
				if o.size == 0 {
					continue
				}
				if err := space.Read(addrs[k], buf[:o.size]); err != nil {
					t.Error(err)
					return
				}
				if b, ok := whole(buf[:o.size]); !ok || b != o.tag {
					t.Errorf("raw client: %d-byte object reads %#x (whole %v) inside its grace period, want %#x", o.size, b, ok, o.tag)
					return
				}
			}
		}
	}()

	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			sess := store.NewSession()
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(80 + w)))
			val := make([]byte, maxLen)
			n := maxLen / 2 // writer 0 keeps this length: every overwrite in place
			var buf []byte
			failed := false
			set := func(key string) {
				sess.Safepoint()
				if err := set(store, sess, key, val[:n]); err != nil && !failed {
					failed = true
					t.Error(err)
				}
			}
			del := func(key string) {
				sess.Safepoint()
				if _, err := del(store, sess, key); err != nil && !failed {
					failed = true
					t.Error(err)
				}
			}
			tag := byte(0)
			for c := 0; c < cycles && !failed; c++ {
				key := hotKey(w, c%hotKeys)
				// Lift key, as in the test above.
				for b := 0; b < ballast; b++ {
					set(fmt.Sprintf("ballast-%d-%d", w, b))
				}
				del(key)
				set(fmt.Sprintf("spare-%d", w))
				set(key)
				del(fmt.Sprintf("spare-%d", w))
				for b := 0; b < ballast; b++ {
					del(fmt.Sprintf("ballast-%d-%d", w, b))
				}
				for i := 0; i < overwrites && !failed; i++ {
					if w == 1 {
						n = 64 + rng.Intn(maxLen-64)
					}
					tag++
					fill(val[:n], tag)
					set(key)
					got, hit, err := store.GetInto(sess, []byte(key), buf)
					if err != nil {
						t.Error(err)
						return
					}
					if b, ok := whole(got); !hit || !ok || b != tag || len(got) != n {
						t.Errorf("writer %d cycle %d: %s reads back %d bytes of %#x (hit %v, whole %v) after an acknowledged write of %d of %#x", w, c, key, len(got), b, hit, ok, n, tag)
						return
					}
					buf = got[:0]
				}
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	bg.Wait()

	m := backend.Svc.MetricsSnapshot()
	if m.Passes != 0 {
		t.Errorf("%d barrier passes ran; this test is the pass without one", m.Passes)
	}
	if m.ConcurrentPasses == 0 || m.MovedBytes == 0 {
		t.Errorf("mover idle (%d concurrent passes, %d bytes moved); the test raced nothing", m.ConcurrentPasses, m.MovedBytes)
	}
	if m.Truncated == 0 {
		t.Errorf("Truncated = 0: the passes returned no memory")
	}
	t.Logf("%d concurrent passes, %d bytes moved, %d truncated, %d move aborts", m.ConcurrentPasses, m.MovedBytes, m.Truncated, m.MoveAborts)
}

// TestUnpinnedReadsNeedTheGracePeriod: a GET hit copies through an unpinned
// translation (handleSession.Read), so nothing stops the pause-free pass
// from moving the value mid-copy; what keeps the copy right is the grace
// period alone — the vacated block is neither reused nor truncated until
// the reader's next safepoint. Each writer works in cycles at a new length
// every time: it lifts one of its keys to the top of the heap with holes
// beneath it (ballast in, key re-created above it, ballast out), publishes
// which key that is, and reads it back while the mover takes it down and
// truncates the tail it left. Readers GetIntoAt the keys just lifted. Every
// value is filled with its own key's tag; ConcurrentDefragPass and
// DrainDeferred run every turn. Every read must be one whole value written
// under its own key.
//
// Mutation this fails under (-race -short -count=20): make
// drainDeferredLocked skip its QuiescentSince check, and a reader returns
// bytes that are not its value's: the zeroes of the page truncated under
// its copy, or another object's. (With the read pinned, as writes are,
// that mutation passes here: the mover skips a pinned object.)
func TestUnpinnedReadsNeedTheGracePeriod(t *testing.T) {
	cfg := anchorage.DefaultConfig()
	cfg.SubHeapSize = 256 * 1024
	backend, err := NewAnchorageBackend(cfg, rt.WithPinMode(rt.CountedPins))
	if err != nil {
		t.Fatal(err)
	}
	store := NewShardedStore(backend, 8, 0)
	const (
		writers  = 2
		hotKeys  = 2 // per writer
		ballast  = 6 // per writer: the holes a lifted key is moved into
		minLen   = 8 << 10
		maxLen   = 16 << 10
		readBack = 8 // per cycle
	)
	cycles := 400
	if testing.Short() {
		cycles = 60
	}
	key := func(k int) []byte { return []byte(fmt.Sprintf("hot-%d", k)) }
	tag := func(k int) byte { return byte(k + 1) }
	// check reports whether a read of key k was one whole value of k's,
	// or a miss where missOK.
	check := func(who string, k int, got []byte, hit, missOK bool, err error) bool {
		if b, ok := tagOf(got); err != nil || !hit && !missOK || hit && (!ok || b != tag(k)) {
			t.Errorf("%s: %s reads %d bytes of %#x (hit %v, whole %v, err %v), want all %#x", who, key(k), len(got), b, hit, ok, err, tag(k))
			return false
		}
		return true
	}
	var lifted [writers]atomic.Int32 // each writer's key now on top

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { // alaskad's maintenance loop above its trigger, compressed
		defer bg.Done()
		for !stopped() {
			backend.Svc.ConcurrentDefragPass(64 << 10)
			backend.Svc.DrainDeferred()
			runtime.Gosched()
		}
	}()
	for r := 0; r < 2; r++ {
		bg.Add(1)
		go func(r int) {
			defer bg.Done()
			sess := store.NewSession()
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(110 + r)))
			var buf []byte
			for !stopped() {
				sess.Safepoint()
				k := int(lifted[rng.Intn(writers)].Load())
				got, hit, err := store.GetIntoAt(sess, key(k), buf, time.Now())
				// A miss is a key between its Del and its Set.
				if !check(fmt.Sprintf("reader %d", r), k, got, hit, true, err) {
					return
				}
				buf = got[:0]
			}
		}(r)
	}

	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			sess := store.NewSession()
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(120 + w)))
			val := make([]byte, maxLen)
			var buf []byte
			failed := false
			set := func(key []byte, n int, tag byte) {
				sess.Safepoint()
				fillTag(val[:n], tag)
				if _, err := store.SetExBytesAt(sess, key, val[:n], SetAlways, time.Time{}, time.Now()); err != nil && !failed {
					failed = true
					t.Error(err)
				}
			}
			del := func(key []byte) {
				sess.Safepoint()
				if _, err := store.DelBytes(sess, key, time.Now()); err != nil && !failed {
					failed = true
					t.Error(err)
				}
			}
			ballastKey := func(b int) []byte { return []byte(fmt.Sprintf("ballast-%d-%d", w, b)) }
			spare := []byte(fmt.Sprintf("spare-%d", w))
			for c := 0; c < cycles && !failed; c++ {
				k, n := w*hotKeys+c%hotKeys, minLen+rng.Intn(maxLen-minLen)
				for b := 0; b < ballast; b++ {
					set(ballastKey(b), n, 0xff)
				}
				del(key(k))
				set(spare, n, 0xff)
				set(key(k), n, tag(k))
				lifted[w].Store(int32(k))
				del(spare)
				for b := 0; b < ballast; b++ {
					del(ballastKey(b))
				}
				for i := 0; i < readBack && !failed; i++ {
					sess.Safepoint()
					got, hit, err := store.GetIntoAt(sess, key(k), buf, time.Now())
					failed = !check(fmt.Sprintf("writer %d", w), k, got, hit, false, err)
					buf = got[:0]
				}
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	bg.Wait()

	m := backend.Svc.MetricsSnapshot()
	if m.ConcurrentPasses == 0 || m.MovedBytes == 0 || m.Truncated == 0 {
		t.Errorf("mover idle (%d concurrent passes, %d bytes moved, %d truncated); the test raced nothing", m.ConcurrentPasses, m.MovedBytes, m.Truncated)
	}
	t.Logf("%d concurrent passes, %d bytes moved, %d truncated, %d move aborts", m.ConcurrentPasses, m.MovedBytes, m.Truncated, m.MoveAborts)
}
