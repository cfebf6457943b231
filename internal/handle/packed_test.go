package handle

// Tests of the packed slot: the table against a naive reference, the
// size-bracketing rule under a free-and-republish race, and the edges of
// the word's fields.

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"alaska/internal/mem"
)

// refTable is the table as a map: whole Entry values keyed by ID, nothing
// packed, nothing shared. It is handed the IDs the real table chose (the
// free lists' order is not what is under test) and checks each is one it
// could have been given.
type refTable struct {
	live     map[uint32]Entry
	reserved []uint32 // taken, not yet published or given back
}

func (r *refTable) bad(id uint32, what string) error {
	return &ErrBadHandle{Make(id, 0), what + " of unallocated handle"}
}

func (r *refTable) free(id uint32) error {
	if _, ok := r.live[id]; !ok {
		return r.bad(id, "free")
	}
	delete(r.live, id)
	return nil
}

func (r *refTable) translate(h Handle) (mem.Addr, error) {
	e, ok := r.live[h.ID()]
	switch {
	case !ok:
		return 0, &ErrBadHandle{h, "translate of freed handle"}
	case e.Flags&FlagInvalid != 0:
		return 0, ErrHandleFault
	case uint64(h.Offset()) >= e.Size:
		return 0, &ErrBadHandle{h, "offset outside object"}
	}
	return e.Backing + mem.Addr(h.Offset()), nil
}

func (r *refTable) get(id uint32) (Entry, error) {
	e, ok := r.live[id]
	if !ok {
		return Entry{}, r.bad(id, "get")
	}
	return e, nil
}

// set edits a live entry in place, the way the table's mutators do.
func (r *refTable) set(id uint32, what string, fn func(*Entry)) error {
	e, ok := r.live[id]
	if !ok {
		return r.bad(id, what)
	}
	fn(&e)
	r.live[id] = e
	return nil
}

func (r *refTable) begin(id uint32) (Entry, error) {
	e, ok := r.live[id]
	switch {
	case !ok:
		return Entry{}, r.bad(id, "speculative move")
	case e.Flags&FlagInvalid != 0:
		return Entry{}, &ErrBadHandle{Make(id, 0), "entry already moving/invalid"}
	}
	pre := e
	pre.Pins = 0 // the snapshot carries no pin count
	e.Flags |= FlagInvalid
	r.live[id] = e
	return pre, nil
}

func (r *refTable) commit(id uint32, to mem.Addr) bool {
	e, ok := r.live[id]
	if !ok || e.Flags&FlagInvalid == 0 {
		return false
	}
	e.Backing, e.Flags = to, e.Flags&^FlagInvalid
	r.live[id] = e
	return true
}

func (r *refTable) revalidate(id uint32) (bool, error) {
	e, ok := r.live[id]
	if !ok {
		return false, r.bad(id, "revalidate")
	}
	if e.Flags&FlagInvalid == 0 {
		return false, nil
	}
	e.Flags &^= FlagInvalid
	r.live[id] = e
	return true, nil
}

func (r *refTable) addPin(id uint32, delta int32) error {
	e, ok := r.live[id]
	if !ok {
		return r.bad(id, "pin")
	}
	e.Pins += delta
	r.live[id] = e
	if e.Pins < 0 {
		return &ErrBadHandle{Make(id, 0), "pin count underflow"}
	}
	return nil
}

// sameErr compares errors by kind and, for an ID the table has issued at
// least once (so its slot exists), by the ErrBadHandle reason up to the
// numbers Translate formats into it.
func sameErr(got, want error, issued bool) bool {
	if got == nil || want == nil || errors.Is(want, ErrHandleFault) {
		return got == want
	}
	var g, w *ErrBadHandle
	if !errors.As(got, &g) || !errors.As(want, &w) {
		return false
	}
	if !issued || w.Reason == "offset outside object" {
		return true
	}
	return *g == *w
}

// TestPackedTableMatchesReference drives the table and the reference
// through the same seeded op sequences — every exported mutator and
// reader, on live, freed, reserved and never-issued IDs, recycled IDs
// included — and requires identical results and errors after every op,
// and an identical live set from ForEachLive at the end of every run.
func TestPackedTableMatchesReference(t *testing.T) {
	sizes := []uint64{1, 2, 64, 4096, 1<<32 - 1, MaxObjectSize}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		ref := &refTable{live: map[uint32]Entry{}}
		var pool []uint32 // every ID ever issued
		issued := map[uint32]bool{}
		pick := func() uint32 {
			if len(pool) == 0 || rng.Intn(16) == 0 {
				return uint32(rng.Intn(3000)) // mostly never issued
			}
			return pool[rng.Intn(len(pool))]
		}
		backing := func() mem.Addr {
			if rng.Intn(8) == 0 {
				return mem.AddrLimit - 1
			}
			return mem.Addr(rng.Int63n(int64(mem.AddrLimit)))
		}
		for op := 0; op < 6000; op++ {
			id := pick()
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d op %d id %d: "+format, append([]any{seed, op, id}, args...)...)
			}
			switch k := rng.Intn(16); k {
			case 0, 1, 2:
				size := sizes[rng.Intn(len(sizes))]
				if rng.Intn(20) == 0 {
					size = MaxObjectSize + 1 + uint64(rng.Intn(9))
				}
				nid, err := tb.Reserve(size)
				if (err != nil) != (size > MaxObjectSize) {
					fail("Reserve(%d) = %v", size, err)
				}
				if err != nil {
					continue
				}
				if _, live := ref.live[nid]; live || slices.Contains(ref.reserved, nid) {
					fail("Reserve handed out %d, which is in use", nid)
				}
				if !issued[nid] {
					issued[nid] = true
					pool = append(pool, nid)
				}
				if rng.Intn(6) == 0 {
					ref.reserved = append(ref.reserved, nid) // case 3 publishes it or gives it back
					continue
				}
				b := backing()
				tb.Publish(nid, b, size)
				ref.live[nid] = Entry{Backing: b, Size: size, Flags: FlagAllocated}
			case 3:
				if n := len(ref.reserved); n > 0 {
					rid := ref.reserved[n-1]
					ref.reserved = ref.reserved[:n-1]
					if rng.Intn(2) == 0 {
						tb.Unreserve(rid)
					} else {
						b := backing()
						tb.Publish(rid, b, 64)
						ref.live[rid] = Entry{Backing: b, Size: 64, Flags: FlagAllocated}
					}
				}
			case 4, 5:
				if slices.Contains(ref.reserved, id) {
					continue // a reservation goes back through Unreserve
				}
				if got, want := tb.Free(id), ref.free(id); !sameErr(got, want, issued[id]) {
					fail("Free = %v, reference %v", got, want)
				}
			case 6:
				b := backing()
				got := tb.SetBacking(id, b)
				want := ref.set(id, "SetBacking", func(e *Entry) { e.Backing = b })
				if !sameErr(got, want, issued[id]) {
					fail("SetBacking = %v, reference %v", got, want)
				}
			case 7:
				inv := rng.Intn(2) == 0
				got := tb.SetInvalid(id, inv)
				want := ref.set(id, "SetInvalid", func(e *Entry) {
					e.Flags &^= FlagInvalid
					if inv {
						e.Flags |= FlagInvalid
					}
				})
				if !sameErr(got, want, issued[id]) {
					fail("SetInvalid = %v, reference %v", got, want)
				}
			case 8:
				got, gerr := tb.BeginSpeculativeMove(id)
				want, werr := ref.begin(id)
				if got != want || !sameErr(gerr, werr, issued[id]) {
					fail("Begin = %+v %v, reference %+v %v", got, gerr, want, werr)
				}
			case 9:
				b := backing()
				if got, want := tb.CommitSpeculativeMove(id, b), ref.commit(id, b); got != want {
					fail("Commit = %v, reference %v", got, want)
				}
			case 10:
				got, gerr := tb.Revalidate(id)
				want, werr := ref.revalidate(id)
				if got != want || !sameErr(gerr, werr, issued[id]) {
					fail("Revalidate = %v %v, reference %v %v", got, gerr, want, werr)
				}
			case 11:
				delta := int32(1 - 2*rng.Intn(2))
				if got, want := tb.AddPin(id, delta), ref.addPin(id, delta); !sameErr(got, want, issued[id]) {
					fail("AddPin(%d) = %v, reference %v", delta, got, want)
				}
			case 12, 13:
				got, gerr := tb.Get(id)
				want, werr := ref.get(id)
				if got != want || !sameErr(gerr, werr, issued[id]) {
					fail("Get = %+v %v, reference %+v %v", got, gerr, want, werr)
				}
			default:
				off := uint32(rng.Intn(130))
				if e, ok := ref.live[id]; ok && rng.Intn(2) == 0 {
					off = uint32(e.Size - uint64(rng.Intn(2))) // the last byte, or one past it
				}
				h := Make(id, off)
				got, gerr := tb.Translate(h)
				want, werr := ref.translate(h)
				if got != want || !sameErr(gerr, werr, issued[id]) {
					fail("Translate(off %d) = %#x %v, reference %#x %v", off, got, gerr, want, werr)
				}
			}
			if tb.Live() != len(ref.live) {
				t.Fatalf("seed %d op %d: Live = %d, reference %d", seed, op, tb.Live(), len(ref.live))
			}
		}
		seen := map[uint32]Entry{}
		tb.ForEachLive(func(id uint32, e Entry) { seen[id] = e })
		if len(seen) != len(ref.live) {
			t.Fatalf("seed %d: ForEachLive saw %d entries, reference holds %d", seed, len(seen), len(ref.live))
		}
		for id, want := range ref.live {
			if seen[id] != want {
				t.Fatalf("seed %d: ForEachLive(%d) = %+v, reference %+v", seed, id, seen[id], want)
			}
		}
	}
}

// TestTranslateNeverMixesPublications: translators hammer one ID while
// another goroutine frees and republishes it, alternating two (backing,
// size) pairs. The size lives beside the word, not in it, so only the
// second load of the word in slot.load keeps a reader from pairing one
// publication's address with the other's size. Every successful Translate
// and Get must return one of the two pairs whole. Mutation: delete the
// `if s.w.Load() != w { continue }` re-check in slot.load and this fails.
// Not gated on testing.Short: the per-push -race job is where it runs.
func TestTranslateNeverMixesPublications(t *testing.T) {
	type pair struct {
		backing mem.Addr
		size    uint64
	}
	// Offset 100 is inside the second object only: translating it can
	// succeed only against the second pair, at the second address.
	pairs := [2]pair{{0x10000, 64}, {0x2000000, 4096}}
	const off = 100
	tb := NewTable()
	id, err := tb.Alloc(pairs[0].backing, pairs[0].size)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if a, err := tb.Translate(Make(id, off)); err == nil && a != pairs[1].backing+off {
					t.Errorf("Translate(off %d) = %#x: one publication's address under the other's size", off, a)
					return
				}
				if e, err := tb.Get(id); err == nil && (pair{e.Backing, e.Size}) != pairs[0] && (pair{e.Backing, e.Size}) != pairs[1] {
					t.Errorf("Get = (%#x, %d): not a pair that was published", e.Backing, e.Size)
					return
				}
			}
		}()
	}
	for i := 1; i <= 50000 && !t.Failed(); i++ {
		if err := tb.Free(id); err != nil {
			t.Fatal(err)
		}
		// One allocator, LIFO free lists: the ID comes straight back.
		if nid, err := tb.Reserve(pairs[i&1].size); err != nil || nid != id {
			t.Fatalf("Reserve = %d, %v; want %d back", nid, err, id)
		}
		tb.Publish(id, pairs[i&1].backing, pairs[i&1].size)
	}
	stop.Store(true)
	wg.Wait()
}

// TestPackedFieldBoundaries walks the edges of the word: the smallest and
// the largest size, the highest address the 48-bit field holds, and the
// first one it does not — which mem.Space refuses to map, and which the
// table, should one arrive anyway, refuses loudly instead of masking.
func TestPackedFieldBoundaries(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 16 {
		t.Fatalf("slot is %d bytes, want 16", n)
	}
	tb := NewTable()
	top := mem.AddrLimit - 1
	for _, size := range []uint64{1, 1<<32 - 1, MaxObjectSize} {
		id, err := tb.Alloc(top, size)
		if err != nil {
			t.Fatal(err)
		}
		if e, err := tb.Get(id); err != nil || e.Backing != top || e.Size != size || e.Flags != FlagAllocated {
			t.Fatalf("size %d at %#x: Get = %+v, %v", size, top, e, err)
		}
		last := uint32(size - 1)
		if a, err := tb.Translate(Make(id, last)); err != nil || a != top+mem.Addr(last) {
			t.Fatalf("size %d: Translate(last byte) = %#x, %v", size, a, err)
		}
		if size < MaxObjectSize { // at 2^32 no 32-bit offset is out of bounds
			if _, err := tb.Translate(Make(id, last+1)); err == nil {
				t.Fatalf("size %d: offset %d translated", size, last+1)
			}
		}
		// The flags travel in the same word as the address and survive it.
		if err := tb.SetInvalid(id, true); err != nil {
			t.Fatal(err)
		}
		if e, _ := tb.Get(id); e.Backing != top || e.Size != size || e.Flags != FlagAllocated|FlagInvalid {
			t.Fatalf("size %d: invalid entry reads %+v", size, e)
		}
		if !tb.CommitSpeculativeMove(id, 0x1000) {
			t.Fatal("commit of an invalid entry refused")
		}
		if e, _ := tb.Get(id); e.Backing != 0x1000 || e.Size != size || e.Flags != FlagAllocated {
			t.Fatalf("size %d: committed entry reads %+v", size, e)
		}
	}

	id, err := tb.Alloc(0x1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s with a 2^48 backing did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("Alloc", func() { _, _ = tb.Alloc(mem.AddrLimit, 8) })
	mustPanic("SetBacking", func() { _ = tb.SetBacking(id, mem.AddrLimit) })
	mustPanic("CommitSpeculativeMove", func() { tb.CommitSpeculativeMove(id, mem.AddrLimit+0x1000) })
	if e, err := tb.Get(id); err != nil || e.Backing != 0x1000 {
		t.Fatalf("a refused address changed the entry: %+v, %v", e, err)
	}
}
