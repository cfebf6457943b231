package handle

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"alaska/internal/mem"
)

func TestEncodingLayout(t *testing.T) {
	h := Make(0x7fffffff, 0xffffffff)
	if !h.IsHandle() {
		t.Fatal("Make produced a non-handle word")
	}
	if h.ID() != 0x7fffffff {
		t.Errorf("ID = %#x, want 0x7fffffff", h.ID())
	}
	if h.Offset() != 0xffffffff {
		t.Errorf("Offset = %#x, want 0xffffffff", h.Offset())
	}
	if uint64(h) != 0xffffffffffffffff {
		t.Errorf("word = %#x, want all ones", uint64(h))
	}
}

func TestPointerIsNotHandle(t *testing.T) {
	p := Handle(0x0000_7fff_1234_0000)
	if p.IsHandle() {
		t.Error("address with clear top bit classified as handle")
	}
}

func TestEncodingRoundTripProperty(t *testing.T) {
	f := func(id uint32, off uint32) bool {
		id &= MaxID
		h := Make(id, off)
		return h.IsHandle() && h.ID() == id && h.Offset() == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddPreservesIdentity(t *testing.T) {
	h := Make(42, 100)
	h2 := h.Add(28)
	if h2.ID() != 42 || h2.Offset() != 128 {
		t.Errorf("Add(28) = %v", h2)
	}
	h3 := h2.Add(-128)
	if h3.ID() != 42 || h3.Offset() != 0 {
		t.Errorf("Add(-128) = %v", h3)
	}
}

func TestAddArithmeticProperty(t *testing.T) {
	f := func(id uint32, off uint32, d1, d2 int32) bool {
		id &= MaxID
		h := Make(id, off)
		// Associativity of displacement and identity preservation.
		a := h.Add(int64(d1)).Add(int64(d2))
		b := h.Add(int64(d1) + int64(d2))
		return a == b && a.ID() == id && a.IsHandle()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableAllocFreeReuse(t *testing.T) {
	tb := NewTable()
	id1, err := tb.Alloc(0x1000, 64)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := tb.Alloc(0x2000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("duplicate IDs")
	}
	if id1 != 0 || id2 != 1 {
		t.Errorf("bump allocation gave %d,%d, want 0,1", id1, id2)
	}
	if err := tb.Free(id1); err != nil {
		t.Fatal(err)
	}
	// Free list consulted before bump (§4.2.1).
	id3, err := tb.Alloc(0x3000, 32)
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id1 {
		t.Errorf("recycled ID = %d, want %d", id3, id1)
	}
	if tb.Extent() != 2 {
		t.Errorf("Extent = %d, want 2", tb.Extent())
	}
}

// TestReservePublishUnreserve: a reserved ID is invisible — not live, not
// translatable, not iterated, not freeable — until Publish installs its one
// entry; Unreserve hands it to the next allocation without it ever having
// been live.
func TestReservePublishUnreserve(t *testing.T) {
	tb := NewTable()
	id, err := tb.Reserve(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Translate(Make(id, 0)); err == nil {
		t.Error("reserved ID translates")
	}
	if err := tb.Free(id); err == nil {
		t.Error("Free of a reserved, unpublished ID succeeded")
	}
	tb.ForEachLive(func(got uint32, _ Entry) { t.Errorf("ForEachLive visited reserved ID %d", got) })
	if tb.Live() != 0 {
		t.Errorf("Live = %d with only a reservation, want 0", tb.Live())
	}
	tb.Unreserve(id)
	id2, err := tb.Reserve(32)
	if err != nil || id2 != id {
		t.Fatalf("Reserve after Unreserve = %d, %v; want %d back", id2, err, id)
	}
	tb.Publish(id2, 0x5000, 32)
	if a, err := tb.Translate(Make(id2, 8)); err != nil || a != 0x5008 {
		t.Errorf("Translate after Publish = %#x, %v; want 0x5008", a, err)
	}
	if tb.Live() != 1 || tb.Extent() != 1 {
		t.Errorf("Live/Extent = %d/%d, want 1/1", tb.Live(), tb.Extent())
	}
	if _, err := tb.Reserve(MaxObjectSize + 1); err == nil {
		t.Error("Reserve of an oversize object succeeded")
	}
}

func TestTranslate(t *testing.T) {
	tb := NewTable()
	id, err := tb.Alloc(0x4000, 256)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tb.Translate(Make(id, 16))
	if err != nil {
		t.Fatal(err)
	}
	if a != 0x4010 {
		t.Errorf("Translate = %#x, want 0x4010", a)
	}
	// Raw pointers pass through.
	a, err = tb.Translate(Handle(0x9999))
	if err != nil || a != 0x9999 {
		t.Errorf("pointer passthrough = %#x, %v", a, err)
	}
}

func TestTranslateErrors(t *testing.T) {
	tb := NewTable()
	id, _ := tb.Alloc(0x4000, 64)
	var bad *ErrBadHandle
	if _, err := tb.Translate(Make(id+1, 0)); !errors.As(err, &bad) {
		t.Errorf("out-of-range translate = %v", err)
	}
	if _, err := tb.Translate(Make(id, 64)); !errors.As(err, &bad) {
		t.Errorf("out-of-bounds offset translate = %v, want error", err)
	}
	if err := tb.Free(id); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Translate(Make(id, 0)); !errors.As(err, &bad) {
		t.Errorf("freed translate = %v, want error", err)
	}
	if err := tb.Free(id); !errors.As(err, &bad) {
		t.Errorf("double free = %v, want error", err)
	}
}

func TestSetBackingMovesObject(t *testing.T) {
	tb := NewTable()
	id, _ := tb.Alloc(0x4000, 64)
	if err := tb.SetBacking(id, 0x8000); err != nil {
		t.Fatal(err)
	}
	a, err := tb.Translate(Make(id, 8))
	if err != nil || a != 0x8008 {
		t.Errorf("after move Translate = %#x, %v; want 0x8008", a, err)
	}
}

func TestHandleFaultFlag(t *testing.T) {
	tb := NewTable()
	id, _ := tb.Alloc(0x4000, 64)
	if err := tb.SetInvalid(id, true); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Translate(Make(id, 0)); !errors.Is(err, ErrHandleFault) {
		t.Errorf("invalid translate = %v, want ErrHandleFault", err)
	}
	if err := tb.SetInvalid(id, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Translate(Make(id, 0)); err != nil {
		t.Errorf("revalidated translate = %v", err)
	}
}

// TestBeginMoveTwiceFails: an entry has one speculative mover at a time.
// A second begin on a moving entry fails; once a revalidation has aborted
// the first move, its late commit fails too, and the entry can be moved
// afresh.
func TestBeginMoveTwiceFails(t *testing.T) {
	tb := NewTable()
	id, _ := tb.Alloc(0x4000, 32)
	if _, err := tb.BeginSpeculativeMove(id); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.BeginSpeculativeMove(id); err == nil {
		t.Error("second BeginSpeculativeMove succeeded")
	}
	if _, err := tb.Revalidate(id); err != nil {
		t.Fatal(err)
	}
	if tb.CommitSpeculativeMove(id, 0x8000) {
		t.Error("the aborted move committed")
	}
	if _, err := tb.BeginSpeculativeMove(id); err != nil {
		t.Fatalf("begin after the abort: %v", err)
	}
	if !tb.CommitSpeculativeMove(id, 0xc000) {
		t.Error("a fresh move of the revalidated entry did not commit")
	}
	if a, err := tb.Translate(Make(id, 0)); err != nil || a != 0xc000 {
		t.Errorf("Translate = %#x, %v; want 0xc000", a, err)
	}
}

// TestRevalidateIdempotent: the first revalidation of a moving entry
// performs the transition (aborting the move), a second is a no-op, and
// the entry keeps its original backing — the aborted move cannot commit.
func TestRevalidateIdempotent(t *testing.T) {
	tb := NewTable()
	id, _ := tb.Alloc(0x4000, 32)
	if _, err := tb.BeginSpeculativeMove(id); err != nil {
		t.Fatal(err)
	}
	did, err := tb.Revalidate(id)
	if err != nil || !did {
		t.Fatalf("first Revalidate = %v, %v", did, err)
	}
	did, err = tb.Revalidate(id)
	if err != nil || did {
		t.Fatalf("second Revalidate = %v, %v; want no-op", did, err)
	}
	if tb.CommitSpeculativeMove(id, 0x8000) {
		t.Error("commit succeeded on a revalidated entry")
	}
	if a, err := tb.Translate(Make(id, 8)); err != nil || a != 0x4008 {
		t.Errorf("Translate = %#x, %v; want the original 0x4008", a, err)
	}
}

func TestOversizeAllocRejected(t *testing.T) {
	tb := NewTable()
	if _, err := tb.Alloc(0x1000, MaxObjectSize+1); err == nil {
		t.Error("alloc beyond 4 GiB succeeded")
	}
}

func TestPinCounts(t *testing.T) {
	tb := NewTable()
	id, _ := tb.Alloc(0x1000, 8)
	if err := tb.AddPin(id, 1); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddPin(id, 1); err != nil {
		t.Fatal(err)
	}
	if got := tb.PinCount(id); got != 2 {
		t.Errorf("PinCount = %d, want 2", got)
	}
	if err := tb.AddPin(id, -2); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddPin(id, -1); err == nil {
		t.Error("pin underflow not detected")
	}
}

func TestLiveAndForEach(t *testing.T) {
	tb := NewTable()
	var ids []uint32
	for i := 0; i < 10; i++ {
		id, err := tb.Alloc(mem.Addr(0x1000+i*64), 64)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids[:5] {
		if err := tb.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Live() != 5 {
		t.Errorf("Live = %d, want 5", tb.Live())
	}
	n := 0
	tb.ForEachLive(func(id uint32, e Entry) { n++ })
	if n != 5 {
		t.Errorf("ForEachLive visited %d, want 5", n)
	}
}

// Property: a random interleaving of allocs and frees never hands out the
// same ID to two live objects, and translation of a live handle always
// resolves to its own backing.
func TestTableAliasingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		type obj struct {
			id      uint32
			backing mem.Addr
		}
		var live []obj
		for i := 0; i < 300; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(live))
				if tb.Free(live[k].id) != nil {
					return false
				}
				live = append(live[:k], live[k+1:]...)
			} else {
				backing := mem.Addr(0x10000 + uint64(i)*128)
				id, err := tb.Alloc(backing, 128)
				if err != nil {
					return false
				}
				for _, o := range live {
					if o.id == id {
						return false // duplicate live ID
					}
				}
				live = append(live, obj{id, backing})
			}
		}
		for _, o := range live {
			a, err := tb.Translate(Make(o.id, 7))
			if err != nil || a != o.backing+7 {
				return false
			}
		}
		return tb.Live() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
