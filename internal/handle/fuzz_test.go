package handle

import (
	"errors"
	"testing"

	"alaska/internal/mem"
)

// FuzzHandleRoundTrip fuzzes the handle word encoding of Figure 4: for any
// (id, offset, delta), Make must round-trip through ID/Offset, keep the
// top bit set, and Add must displace only the offset field — including at
// the TopBit/MaxID boundaries and across offset overflow, where wraparound
// must stay confined to the low 32 bits (an out-of-contract offset per
// §3.2, but one that must never corrupt the object's identity). The same
// inputs, read as (size = id+1, backing = delta mod 2^48), then go through
// the packed table entry: what Publish packed, Get and Translate unpack.
func FuzzHandleRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), int64(0))
	f.Add(uint32(MaxID), uint32(0xffffffff), int64(1))          // all fields saturated, offset wraps
	f.Add(uint32(MaxID+1), uint32(7), int64(-8))                // id beyond MaxID must be masked
	f.Add(uint32(1), uint32(0), int64(-1))                      // offset underflow
	f.Add(uint32(42), uint32(0x7fffffff), int64(1<<32))         // delta wider than the offset field
	f.Add(uint32(0x40000000), uint32(0x80000000), int64(1<<31)) // high bits everywhere
	f.Add(uint32(0xffffffff), uint32(0xffffffff), int64(-1))    // size 2^32 at backing 2^48-1, last byte
	f.Add(uint32(0xfffffffe), uint32(0xffffffff), int64(1<<47)) // size 2^32-1: the last offset is one past it
	f.Add(uint32(0), uint32(0), int64(1<<48))                   // size 1 at backing 0 (2^48 wraps)
	f.Fuzz(func(t *testing.T, id uint32, off uint32, delta int64) {
		masked := id & MaxID
		h := Make(id, off)
		if !h.IsHandle() {
			t.Fatalf("Make(%#x, %#x) lost TopBit", id, off)
		}
		if h.ID() != masked {
			t.Fatalf("ID() = %#x, want %#x", h.ID(), masked)
		}
		if h.Offset() != off {
			t.Fatalf("Offset() = %#x, want %#x", h.Offset(), off)
		}
		// Add displaces the offset with 32-bit wraparound and never touches
		// identity or the handle bit.
		d := h.Add(delta)
		if !d.IsHandle() || d.ID() != masked {
			t.Fatalf("Add(%d) corrupted identity: %v -> %v", delta, h, d)
		}
		if want := uint32(int64(off) + delta); d.Offset() != want {
			t.Fatalf("Add(%d).Offset() = %#x, want %#x", delta, d.Offset(), want)
		}
		// Displacing back must restore the original word exactly.
		if back := d.Add(-delta); back != h {
			t.Fatalf("Add(%d).Add(%d) = %v, want %v", delta, -delta, back, h)
		}
		// A raw pointer (TopBit clear) must never classify as a handle.
		if p := Handle(uint64(h) &^ uint64(TopBit)); p.IsHandle() {
			t.Fatalf("cleared-TopBit word %#x still a handle", uint64(p))
		}
		size, backing := uint64(id)+1, mem.Addr(uint64(delta))%mem.AddrLimit
		tb := NewTable()
		tid, err := tb.Alloc(backing, size)
		if err != nil {
			t.Fatal(err)
		}
		if e, err := tb.Get(tid); err != nil || e.Backing != backing || e.Size != size || e.Flags != FlagAllocated {
			t.Fatalf("Alloc(%#x, %d) reads back %+v, %v", backing, size, e, err)
		}
		a, err := tb.Translate(Make(tid, off))
		if uint64(off) < size {
			if err != nil || a != backing+mem.Addr(off) {
				t.Fatalf("Translate(off %d of %d at %#x) = %#x, %v", off, size, backing, a, err)
			}
		} else if bad := (*ErrBadHandle)(nil); !errors.As(err, &bad) {
			t.Fatalf("Translate(off %d of %d) = %#x, %v; want ErrBadHandle", off, size, a, err)
		}
	})
}
