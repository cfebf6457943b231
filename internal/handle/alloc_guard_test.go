//go:build !race

package handle

// Allocation guards for the packed table: every mutation is a CAS on the
// slot's word, so neither the calls one ConcurrentDefragPass move makes on
// the table — committed or aborted by an accessor — nor a free-and-
// reallocate of a recycled ID may allocate (each built a fresh immutable
// Entry, two per move, before the slot became the entry). (Excluded under
// -race: the detector's instrumentation allocates.)

import "testing"

func TestAllocFreeTableMutations(t *testing.T) {
	tb := NewTable()
	id, err := tb.Alloc(0x10000, 512)
	if err != nil {
		t.Fatal(err)
	}
	h := Make(id, 0)
	move := func(accessor bool) {
		if tb.PinCount(id) > 0 {
			t.Fatal("pinned")
		}
		e, err := tb.BeginSpeculativeMove(id)
		if err != nil || tb.PinCount(id) > 0 {
			t.Fatalf("begin: %+v, %v", e, err)
		}
		if accessor {
			if _, err := tb.Translate(h); err != ErrHandleFault {
				t.Fatalf("translate of a moving entry = %v", err)
			}
			if ok, err := tb.Revalidate(id); !ok || err != nil {
				t.Fatalf("revalidate = %v, %v", ok, err)
			}
		}
		if tb.CommitSpeculativeMove(id, e.Backing^0x1000) == accessor {
			t.Fatalf("commit = %v with accessor = %v", !accessor, accessor)
		}
		if a, err := tb.Translate(h); err != nil || (a != e.Backing) != !accessor {
			t.Fatalf("after the move: %#x, %v (was %#x, accessor = %v)", a, err, e.Backing, accessor)
		}
	}
	for name, fn := range map[string]func(){
		"committed move": func() { move(false) },
		"aborted move":   func() { move(true) },
		"SetBacking + SetInvalid": func() {
			if tb.SetBacking(id, 0x20000) != nil || tb.SetInvalid(id, true) != nil || tb.SetInvalid(id, false) != nil {
				t.Fatal("mutator failed")
			}
		},
		"Free + Alloc of the recycled ID": func() {
			if err := tb.Free(id); err != nil {
				t.Fatal(err)
			}
			if nid, err := tb.Alloc(0x10000, 512); err != nil || nid != id {
				t.Fatalf("Alloc = %d, %v", nid, err)
			}
		},
	} {
		if avg := testing.AllocsPerRun(1000, fn); avg != 0 {
			t.Errorf("%s allocates %.2f allocs/op in the table, want 0", name, avg)
		}
	}
}
