//go:build !race

package rt

// Allocation guard for the scoped pin: Pin + unpin is what every handle
// access of the kv store pays, so it must cost the pin-set store and the
// table load of Figure 7 and no allocator work — in both pin modes, and
// for a pin nested under another (quickstart's shape), where the inner
// frame sits above the outer one in the thread's slot arena. (Excluded
// under -race: the detector's instrumentation allocates.)

import "testing"

func TestAllocFreePinUnpin(t *testing.T) {
	for name, mode := range map[string]PinMode{"stack": StackPins, "counted": CountedPins} {
		t.Run(name, func(t *testing.T) {
			r, _ := newTestRuntime(t, WithPinMode(mode))
			th := r.NewThread()
			outer, _ := r.Halloc(64)
			inner, _ := r.Halloc(64)
			pinBoth := func() {
				_, unpinOuter, err := th.Pin(outer)
				if err != nil {
					t.Fatal(err)
				}
				_, unpinInner, err := th.Pin(inner)
				if err != nil {
					t.Fatal(err)
				}
				unpinInner()
				unpinOuter()
			}
			pinBoth() // grow the arena to its steady-state depth
			if avg := testing.AllocsPerRun(1000, pinBoth); avg != 0 {
				t.Fatalf("nested Pin + unpin allocates %.2f allocs/op, want 0", avg)
			}
			if d := th.FrameDepth(); d != 0 {
				t.Fatalf("FrameDepth = %d after balanced pins, want 0", d)
			}
			if mode == CountedPins {
				if n := r.Table.PinCount(outer.ID()) + r.Table.PinCount(inner.ID()); n != 0 {
					t.Fatalf("pin counts sum to %d after balanced pins, want 0", n)
				}
			}
		})
	}
}
