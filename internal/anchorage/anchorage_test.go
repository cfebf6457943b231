package anchorage

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"alaska/internal/handle"
	"alaska/internal/mem"
	"alaska/internal/rt"
)

func newAnchorageRuntime(t *testing.T, cfg Config) (*rt.Runtime, *Service, *mem.Space) {
	t.Helper()
	space := mem.NewSpace()
	svc := NewService(space, cfg)
	r, err := rt.New(space, svc)
	if err != nil {
		t.Fatal(err)
	}
	return r, svc, space
}

func TestAlignUpAndBins(t *testing.T) {
	cases := map[uint64]uint64{
		0: 16, 1: 16, 15: 16, 16: 16, 17: 32, 100: 112, 500: 512, 513: 528,
	}
	for in, want := range cases {
		if got := alignUp(in); got != want {
			t.Errorf("alignUp(%d) = %d, want %d", in, got, want)
		}
	}
	// Bin k holds sizes in [2^k, 2^(k+1)).
	for _, c := range []struct {
		size uint64
		want int
	}{{16, 4}, {31, 4}, {32, 5}, {100, 6}, {512, 9}, {1000, 9}} {
		if got := bin(c.size); got != c.want {
			t.Errorf("bin(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestExactSizeAllocationLimitsInternalFrag(t *testing.T) {
	// A 600-byte object must consume ~600 bytes of extent, not a 1024
	// power-of-two class — Anchorage bump-allocates exact (aligned) sizes.
	r, svc, _ := newAnchorageRuntime(t, DefaultConfig())
	for i := 0; i < 100; i++ {
		if _, err := r.Halloc(600); err != nil {
			t.Fatal(err)
		}
	}
	extent := svc.HeapExtent()
	if extent > 100*640 {
		t.Errorf("extent %d for 100x600B — internal fragmentation too high", extent)
	}
}

func TestAllocFreeReuse(t *testing.T) {
	r, svc, _ := newAnchorageRuntime(t, DefaultConfig())
	h1, err := r.Halloc(100)
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := r.Table.Get(h1.ID())
	if err := r.Hfree(h1); err != nil {
		t.Fatal(err)
	}
	// A same-size allocation reuses the freed block (free list consulted
	// before bumping).
	h2, err := r.Halloc(100)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := r.Table.Get(h2.ID())
	if e1.Backing != e2.Backing {
		t.Errorf("block not reused: %#x then %#x", e1.Backing, e2.Backing)
	}
	if svc.ActiveBytes() != 100 {
		t.Errorf("ActiveBytes = %d, want 100", svc.ActiveBytes())
	}
}

func TestWritesLandInBacking(t *testing.T) {
	r, _, space := newAnchorageRuntime(t, DefaultConfig())
	th := r.NewThread()
	h, _ := r.Halloc(64)
	a, unpin, err := th.Pin(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := space.WriteU64(a, 7); err != nil {
		t.Fatal(err)
	}
	unpin()
	v, _ := space.ReadU64(a)
	if v != 7 {
		t.Errorf("read %d", v)
	}
}

func TestOversizedObjectGetsDedicatedSubHeap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SubHeapSize = 64 * 1024
	r, svc, _ := newAnchorageRuntime(t, cfg)
	if _, err := r.Halloc(256 * 1024); err != nil {
		t.Fatal(err)
	}
	if n := len(svc.heaps); n != 1 {
		t.Errorf("sub-heaps = %d, want 1", n)
	}
	if svc.HeapExtent() < 256*1024 {
		t.Errorf("extent = %d", svc.HeapExtent())
	}
}

// The core defragmentation property: churn a heap into fragmentation,
// compact during a barrier, and observe RSS drop while contents survive.
func TestDefragReducesRSSPreservingContents(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SubHeapSize = 256 * 1024
	r, svc, space := newAnchorageRuntime(t, cfg)
	th := r.NewThread()

	rng := rand.New(rand.NewSource(42))
	var live []handle.Handle
	payload := func(h handle.Handle) uint64 { return uint64(h) * 2654435761 }

	// Fill ~4 MiB then free 80% at random to scatter holes.
	for i := 0; i < 8192; i++ {
		h, err := r.Halloc(512)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := th.Translate(h)
		if err := space.WriteU64(a, payload(h)); err != nil {
			t.Fatal(err)
		}
		live = append(live, h)
	}
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, h := range live[:len(live)*8/10] {
		if err := r.Hfree(h); err != nil {
			t.Fatal(err)
		}
	}
	live = live[len(live)*8/10:]

	rssBefore := space.RSS()
	fragBefore := svc.Fragmentation()
	if fragBefore < 2 {
		t.Fatalf("setup failed to fragment: frag=%v", fragBefore)
	}

	// Full compaction: repeated passes until quiescent.
	for i := 0; i < 64; i++ {
		var moved uint64
		r.Barrier(th, func(s *rt.BarrierScope) {
			moved = svc.DefragPass(s, 1<<30)
		})
		if moved == 0 {
			break
		}
	}

	if frag := svc.Fragmentation(); frag >= fragBefore {
		t.Errorf("fragmentation did not improve: %v -> %v", fragBefore, frag)
	}
	if rss := space.RSS(); rss >= rssBefore {
		t.Errorf("RSS did not drop: %d -> %d", rssBefore, rss)
	}
	// All surviving objects readable with intact contents through their
	// handles.
	for _, h := range live {
		a, err := th.Translate(h)
		if err != nil {
			t.Fatalf("translate after defrag: %v", err)
		}
		v, err := space.ReadU64(a)
		if err != nil {
			t.Fatal(err)
		}
		if v != payload(h) {
			t.Errorf("object %v corrupted after defrag: %d != %d", h, v, payload(h))
		}
	}
}

func TestDefragRespectsPins(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SubHeapSize = 64 * 1024
	r, svc, space := newAnchorageRuntime(t, cfg)
	th := r.NewThread()

	// Two sub-heaps worth of objects; pin one in the top sub-heap.
	var hs []handle.Handle
	for i := 0; i < 200; i++ {
		h, err := r.Halloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	pinTarget := hs[len(hs)-1]
	addr, unpin, err := th.Pin(pinTarget)
	if err != nil {
		t.Fatal(err)
	}
	if err := space.WriteU64(addr, 123); err != nil {
		t.Fatal(err)
	}
	// Free everything else to make the pinned object movable-if-unpinned.
	for _, h := range hs[:len(hs)-1] {
		if err := r.Hfree(h); err != nil {
			t.Fatal(err)
		}
	}
	r.Barrier(th, func(s *rt.BarrierScope) {
		svc.DefragPass(s, 1<<30)
	})
	// The pinned object must not have moved: its raw pointer still works.
	v, err := space.ReadU64(addr)
	if err != nil || v != 123 {
		t.Errorf("pinned object moved or corrupted: %d, %v", v, err)
	}
	after, _ := th.Translate(pinTarget)
	if after != addr {
		t.Errorf("pinned object relocated from %#x to %#x during pin", addr, after)
	}
	unpin()
}

func TestTruncateReturnsPages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SubHeapSize = 128 * 1024
	r, svc, space := newAnchorageRuntime(t, cfg)
	th := r.NewThread()
	var hs []handle.Handle
	for i := 0; i < 64; i++ {
		h, _ := r.Halloc(2048)
		a, _ := th.Translate(h)
		if err := space.WriteU64(a, 1); err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs[1:] { // keep only the bottom object
		if err := r.Hfree(h); err != nil {
			t.Fatal(err)
		}
	}
	rssBefore := space.RSS()
	r.Barrier(th, func(s *rt.BarrierScope) {
		svc.DefragPass(s, 1<<30)
	})
	if space.RSS() >= rssBefore {
		t.Errorf("truncation did not release pages: %d -> %d", rssBefore, space.RSS())
	}
	if svc.Truncated == 0 {
		t.Error("Truncated counter is zero")
	}
}

// controllerPasses are the relocation steps the controller tests run it
// with: the figures' barrier pass (no registered thread, so a nil
// initiator) and alaskad's pause-free one.
var controllerPasses = []struct {
	name    string
	pass    func(*rt.Runtime, *Service) Pass
	barrier bool
}{
	{"barrier", func(r *rt.Runtime, svc *Service) Pass { return BarrierPass(svc, r, nil) }, true},
	{"pause-free", func(_ *rt.Runtime, svc *Service) Pass { return ConcurrentPass(svc) }, false},
}

// checkPassKind fails t unless every pass svc ran was of the kind the leg
// installed, and at least one ran when want is set.
func checkPassKind(t *testing.T, svc *Service, barrier, want bool) {
	t.Helper()
	m := svc.MetricsSnapshot()
	ran, other := m.Passes, m.ConcurrentPasses
	if !barrier {
		ran, other = other, ran
	}
	if other != 0 {
		t.Errorf("%d passes of the kind the controller was not given (barrier passes %d, pause-free %d)", other, m.Passes, m.ConcurrentPasses)
	}
	if want && ran == 0 {
		t.Error("no defrag passes ran")
	}
	if !want && ran != 0 {
		t.Errorf("%d defrag passes ran on an unfragmented heap", ran)
	}
}

func TestControllerTriggersOnHighFragmentation(t *testing.T) {
	for _, tc := range controllerPasses {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SubHeapSize = 64 * 1024
			cfg.FragHigh = 1.5
			cfg.FragLow = 1.1
			cfg.Alpha = 0.05 // several passes to get back under F_lb
			r, svc, _ := newAnchorageRuntime(t, cfg)

			// Build fragmentation ~5x.
			var hs []handle.Handle
			for i := 0; i < 2000; i++ {
				h, err := r.Halloc(512)
				if err != nil {
					t.Fatal(err)
				}
				hs = append(hs, h)
			}
			for i, h := range hs {
				if i%5 != 0 {
					if err := r.Hfree(h); err != nil {
						t.Fatal(err)
					}
				}
			}
			if svc.Fragmentation() < cfg.FragHigh {
				t.Fatalf("setup frag %v below trigger", svc.Fragmentation())
			}

			// What each pass moved and left the heap at.
			var moved []uint64
			var frag []float64
			pass := tc.pass(r, svc)
			ctl := NewController(svc, cfg, func(budget uint64) (uint64, time.Duration) {
				n, took := pass(budget)
				moved, frag = append(moved, n), append(frag, svc.Fragmentation())
				return n, took
			})

			// A fixed 10 s window, so the duty cycle counts the waits
			// after the last pass as well as the sleeps between passes.
			now := time.Duration(0)
			var total time.Duration
			for i := 0; i < 100; i++ {
				ran := len(moved)
				total += ctl.Step(now)
				if k := len(moved) - 1; k == ran {
					// Passes continue until F_lb or a pass that moves nothing.
					done := moved[k] == 0 || frag[k] < cfg.FragLow
					if waiting := ctl.state == Waiting; waiting != done {
						t.Errorf("pass %d moved %d bytes to fragmentation %.3f (F_lb %.2f): controller waiting = %v",
							k, moved[k], frag[k], cfg.FragLow, waiting)
					}
				}
				now += 100 * time.Millisecond
			}
			if svc.Fragmentation() > cfg.FragHigh {
				t.Errorf("controller failed to reduce fragmentation: %v", svc.Fragmentation())
			}
			if ctl.state != Waiting {
				t.Error("controller still defragmenting at the end of the window")
			}
			if total == 0 {
				t.Error("no pass time recorded")
			}
			checkPassKind(t, svc, tc.barrier, true)
			// Overhead bound: the fraction of time in passes must not
			// exceed O_ub by much over the run (allow slack for the first
			// mispredicted pass, §5.5). The barrier pass's T_defrag is
			// simulated; the pause-free pass's is measured wall time.
			frac := float64(total) / float64(now)
			if frac > cfg.OverheadHigh*3 {
				t.Errorf("duty cycle %.3f grossly exceeds O_ub %.3f", frac, cfg.OverheadHigh)
			}
			t.Logf("%d passes, moved %v, duty cycle %.4f, fragmentation %.3f", len(moved), moved, frac, svc.Fragmentation())
		})
	}
}

func TestControllerStaysIdleWhenUnfragmented(t *testing.T) {
	for _, tc := range controllerPasses {
		t.Run(tc.name, func(t *testing.T) {
			r, svc, _ := newAnchorageRuntime(t, DefaultConfig())
			ctl := NewController(svc, svc.Config(), tc.pass(r, svc))
			for i := 0; i < 100; i++ {
				if _, err := r.Halloc(256); err != nil {
					t.Fatal(err)
				}
			}
			now := time.Duration(0)
			for i := 0; i < 20; i++ {
				if p := ctl.Step(now); p != 0 {
					t.Fatalf("controller ran a pass on an unfragmented heap at step %d", i)
				}
				now += 500 * time.Millisecond
			}
			if ctl.state != Waiting {
				t.Error("controller left waiting state")
			}
			checkPassKind(t, svc, tc.barrier, false)
		})
	}
}

// Property: random alloc/free/defrag interleavings never corrupt live
// objects and never let accounting go negative.
func TestDefragIntegrityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.SubHeapSize = 32 * 1024
		space := mem.NewSpace()
		svc := NewService(space, cfg)
		r, err := rt.New(space, svc)
		if err != nil {
			return false
		}
		th := r.NewThread()
		type obj struct {
			h   handle.Handle
			tag uint64
		}
		var live []obj
		for step := 0; step < 300; step++ {
			switch {
			case len(live) > 0 && rng.Intn(10) < 4:
				k := rng.Intn(len(live))
				if r.Hfree(live[k].h) != nil {
					return false
				}
				live = append(live[:k], live[k+1:]...)
			case rng.Intn(20) == 0:
				r.Barrier(th, func(s *rt.BarrierScope) {
					svc.DefragPass(s, uint64(rng.Intn(1<<20)))
				})
			default:
				size := uint64(16 + rng.Intn(2000))
				h, err := r.Halloc(size)
				if err != nil {
					return false
				}
				a, err := th.Translate(h)
				if err != nil {
					return false
				}
				tag := rng.Uint64()
				if space.WriteU64(a, tag) != nil {
					return false
				}
				live = append(live, obj{h, tag})
			}
		}
		for _, o := range live {
			a, err := th.Translate(o.h)
			if err != nil {
				return false
			}
			v, err := space.ReadU64(a)
			if err != nil || v != o.tag {
				return false
			}
		}
		var sum uint64
		for _, o := range live {
			n, err := r.SizeOf(o.h)
			if err != nil {
				return false
			}
			sum += n
		}
		return svc.ActiveBytes() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
