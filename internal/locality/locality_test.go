package locality

import (
	"math/rand"
	"testing"

	"alaska/internal/anchorage"
	"alaska/internal/handle"
	"alaska/internal/mem"
	"alaska/internal/rt"
)

func newLocalityRuntime(t *testing.T) (*rt.Runtime, *mem.Space) {
	t.Helper()
	space := mem.NewSpace()
	r, err := rt.New(space, anchorage.NewService(space, anchorage.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	return r, space
}

func TestTrackerPlanFirstTouchOrder(t *testing.T) {
	tr := NewTracker(100)
	for _, id := range []uint32{5, 3, 5, 9, 3, 5} {
		tr.Touch(id)
	}
	plan := tr.plan()
	want := []uint32{5, 3, 9}
	if len(plan) != len(want) {
		t.Fatalf("plan = %v", plan)
	}
	for i := range want {
		if plan[i] != want[i] {
			t.Errorf("plan[%d] = %d, want %d", i, plan[i], want[i])
		}
	}
}

func TestTrackerBounded(t *testing.T) {
	tr := NewTracker(10)
	for i := 0; i < 100; i++ {
		tr.Touch(uint32(i))
	}
	if got := len(tr.plan()); got > 10 {
		t.Errorf("trace grew to %d despite limit 10", got)
	}
}

// The headline behaviour: a traversal that ping-pongs across the heap
// becomes (near-)sequential after optimization, with page switches
// dropping dramatically, while contents survive.
func TestOptimizeImprovesLocality(t *testing.T) {
	r, space := newLocalityRuntime(t)
	th := r.NewThread()

	// Allocate many objects, then build a traversal order that jumps all
	// over the heap (reversed + strided).
	const n = 512
	hs := make([]handle.Handle, n)
	for i := range hs {
		h, err := r.Halloc(64)
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
		a, _ := th.Translate(h)
		if err := space.WriteU64(a, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(4))
	order := make([]uint32, n)
	for i, k := range rng.Perm(n) {
		order[i] = hs[k].ID()
	}

	before, err := PageSwitches(r, order)
	if err != nil {
		t.Fatal(err)
	}

	tracker := NewTracker(0)
	for _, id := range order {
		tracker.Touch(id)
	}
	opt, err := NewOptimizer(r, tracker, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var moved int
	r.Barrier(th, func(scope *rt.BarrierScope) {
		moved = opt.Optimize(scope)
	})
	if moved == 0 {
		t.Fatal("optimizer moved nothing")
	}

	after, err := PageSwitches(r, order)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before/4 {
		t.Errorf("page switches %d -> %d; want a large locality win", before, after)
	}
	// Contents intact, traversal order unchanged semantically.
	for i, h := range hs {
		a, err := th.Translate(h)
		if err != nil {
			t.Fatal(err)
		}
		v, err := space.ReadU64(a)
		if err != nil || v != uint64(i) {
			t.Errorf("object %d corrupted after clustering: %d, %v", i, v, err)
		}
	}
}

func TestOptimizeRespectsPins(t *testing.T) {
	r, space := newLocalityRuntime(t)
	th := r.NewThread()
	h, _ := r.Halloc(64)
	addr, unpin, err := th.Pin(h)
	if err != nil {
		t.Fatal(err)
	}
	defer unpin()
	if err := space.WriteU64(addr, 11); err != nil {
		t.Fatal(err)
	}
	tracker := NewTracker(0)
	tracker.Touch(h.ID())
	opt, err := NewOptimizer(r, tracker, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	r.Barrier(th, func(scope *rt.BarrierScope) {
		opt.Optimize(scope)
	})
	// The pinned object must not have moved.
	v, err := space.ReadU64(addr)
	if err != nil || v != 11 {
		t.Errorf("pinned object moved: %d, %v", v, err)
	}
}

func TestOptimizeSkipsFreedObjects(t *testing.T) {
	r, _ := newLocalityRuntime(t)
	th := r.NewThread()
	h, _ := r.Halloc(64)
	tracker := NewTracker(0)
	tracker.Touch(h.ID())
	if err := r.Hfree(h); err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimizer(r, tracker, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	r.Barrier(th, func(scope *rt.BarrierScope) {
		if got := opt.Optimize(scope); got != 0 {
			t.Errorf("moved %d freed objects", got)
		}
	})
}

func TestArenaCapacityRespected(t *testing.T) {
	r, _ := newLocalityRuntime(t)
	th := r.NewThread()
	tracker := NewTracker(0)
	var hs []handle.Handle
	for i := 0; i < 16; i++ {
		h, _ := r.Halloc(1024)
		hs = append(hs, h)
		tracker.Touch(h.ID())
	}
	// Arena fits only a few objects.
	opt, err := NewOptimizer(r, tracker, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var moved int
	r.Barrier(th, func(scope *rt.BarrierScope) {
		moved = opt.Optimize(scope)
	})
	if moved > 4 {
		t.Errorf("moved %d objects into a 4-object arena", moved)
	}
	for _, h := range hs {
		if _, err := th.Translate(h); err != nil {
			t.Errorf("object unreachable after partial optimize: %v", err)
		}
	}
}
