package swap

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"alaska/internal/anchorage"
	"alaska/internal/handle"
	"alaska/internal/mem"
	"alaska/internal/rt"
)

func newSwapRuntime(t *testing.T, compress bool) (*rt.Runtime, *Swapper, *mem.Space) {
	t.Helper()
	space := mem.NewSpace()
	svc := anchorage.NewService(space, anchorage.DefaultConfig())
	var sw *Swapper
	r, err := rt.New(space, svc, rt.WithFaultHandler(func(r *rt.Runtime, id uint32) error {
		return sw.SwapIn(id)
	}))
	if err != nil {
		t.Fatal(err)
	}
	sw = New(r, NewMemStore(compress))
	return r, sw, space
}

func TestMemStoreRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		m := NewMemStore(compress)
		data := bytes.Repeat([]byte("abcdef"), 100)
		if err := m.Put(7, data); err != nil {
			t.Fatal(err)
		}
		got, err := m.Get(7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("compress=%v: round trip mismatch", compress)
		}
		if compress && m.Bytes() >= uint64(len(data)) {
			t.Errorf("compressible data did not shrink: %d >= %d", m.Bytes(), len(data))
		}
		m.Delete(7)
		if m.Bytes() != 0 {
			t.Errorf("Bytes after delete = %d", m.Bytes())
		}
		if _, err := m.Get(7); err == nil {
			t.Error("Get after delete succeeded")
		}
	}
}

func TestSwapOutAndFaultBackIn(t *testing.T) {
	r, sw, space := newSwapRuntime(t, true)
	th := r.NewThread()
	h, err := r.Halloc(256)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := th.Translate(h)
	payload := bytes.Repeat([]byte{0xAB}, 256)
	if err := space.Write(addr, payload); err != nil {
		t.Fatal(err)
	}

	r.Barrier(th, func(scope *rt.BarrierScope) {
		if err := sw.SwapOut(scope, h.ID()); err != nil {
			t.Errorf("SwapOut: %v", err)
		}
	})
	if _, ok := sw.sizes[h.ID()]; !ok {
		t.Fatal("object not marked swapped")
	}
	// The next translation faults and transparently swaps back in.
	newAddr, err := th.Translate(h)
	if err != nil {
		t.Fatalf("translate after swap: %v", err)
	}
	got := make([]byte, 256)
	if err := space.Read(newAddr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("contents corrupted across swap")
	}
	if _, ok := sw.sizes[h.ID()]; ok {
		t.Error("object still marked swapped after fault")
	}
	if sw.SwappedOut != 1 || sw.SwappedIn != 1 {
		t.Errorf("stats: out=%d in=%d", sw.SwappedOut, sw.SwappedIn)
	}
	if r.Stats().Faults.Load() != 1 {
		t.Errorf("runtime faults = %d, want 1", r.Stats().Faults.Load())
	}
}

func TestSwapOutRefusesPinned(t *testing.T) {
	r, sw, _ := newSwapRuntime(t, false)
	th := r.NewThread()
	h, _ := r.Halloc(64)
	_, unpin, err := th.Pin(h)
	if err != nil {
		t.Fatal(err)
	}
	defer unpin()
	r.Barrier(th, func(scope *rt.BarrierScope) {
		if err := sw.SwapOut(scope, h.ID()); err == nil {
			t.Error("SwapOut of pinned object succeeded")
		}
	})
}

func TestDoubleSwapOutRejected(t *testing.T) {
	r, sw, _ := newSwapRuntime(t, false)
	th := r.NewThread()
	h, _ := r.Halloc(64)
	r.Barrier(th, func(scope *rt.BarrierScope) {
		if err := sw.SwapOut(scope, h.ID()); err != nil {
			t.Errorf("first SwapOut: %v", err)
		}
		if err := sw.SwapOut(scope, h.ID()); err == nil {
			t.Error("second SwapOut succeeded")
		}
	})
}

func TestSwapInOfUnswappedFails(t *testing.T) {
	r, sw, _ := newSwapRuntime(t, false)
	_ = r
	if err := sw.SwapIn(12345); err == nil {
		t.Error("SwapIn of never-swapped object succeeded")
	}
}

// Swapping out cold objects frees backing memory (the whole point).
func TestSwapOutReducesActiveBytes(t *testing.T) {
	r, sw, _ := newSwapRuntime(t, true)
	th := r.NewThread()
	var hs []handle.Handle
	for i := 0; i < 64; i++ {
		h, err := r.Halloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	before := r.Service().ActiveBytes()
	r.Barrier(th, func(scope *rt.BarrierScope) {
		for _, h := range hs[:32] {
			if err := sw.SwapOut(scope, h.ID()); err != nil {
				t.Fatalf("SwapOut: %v", err)
			}
		}
	})
	after := r.Service().ActiveBytes()
	if after >= before {
		t.Errorf("active bytes did not drop: %d -> %d", before, after)
	}
	if sw.BytesOut != 32*1024 {
		t.Errorf("BytesOut = %d", sw.BytesOut)
	}
}

// Property: any interleaving of writes, swaps, and faulting reads
// preserves every object's contents.
func TestSwapIntegrityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		space := mem.NewSpace()
		svc := anchorage.NewService(space, anchorage.DefaultConfig())
		var sw *Swapper
		r, err := rt.New(space, svc, rt.WithFaultHandler(func(r *rt.Runtime, id uint32) error {
			return sw.SwapIn(id)
		}))
		if err != nil {
			return false
		}
		sw = New(r, NewMemStore(rng.Intn(2) == 0))
		th := r.NewThread()
		type obj struct {
			h   handle.Handle
			tag byte
		}
		var objs []obj
		for i := 0; i < 40; i++ {
			h, err := r.Halloc(uint64(64 + rng.Intn(512)))
			if err != nil {
				return false
			}
			tag := byte(rng.Intn(256))
			a, err := th.Translate(h)
			if err != nil {
				return false
			}
			size, _ := r.SizeOf(h)
			if space.Write(a, bytes.Repeat([]byte{tag}, int(size))) != nil {
				return false
			}
			objs = append(objs, obj{h, tag})
		}
		for step := 0; step < 100; step++ {
			o := objs[rng.Intn(len(objs))]
			if rng.Intn(2) == 0 {
				r.Barrier(th, func(scope *rt.BarrierScope) {
					_ = sw.SwapOut(scope, o.h.ID()) // may fail if already out
				})
			} else {
				a, err := th.Translate(o.h) // faults back in if swapped
				if err != nil {
					return false
				}
				v, err := space.ReadU8(a)
				if err != nil || v != o.tag {
					return false
				}
			}
		}
		// Final check: every object intact (faulting in as needed).
		for _, o := range objs {
			a, err := th.Translate(o.h)
			if err != nil {
				return false
			}
			size, _ := r.SizeOf(o.h)
			buf := make([]byte, size)
			if space.Read(a, buf) != nil {
				return false
			}
			for _, b := range buf {
				if b != o.tag {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
