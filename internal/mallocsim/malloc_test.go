package mallocsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"alaska/internal/mem"
)

func TestAllocBasics(t *testing.T) {
	s := mem.NewSpace()
	a := New(s)
	p1, err := a.Alloc(24)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Alloc(24)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("duplicate addresses")
	}
	// Blocks are writable and independent.
	if err := s.WriteU64(p1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteU64(p2, 2); err != nil {
		t.Fatal(err)
	}
	v, _ := s.ReadU64(p1)
	if v != 1 {
		t.Errorf("p1 = %d, want 1", v)
	}
	if a.ActiveBytes() != 48 {
		t.Errorf("ActiveBytes = %d, want 48", a.ActiveBytes())
	}
}

func TestAllocZeroGetsUniqueBlock(t *testing.T) {
	s := mem.NewSpace()
	a := New(s)
	p1, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("Alloc(0) returned the same address twice")
	}
}

func TestFreeAndReuse(t *testing.T) {
	s := mem.NewSpace()
	a := New(s)
	p1, _ := a.Alloc(64)
	p2, _ := a.Alloc(64)
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	// Same class reuses the freed slot.
	p3, _ := a.Alloc(60)
	if p3 != p1 {
		t.Errorf("freed slot not reused: got %#x, want %#x", p3, p1)
	}
	_ = p2
	if a.ActiveBytes() != 64+60 {
		t.Errorf("ActiveBytes = %d, want 124", a.ActiveBytes())
	}
}

func TestFreeErrors(t *testing.T) {
	s := mem.NewSpace()
	a := New(s)
	p, _ := a.Alloc(32)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err == nil {
		t.Error("double free not detected")
	}
	if err := a.Free(0xdead000); err == nil {
		t.Error("free of wild pointer not detected")
	}
}

func TestLargeAllocationsUseOwnMappings(t *testing.T) {
	s := mem.NewSpace()
	a := New(s)
	p, err := a.Alloc(100 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if a.UsableSize(p) != 100*1024 {
		t.Errorf("UsableSize = %d", a.UsableSize(p))
	}
	if err := s.Write(p, make([]byte, 100*1024)); err != nil {
		t.Fatal(err)
	}
	rssBefore := s.RSS()
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if s.RSS() >= rssBefore {
		t.Errorf("large free did not release memory: RSS %d -> %d", rssBefore, s.RSS())
	}
}

func TestUsableSizeIsClassSize(t *testing.T) {
	s := mem.NewSpace()
	a := New(s)
	p, _ := a.Alloc(50)
	if got := a.UsableSize(p); got != 64 {
		t.Errorf("UsableSize(50-byte alloc) = %d, want class size 64", got)
	}
}

func TestEmptyRunPurgeReleasesPages(t *testing.T) {
	s := mem.NewSpace()
	a := New(s)
	var ptrs []mem.Addr
	// Fill exactly one 16 KiB run of 1024-byte objects.
	for i := 0; i < 16; i++ {
		p, err := a.Alloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(p, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	rssFull := s.RSS()
	for _, p := range ptrs {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if s.RSS() >= rssFull {
		t.Errorf("empty-run purge did not reduce RSS: %d -> %d", rssFull, s.RSS())
	}
	if a.purgedRuns == 0 {
		t.Error("no runs purged")
	}
}

// The defining failure of a non-moving allocator: churn that leaves one
// object per run strands nearly all resident pages.
func TestFragmentationStrandsMemory(t *testing.T) {
	s := mem.NewSpace()
	a := New(s)
	var ptrs []mem.Addr
	for i := 0; i < 1024; i++ {
		p, err := a.Alloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(p, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	rssFull := s.RSS()
	// Free all but one object per 16-slot run.
	for i, p := range ptrs {
		if i%16 == 0 {
			continue
		}
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.ActiveBytes(); got != 1024*64 {
		t.Fatalf("ActiveBytes = %d, want %d", got, 1024*64)
	}
	// RSS stays high even though 15/16 of the data is dead.
	if s.RSS() < rssFull/2 {
		t.Errorf("expected stranded memory, but RSS dropped %d -> %d", rssFull, s.RSS())
	}
}

func TestDefragHint(t *testing.T) {
	s := mem.NewSpace()
	a := New(s)
	var ptrs []mem.Addr
	for i := 0; i < 32; i++ { // two full runs of 1024B objects
		p, _ := a.Alloc(1024)
		ptrs = append(ptrs, p)
	}
	// Make run 0 sparse (1/16 occupied) and run 1 moderately occupied.
	for i := 1; i < 16; i++ {
		if err := a.Free(ptrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 16; i < 24; i++ {
		if err := a.Free(ptrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !a.DefragHint(ptrs[0]) {
		t.Error("lone object in sparse run should get a defrag hint")
	}
	if a.DefragHint(ptrs[24]) {
		t.Error("object in the denser run should not get a hint")
	}
}

// Property: after any interleaving of allocs and frees, the allocator's
// active-byte accounting equals the sum of live requested sizes, and every
// live block's contents are intact.
func TestAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := mem.NewSpace()
		a := New(s)
		type obj struct {
			addr mem.Addr
			size uint64
			tag  byte
		}
		var live []obj
		var want uint64
		for i := 0; i < 400; i++ {
			if len(live) > 0 && rng.Intn(5) < 2 {
				k := rng.Intn(len(live))
				if a.Free(live[k].addr) != nil {
					return false
				}
				want -= live[k].size
				live = append(live[:k], live[k+1:]...)
			} else {
				size := uint64(1 + rng.Intn(3000))
				p, err := a.Alloc(size)
				if err != nil {
					return false
				}
				tag := byte(rng.Intn(256))
				buf := make([]byte, size)
				for j := range buf {
					buf[j] = tag
				}
				if s.Write(p, buf) != nil {
					return false
				}
				live = append(live, obj{p, size, tag})
				want += size
			}
		}
		if a.ActiveBytes() != want {
			return false
		}
		for _, o := range live {
			buf := make([]byte, o.size)
			if s.Read(o.addr, buf) != nil {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: no two live blocks overlap.
func TestNoOverlapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := mem.NewSpace()
		a := New(s)
		type iv struct{ lo, hi uint64 }
		live := make(map[mem.Addr]iv)
		for i := 0; i < 300; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				for addr := range live {
					if a.Free(addr) != nil {
						return false
					}
					delete(live, addr)
					break
				}
			} else {
				size := uint64(1 + rng.Intn(2048))
				p, err := a.Alloc(size)
				if err != nil {
					return false
				}
				n := iv{uint64(p), uint64(p) + size}
				for _, o := range live {
					if n.lo < o.hi && o.lo < n.hi {
						return false
					}
				}
				live[p] = n
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
