package mem

// Race-detector tests for the lock-free access path (run under
// `go test -race ./internal/mem`). They hold the contract in the package
// doc: accesses, DontNeed of *other* pages of the same regions, and
// Map/Unmap of unrelated regions all run concurrently with no lock, and
// once everyone has quiesced the accounting is exact — RSS() is PageSize ×
// the set bits of every mapped region, Faults() is the number of 0→1
// flips.

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

// mappedResidentPages sums the residency bitmaps of every mapped region.
func mappedResidentPages(s *Space) int {
	n := 0
	for _, r := range *s.regions.Load() {
		n += r.ResidentPages()
	}
	return n
}

func TestLockFreeAccessRace(t *testing.T) {
	const (
		accessors   = 4
		releasers   = 2
		mappers     = 2
		sharedPages = 8 // every accessor reads and writes these
		ownPages    = 4 // per accessor and per releaser
		mapperPages = 3
	)
	rounds := 2000
	if testing.Short() {
		rounds = 300
	}
	s := NewSpace()
	regions := []*Region{
		mustMap(t, s, (sharedPages+(accessors+releasers)*ownPages)*PageSize),
		mustMap(t, s, (sharedPages+(accessors+releasers)*ownPages)*PageSize),
	}
	// Layout of each region: the shared pages, then one block of ownPages
	// per accessor, then one per releaser. The first half of every shared
	// page is read-only (filled here); the second half is cut into one
	// 64-byte lane per accessor.
	ro := bytes.Repeat([]byte{0xA5}, PageSize/2)
	for _, r := range regions {
		for p := 0; p < sharedPages; p++ {
			if err := s.Write(r.Base()+Addr(p*PageSize), ro); err != nil {
				t.Fatal(err)
			}
		}
	}
	flips := atomic.Int64{} // 0→1 flips whose count is not fixed by the layout
	flips.Store(int64(len(regions) * sharedPages))

	var wg sync.WaitGroup
	for g := 0; g < accessors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lane := bytes.Repeat([]byte{byte(g + 1)}, 64)
			got := make([]byte, PageSize/2)
			for i := 0; i < rounds; i++ {
				r, k := regions[i%len(regions)], i/len(regions)
				shared := r.Base() + Addr(k%sharedPages*PageSize)
				if err := s.Read(shared, got); err != nil || !bytes.Equal(got, ro) {
					t.Errorf("accessor %d: shared read-only half = %x..., %v", g, got[:4], err)
					return
				}
				mine := shared + PageSize/2 + Addr(g*64)
				if err := s.Write(mine, lane); err != nil {
					t.Error(err)
					return
				}
				own := r.Base() + Addr((sharedPages+g*ownPages+k%ownPages)*PageSize)
				if err := s.WriteU64(own+8, uint64(i)); err != nil {
					t.Error(err)
					return
				}
				if v, err := s.ReadU64(own + 8); err != nil || v != uint64(i) {
					t.Errorf("accessor %d: own word = %d, %v; want %d", g, v, err, i)
					return
				}
			}
		}(g)
	}
	// Every accessor's own pages are touched (rounds covers them many
	// times over) and never released.
	flips.Add(int64(accessors * ownPages * len(regions)))

	for g := 0; g < releasers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			page, zero := make([]byte, PageSize), make([]byte, PageSize)
			for i := 0; i < rounds; i++ {
				r, k := regions[i%len(regions)], i/len(regions)
				a := r.Base() + Addr((sharedPages+(accessors+g)*ownPages+k%ownPages)*PageSize)
				before := s.Faults()
				if err := s.WriteU8(a+17, 0xFF); err != nil {
					t.Error(err)
					return
				}
				flips.Add(1) // the page was never touched or was released last time round
				if s.Faults() == before {
					t.Errorf("releaser %d: re-touching a released page did not fault", g)
					return
				}
				if err := s.DontNeed(a, PageSize); err != nil {
					t.Error(err)
					return
				}
				if err := s.Read(a, page); err != nil {
					t.Error(err)
					return
				}
				flips.Add(1) // the read-back pages it in again
				if !bytes.Equal(page, zero) {
					t.Errorf("releaser %d: page read back non-zero after DontNeed", g)
					return
				}
				if err := s.DontNeed(a, PageSize); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	for g := 0; g < mappers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds/4; i++ {
				r, err := s.Map(mapperPages * PageSize)
				if err != nil {
					t.Error(err)
					return
				}
				for p := 0; p < mapperPages; p++ {
					if err := s.WriteU32(r.Base()+Addr(p*PageSize), 7); err != nil {
						t.Error(err)
						return
					}
				}
				flips.Add(mapperPages)
				if got, _, err := s.Resolve(r.Base() + PageSize); err != nil || got != r {
					t.Errorf("Resolve inside a fresh region = %p, %v; want %p", got, err, r)
					return
				}
				if n := r.ResidentPages(); n != mapperPages {
					t.Errorf("fresh region has %d resident pages, want %d", n, mapperPages)
					return
				}
				if err := s.Unmap(r); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got, want := s.NumRegions(), len(regions); got != want {
		t.Errorf("NumRegions = %d after quiescing, want %d", got, want)
	}
	if got, want := s.RSS(), uint64(mappedResidentPages(s))*PageSize; got != want {
		t.Errorf("RSS = %d after quiescing, want %d (PageSize × set residency bits)", got, want)
	}
	// Releasers leave their pages released; everything else stays resident.
	if got, want := mappedResidentPages(s), len(regions)*(sharedPages+accessors*ownPages); got != want {
		t.Errorf("%d pages resident after quiescing, want %d", got, want)
	}
	if got, want := s.Faults(), flips.Load(); got != want {
		t.Errorf("Faults = %d after quiescing, want %d (one per 0→1 flip)", got, want)
	}
}

// TestUnmapRacesInFlightTouch: an access resolves its region without a
// lock, so Unmap can sweep the residency bitmap between the resolve and
// the touch. The late touch must neither crash nor leave a page of the
// unmapped region counted.
func TestUnmapRacesInFlightTouch(t *testing.T) {
	const pages, touchers = 64, 3
	rounds := 300
	if testing.Short() {
		rounds = 50
	}
	s := NewSpace()
	keep := mustMap(t, s, 2*PageSize)
	if err := s.WriteU8(keep.Base(), 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		r := mustMap(t, s, pages*PageSize)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < touchers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				// r stands for a region resolved just before the Unmap.
				for p := 0; p < pages; p++ {
					r.touch(uint64((p+g*pages/touchers)%pages)*PageSize, 8)
				}
			}(g)
		}
		close(start)
		if err := s.Unmap(r); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if n := r.ResidentPages(); n != 0 {
			t.Fatalf("round %d: unmapped region still has %d resident pages", i, n)
		}
		if got := s.RSS(); got != PageSize {
			t.Fatalf("round %d: RSS = %d after Unmap raced touches, want %d", i, got, PageSize)
		}
	}
}
