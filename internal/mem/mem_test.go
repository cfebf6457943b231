package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func mustMap(t *testing.T, s *Space, size uint64) *Region {
	t.Helper()
	r, err := s.Map(size)
	if err != nil {
		t.Fatalf("Map(%d): %v", size, err)
	}
	return r
}

func TestMapAlignsAndSeparates(t *testing.T) {
	s := NewSpace()
	r1 := mustMap(t, s, 1)
	r2 := mustMap(t, s, PageSize+1)
	if r1.Size() != PageSize {
		t.Errorf("size rounded to %d, want %d", r1.Size(), PageSize)
	}
	if r2.Size() != 2*PageSize {
		t.Errorf("size rounded to %d, want %d", r2.Size(), 2*PageSize)
	}
	if uint64(r1.Base())%PageSize != 0 || uint64(r2.Base())%PageSize != 0 {
		t.Errorf("bases not page aligned: %#x %#x", r1.Base(), r2.Base())
	}
	if r2.Base() < r1.End()+PageSize {
		t.Errorf("no guard gap between regions: r1 end %#x, r2 base %#x", r1.End(), r2.Base())
	}
}

func TestMapZeroFails(t *testing.T) {
	s := NewSpace()
	if _, err := s.Map(0); err == nil {
		t.Fatal("Map(0) succeeded, want error")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := NewSpace()
	r := mustMap(t, s, 2*PageSize)
	msg := []byte("the quick brown fox")
	addr := r.Base() + 100
	if err := s.Write(addr, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := s.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("read %q, want %q", got, msg)
	}
}

func TestWordAccessors(t *testing.T) {
	s := NewSpace()
	r := mustMap(t, s, PageSize)
	a := r.Base()
	if err := s.WriteU64(a, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadU64(a)
	if err != nil || v != 0xdeadbeefcafef00d {
		t.Errorf("ReadU64 = %#x, %v", v, err)
	}
	if err := s.WriteU32(a+8, 0x12345678); err != nil {
		t.Fatal(err)
	}
	v32, err := s.ReadU32(a + 8)
	if err != nil || v32 != 0x12345678 {
		t.Errorf("ReadU32 = %#x, %v", v32, err)
	}
	if err := s.WriteU8(a+12, 0xab); err != nil {
		t.Fatal(err)
	}
	v8, err := s.ReadU8(a + 12)
	if err != nil || v8 != 0xab {
		t.Errorf("ReadU8 = %#x, %v", v8, err)
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	s := NewSpace()
	var f *Fault
	if err := s.Write(0x42, []byte{1}); !errors.As(err, &f) {
		t.Errorf("write to unmapped = %v, want Fault", err)
	}
	if _, err := s.ReadU64(0); !errors.As(err, &f) {
		t.Errorf("read of null = %v, want Fault", err)
	}
}

func TestAccessPastEndFaults(t *testing.T) {
	s := NewSpace()
	r := mustMap(t, s, PageSize)
	var f *Fault
	err := s.Write(r.End()-4, []byte{1, 2, 3, 4, 5})
	if !errors.As(err, &f) {
		t.Errorf("straddling write = %v, want Fault", err)
	}
}

func TestGuardGapFaults(t *testing.T) {
	s := NewSpace()
	r1 := mustMap(t, s, PageSize)
	mustMap(t, s, PageSize)
	var f *Fault
	if err := s.WriteU8(r1.End(), 1); !errors.As(err, &f) {
		t.Errorf("write into guard gap = %v, want Fault", err)
	}
}

func TestRSSDemandPaging(t *testing.T) {
	s := NewSpace()
	r := mustMap(t, s, 10*PageSize)
	if s.RSS() != 0 {
		t.Fatalf("RSS after Map = %d, want 0 (demand paged)", s.RSS())
	}
	if err := s.WriteU8(r.Base(), 1); err != nil {
		t.Fatal(err)
	}
	if s.RSS() != PageSize {
		t.Errorf("RSS after one touch = %d, want %d", s.RSS(), PageSize)
	}
	// Touch the same page again: no growth.
	if err := s.WriteU8(r.Base()+1, 2); err != nil {
		t.Fatal(err)
	}
	if s.RSS() != PageSize {
		t.Errorf("RSS after second touch = %d, want %d", s.RSS(), PageSize)
	}
	// A straddling write touches both pages.
	if err := s.WriteU64(r.Base()+PageSize*2-4, 7); err != nil {
		t.Fatal(err)
	}
	if s.RSS() != 3*PageSize {
		t.Errorf("RSS after straddling write = %d, want %d", s.RSS(), 3*PageSize)
	}
}

func TestReadsAlsoPageIn(t *testing.T) {
	s := NewSpace()
	r := mustMap(t, s, PageSize)
	if _, err := s.ReadU64(r.Base()); err != nil {
		t.Fatal(err)
	}
	if s.RSS() != PageSize {
		t.Errorf("RSS after read = %d, want %d", s.RSS(), PageSize)
	}
}

func TestDontNeedReleasesWholePagesOnly(t *testing.T) {
	s := NewSpace()
	r := mustMap(t, s, 4*PageSize)
	for i := uint64(0); i < 4; i++ {
		if err := s.WriteU8(r.Base()+Addr(i*PageSize), byte(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if s.RSS() != 4*PageSize {
		t.Fatalf("RSS = %d, want %d", s.RSS(), 4*PageSize)
	}
	// Release from mid page 0 to mid page 3: only pages 1 and 2 qualify.
	if err := s.DontNeed(r.Base()+PageSize/2, 3*PageSize); err != nil {
		t.Fatal(err)
	}
	if s.RSS() != 2*PageSize {
		t.Errorf("RSS after partial DontNeed = %d, want %d", s.RSS(), 2*PageSize)
	}
	// Released pages read back as zero.
	v, err := s.ReadU8(r.Base() + PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("released page reads %d, want 0", v)
	}
	// Untouched pages retain data.
	v, err = s.ReadU8(r.Base())
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("kept page reads %d, want 1", v)
	}
}

func TestDontNeedThenRetouchGrowsRSS(t *testing.T) {
	s := NewSpace()
	r := mustMap(t, s, PageSize)
	if err := s.WriteU8(r.Base(), 9); err != nil {
		t.Fatal(err)
	}
	f0 := s.Faults()
	if err := s.DontNeed(r.Base(), PageSize); err != nil {
		t.Fatal(err)
	}
	if s.RSS() != 0 {
		t.Fatalf("RSS after DontNeed = %d, want 0", s.RSS())
	}
	if err := s.WriteU8(r.Base(), 9); err != nil {
		t.Fatal(err)
	}
	if s.RSS() != PageSize {
		t.Errorf("RSS after retouch = %d, want %d", s.RSS(), PageSize)
	}
	if s.Faults() != f0+1 {
		t.Errorf("faults = %d, want %d (retouch is a new fault)", s.Faults(), f0+1)
	}
}

func TestCopyOverlap(t *testing.T) {
	s := NewSpace()
	r := mustMap(t, s, PageSize)
	if err := s.Write(r.Base(), []byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	// Overlapping forward copy, memmove semantics.
	if err := s.Copy(r.Base()+2, r.Base(), 6); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := s.Read(r.Base(), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ababcdef" {
		t.Errorf("after overlap copy = %q, want %q", got, "ababcdef")
	}
}

func TestUnmapReducesRSS(t *testing.T) {
	s := NewSpace()
	r := mustMap(t, s, 2*PageSize)
	if err := s.Write(r.Base(), make([]byte, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := s.Unmap(r); err != nil {
		t.Fatal(err)
	}
	if s.RSS() != 0 {
		t.Errorf("RSS after Unmap = %d, want 0", s.RSS())
	}
	if s.NumRegions() != 0 {
		t.Errorf("regions after Unmap = %d, want 0", s.NumRegions())
	}
	if err := s.Unmap(r); err == nil {
		t.Error("double Unmap succeeded, want error")
	}
	var f *Fault
	if err := s.WriteU8(r.Base(), 1); !errors.As(err, &f) {
		t.Errorf("write after Unmap = %v, want Fault", err)
	}
}

func TestMapAt(t *testing.T) {
	s := NewSpace()
	const base = Addr(0x7000_0000_0000)
	r, err := s.MapAt(base, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if r.Base() != base {
		t.Errorf("base = %#x, want %#x", r.Base(), base)
	}
	if _, err := s.MapAt(base, PageSize); err == nil {
		t.Error("overlapping MapAt succeeded, want error")
	}
	if _, err := s.MapAt(base+1, PageSize); err == nil {
		t.Error("unaligned MapAt succeeded, want error")
	}
	// Subsequent Map must not collide with the fixed mapping.
	r2 := mustMap(t, s, PageSize)
	if r2.Base() >= base && r2.Base() < base+PageSize {
		t.Errorf("Map collided with MapAt region at %#x", r2.Base())
	}
}

// TestAddrLimit: a handle table entry packs its backing into 48 bits, so
// no mapping may end beyond 2^48 — refused with an error by MapAt and, once
// the space has been walked up there, by Map — and a size whose rounding
// would wrap is refused before it is rounded.
func TestAddrLimit(t *testing.T) {
	s := NewSpace()
	if _, err := s.MapAt(AddrLimit, PageSize); err == nil {
		t.Error("MapAt at 2^48 succeeded, want error")
	}
	if _, err := s.MapAt(AddrLimit-PageSize, PageSize+1); err == nil {
		t.Error("MapAt ending one byte beyond 2^48 succeeded, want error")
	}
	for _, size := range []uint64{uint64(AddrLimit) + 1, ^uint64(0), ^uint64(0) - PageSize + 2} {
		if _, err := s.Map(size); err == nil {
			t.Errorf("Map(%#x) succeeded, want error", size)
		}
		if _, err := s.MapAt(PageSize, size); err == nil {
			t.Errorf("MapAt(_, %#x) succeeded, want error", size)
		}
	}
	r, err := s.MapAt(AddrLimit-PageSize, PageSize)
	if err != nil {
		t.Fatalf("MapAt of the last page below 2^48: %v", err)
	}
	if err := s.WriteU8(r.End()-1, 7); err != nil {
		t.Errorf("write to address 2^48-1: %v", err)
	}
	if _, err := s.Map(PageSize); err == nil {
		t.Error("Map beyond the last page succeeded, want error")
	}
}

func TestResolve(t *testing.T) {
	s := NewSpace()
	r := mustMap(t, s, 2*PageSize)
	got, off, err := s.Resolve(r.Base() + 123)
	if err != nil || got != r || off != 123 {
		t.Errorf("Resolve = %v, %d, %v", got, off, err)
	}
	if _, _, err := s.Resolve(5); err == nil {
		t.Error("Resolve of unmapped succeeded")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewSpace()
	r := mustMap(t, s, 64*PageSize)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := r.Base() + Addr(g*8*PageSize)
			for i := 0; i < 1000; i++ {
				a := base + Addr(i%int(8*PageSize-8))
				if err := s.WriteU64(a, uint64(i)); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if _, err := s.ReadU64(a); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Property: RSS always equals PageSize times the number of distinct pages
// ever touched and not released.
func TestRSSInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace()
		r, err := s.Map(64 * PageSize)
		if err != nil {
			return false
		}
		live := make(map[uint64]bool)
		for i := 0; i < 200; i++ {
			page := uint64(rng.Intn(64))
			if rng.Intn(3) == 0 {
				if s.DontNeed(r.Base()+Addr(page*PageSize), PageSize) != nil {
					return false
				}
				delete(live, page)
			} else {
				if s.WriteU8(r.Base()+Addr(page*PageSize+uint64(rng.Intn(PageSize))), 1) != nil {
					return false
				}
				live[page] = true
			}
		}
		return s.RSS() == uint64(len(live))*PageSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Copy is equivalent to read-then-write for non-overlapping ranges.
func TestCopyEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace()
		r, err := s.Map(4 * PageSize)
		if err != nil {
			return false
		}
		n := uint64(1 + rng.Intn(512))
		src := r.Base() + Addr(rng.Intn(1024))
		dst := r.Base() + 2*PageSize + Addr(rng.Intn(1024))
		buf := make([]byte, n)
		rng.Read(buf)
		if s.Write(src, buf) != nil {
			return false
		}
		if s.Copy(dst, src, n) != nil {
			return false
		}
		got := make([]byte, n)
		if s.Read(dst, got) != nil {
			return false
		}
		return bytes.Equal(got, buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
