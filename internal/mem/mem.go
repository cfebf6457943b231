// Package mem provides a simulated 64-bit virtual address space with
// demand paging and resident-set accounting.
//
// Alaska (ASPLOS '24) measures fragmentation as the divergence between a
// process's resident set size (physical pages the kernel has committed)
// and the bytes its allocator considers live. Reproducing that in Go
// requires a substrate where "virtual address", "page", "RSS", and
// madvise(MADV_DONTNEED) are first-class, observable concepts. This
// package is that substrate: every allocator and runtime component in the
// repository performs its loads and stores against a Space, and the
// experiment harnesses read Space.RSS() exactly where the paper reads
// /proc/self/status.
//
// A Space hands out page-aligned virtual regions (Map), tracks which 4 KiB
// pages have been touched (a page becomes resident on first write or read),
// and supports returning pages to the simulated kernel (DontNeed), which
// zeroes them and removes them from the resident set — precisely the
// semantics Anchorage relies on in §4.3 of the paper.
//
// # Concurrency
//
// All methods are safe for concurrent use, and the access path — Read,
// Write, the fixed-width loads and stores, Copy, Resolve, RSS, Faults —
// takes no lock: the region list is an immutable sorted slice behind an
// atomic pointer (Map/MapAt/Unmap copy it, serialised among themselves by
// a plain mutex), residency is one bit per page in atomic words, and the
// RSS and fault counters are atomics bumped only by the goroutine whose
// own read-modify-write flipped a page's bit. The accounting is therefore
// exact once callers quiesce: RSS() is PageSize × the set bits of every
// mapped region and Faults() is the number of 0→1 flips; a reader racing a
// flip may see either side of it.
//
// The space orders nothing about the bytes themselves, exactly like
// hardware: two overlapping accesses, one of them a store, are the
// callers' race. In particular DontNeed may run concurrently with
// accesses to *other* pages of the same region, and Unmap concurrently
// with accesses to other regions, but whoever releases a page or a region
// must know nobody is still using it — Anchorage does, because a block is
// only truncated or reused after its handle was unpinned and a grace
// period has passed (see anchorage.ConcurrentDefragPass). An access that
// resolved its region just before Unmap is still memory-safe (the region
// keeps its bytes until the garbage collector takes them) and leaves the
// accounting exact: touch undoes its own flip when it finds the region
// unmapped.
//
// The bit flips are Load/CompareAndSwap loops rather than
// atomic.Uint64.Or/And: on the pinned go1.24.0/amd64 toolchain those two
// miscompile when their result is used (the register holding the receiver
// is clobbered and the next use of it dereferences garbage).
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// PageSize is the simulated hardware page size in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Addr is a simulated virtual address. Address zero is never mapped, so it
// can serve as the null pointer.
type Addr uint64

// baseStart is the first virtual address handed out by Map. Leaving a guard
// gap below it means small integers can never alias a mapped address.
const baseStart Addr = 0x0000_1000_0000

// AddrLimit bounds every mapping: a handle table entry packs its backing
// address into 48 bits, so Map and MapAt refuse a region ending beyond it.
const AddrLimit Addr = 1 << 48

// A Region is a contiguous page-aligned virtual mapping inside a Space.
type Region struct {
	space    *Space
	base     Addr
	size     uint64 // bytes, multiple of PageSize
	data     []byte
	resident []atomic.Uint64 // one bit per page
	// unmapped is set by Unmap before it sweeps the bitmap, so an access
	// that resolved the region earlier can tell its flip came too late.
	unmapped atomic.Bool
}

// Space is a simulated process address space. All methods are safe for
// concurrent use; see the package doc for what is lock-free.
type Space struct {
	// regions is the immutable base-sorted region list; mapMu serialises
	// the writers that replace it (Map, MapAt, Unmap) and guards nextBase.
	regions  atomic.Pointer[[]*Region]
	mapMu    sync.Mutex
	nextBase Addr

	rssPages atomic.Int64
	// faults counts demand-paging events (first touch of a page), which is
	// useful for tests asserting that DontNeed actually released pages.
	faults atomic.Int64
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	s := &Space{nextBase: baseStart}
	s.regions.Store(new([]*Region))
	return s
}

// insertLocked publishes a copy of the region list with a fresh region
// [base, base+size) inserted in base order. Caller holds s.mapMu.
func (s *Space) insertLocked(base Addr, size uint64) *Region {
	r := &Region{
		space:    s,
		base:     base,
		size:     size,
		data:     make([]byte, size),
		resident: make([]atomic.Uint64, (size/PageSize+63)/64),
	}
	old := *s.regions.Load()
	i := 0
	for i < len(old) && old[i].base < base {
		i++
	}
	next := slices.Insert(slices.Clone(old), i, r)
	s.regions.Store(&next)
	return r
}

// roundUpPage rounds n up to a multiple of PageSize.
func roundUpPage(n uint64) uint64 {
	return (n + PageSize - 1) &^ (PageSize - 1)
}

// checkLimit refuses a region that would end beyond AddrLimit. It takes
// the size unrounded: base and the limit are page multiples, so rounding
// an accepted size neither passes the limit nor wraps.
func checkLimit(base Addr, size uint64) error {
	if size > uint64(AddrLimit) || base > AddrLimit-Addr(size) {
		return fmt.Errorf("mem: region [%#x,+%#x) ends beyond the 48-bit address limit", base, size)
	}
	return nil
}

// Map reserves a new virtual region of at least size bytes (rounded up to a
// page multiple) and returns it. The region's pages are not resident until
// touched, mirroring anonymous mmap.
func (s *Space) Map(size uint64) (*Region, error) {
	if size == 0 {
		return nil, fmt.Errorf("mem: Map of zero bytes")
	}
	s.mapMu.Lock()
	defer s.mapMu.Unlock()
	base := s.nextBase
	if err := checkLimit(base, size); err != nil {
		return nil, err
	}
	size = roundUpPage(size)
	// Leave a one-page guard gap between regions so out-of-bounds addresses
	// fault instead of silently landing in a neighbour.
	s.nextBase += Addr(size) + PageSize
	return s.insertLocked(base, size), nil
}

// MapAt reserves a region at a caller-chosen base address. Alaska places its
// handle table at a fixed virtual address so translation need not mask the
// top handle bit (§4.2.1); MapAt lets the runtime do the same. The base must
// be page-aligned and must not overlap an existing region.
func (s *Space) MapAt(base Addr, size uint64) (*Region, error) {
	if base == 0 || uint64(base)%PageSize != 0 {
		return nil, fmt.Errorf("mem: MapAt base %#x not page aligned", base)
	}
	if size == 0 {
		return nil, fmt.Errorf("mem: MapAt of zero bytes")
	}
	if err := checkLimit(base, size); err != nil {
		return nil, err
	}
	size = roundUpPage(size)
	s.mapMu.Lock()
	defer s.mapMu.Unlock()
	for _, r := range *s.regions.Load() {
		if base < r.base+Addr(r.size) && r.base < base+Addr(size) {
			return nil, fmt.Errorf("mem: MapAt [%#x,%#x) overlaps region [%#x,%#x)",
				base, base+Addr(size), r.base, r.base+Addr(r.size))
		}
	}
	if base+Addr(size) > s.nextBase {
		s.nextBase = base + Addr(size) + PageSize
	}
	return s.insertLocked(base, size), nil
}

// Unmap removes a region from the space, releasing its resident pages.
func (s *Space) Unmap(r *Region) error {
	s.mapMu.Lock()
	defer s.mapMu.Unlock()
	old := *s.regions.Load()
	i := slices.Index(old, r)
	if i < 0 {
		return fmt.Errorf("mem: Unmap of region not in space")
	}
	next := slices.Delete(slices.Clone(old), i, i+1)
	s.regions.Store(&next)
	// Flag first, sweep second: a touch that flips a bit after the sweep
	// passed its word is guaranteed to see the flag and undo itself.
	r.unmapped.Store(true)
	for w := range r.resident {
		s.rssPages.Add(-int64(bits.OnesCount64(r.resident[w].Swap(0))))
	}
	return nil
}

// find returns the region containing addr in the current region list, or
// nil.
func (s *Space) find(addr Addr) *Region {
	// Binary search over sorted regions.
	regions := *s.regions.Load()
	lo, hi := 0, len(regions)
	for lo < hi {
		mid := (lo + hi) / 2
		r := regions[mid]
		switch {
		case addr < r.base:
			hi = mid
		case addr >= r.base+Addr(r.size):
			lo = mid + 1
		default:
			return r
		}
	}
	return nil
}

// Resolve returns the region containing addr and the byte offset within it.
func (s *Space) Resolve(addr Addr) (*Region, uint64, error) {
	r := s.find(addr)
	if r == nil {
		return nil, 0, &Fault{Addr: addr, Op: "resolve"}
	}
	return r, uint64(addr - r.base), nil
}

// Fault is the error returned for accesses to unmapped addresses — the
// simulated equivalent of SIGSEGV.
type Fault struct {
	Addr Addr
	Op   string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: %s fault at unmapped address %#x", f.Op, f.Addr)
}

// setResident flips page p's residency bit to on and reports whether this
// call did the flip; exactly one of any number of racing callers does, and
// that one owns the accounting. (A CAS loop, not Uint64.Or/And: see the
// package doc.)
func (r *Region) setResident(p uint64, on bool) bool {
	w, mask := &r.resident[p/64], uint64(1)<<(p%64)
	for {
		old := w.Load()
		if (old&mask != 0) == on {
			return false
		}
		next := old | mask
		if !on {
			next = old &^ mask
		}
		if w.CompareAndSwap(old, next) {
			return true
		}
	}
}

// touch marks all pages overlapping [off, off+n) resident. The already-
// resident case — every access but a page's first — is one atomic load
// per page and no store.
func (r *Region) touch(off, n uint64) {
	first := off / PageSize
	last := (off + n - 1) / PageSize
	for p := first; p <= last; p++ {
		if !r.setResident(p, true) {
			continue
		}
		r.space.rssPages.Add(1)
		r.space.faults.Add(1)
		// The region was resolved without a lock, so Unmap may have swept
		// the bitmap already; its flag is then visible, and the page must
		// not stay counted.
		if r.unmapped.Load() && r.setResident(p, false) {
			r.space.rssPages.Add(-1)
		}
	}
}

// access validates an n-byte access at addr and returns the region and
// offset with pages made resident. It is the common path for loads/stores.
func (s *Space) access(addr Addr, n uint64, op string) (*Region, uint64, error) {
	if n == 0 {
		return nil, 0, fmt.Errorf("mem: zero-length %s at %#x", op, addr)
	}
	r := s.find(addr)
	if r == nil {
		return nil, 0, &Fault{Addr: addr, Op: op}
	}
	off := uint64(addr - r.base)
	if off+n > r.size {
		return nil, 0, &Fault{Addr: addr + Addr(r.size-off), Op: op}
	}
	r.touch(off, n)
	return r, off, nil
}

// Write copies b into the space at addr.
func (s *Space) Write(addr Addr, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	r, off, err := s.access(addr, uint64(len(b)), "write")
	if err != nil {
		return err
	}
	copy(r.data[off:], b)
	return nil
}

// Read copies len(b) bytes from the space at addr into b.
func (s *Space) Read(addr Addr, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	r, off, err := s.access(addr, uint64(len(b)), "read")
	if err != nil {
		return err
	}
	copy(b, r.data[off:])
	return nil
}

// WriteU64 stores a 64-bit little-endian word at addr.
func (s *Space) WriteU64(addr Addr, v uint64) error {
	r, off, err := s.access(addr, 8, "write")
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(r.data[off:], v)
	return nil
}

// ReadU64 loads a 64-bit little-endian word from addr.
func (s *Space) ReadU64(addr Addr) (uint64, error) {
	r, off, err := s.access(addr, 8, "read")
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(r.data[off:]), nil
}

// WriteU32 stores a 32-bit little-endian word at addr.
func (s *Space) WriteU32(addr Addr, v uint32) error {
	r, off, err := s.access(addr, 4, "write")
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(r.data[off:], v)
	return nil
}

// ReadU32 loads a 32-bit little-endian word from addr.
func (s *Space) ReadU32(addr Addr) (uint32, error) {
	r, off, err := s.access(addr, 4, "read")
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(r.data[off:]), nil
}

// WriteU8 stores one byte at addr.
func (s *Space) WriteU8(addr Addr, v uint8) error {
	r, off, err := s.access(addr, 1, "write")
	if err != nil {
		return err
	}
	r.data[off] = v
	return nil
}

// ReadU8 loads one byte from addr.
func (s *Space) ReadU8(addr Addr) (uint8, error) {
	r, off, err := s.access(addr, 1, "read")
	if err != nil {
		return 0, err
	}
	return r.data[off], nil
}

// Copy moves n bytes from src to dst within the space, handling overlap the
// way memmove does. It is the primitive object relocation is built on.
func (s *Space) Copy(dst, src Addr, n uint64) error {
	if n == 0 {
		return nil
	}
	sr, soff, err := s.access(src, n, "read")
	if err != nil {
		return err
	}
	dr, doff, err := s.access(dst, n, "write")
	if err != nil {
		return err
	}
	copy(dr.data[doff:doff+n], sr.data[soff:soff+n])
	return nil
}

// DontNeed releases whole pages fully contained in [addr, addr+n) back to
// the simulated kernel: the pages are zeroed and leave the resident set.
// Partially covered pages at either end are left untouched, matching
// madvise(MADV_DONTNEED) semantics for anonymous memory.
func (s *Space) DontNeed(addr Addr, n uint64) error {
	if n == 0 {
		return nil
	}
	r := s.find(addr)
	if r == nil {
		return &Fault{Addr: addr, Op: "madvise"}
	}
	off := uint64(addr - r.base)
	if off+n > r.size {
		return &Fault{Addr: addr + Addr(r.size-off), Op: "madvise"}
	}
	// Round the start up and the end down to page boundaries.
	start := (off + PageSize - 1) &^ (PageSize - 1)
	end := (off + n) &^ (PageSize - 1)
	for p := start; p+PageSize <= end; p += PageSize {
		if r.setResident(p/PageSize, false) {
			s.rssPages.Add(-1)
		}
		clear(r.data[p : p+PageSize])
	}
	return nil
}

// RSS returns the resident set size of the space in bytes.
func (s *Space) RSS() uint64 {
	// A release can land between a racing touch's flip and its increment;
	// clamp that transient instead of wrapping.
	return uint64(max(s.rssPages.Load(), 0)) * PageSize
}

// Faults returns the cumulative count of demand-paging events.
func (s *Space) Faults() int64 { return s.faults.Load() }

// NumRegions returns the number of live mappings.
func (s *Space) NumRegions() int { return len(*s.regions.Load()) }

// Base returns the region's base address.
func (r *Region) Base() Addr { return r.base }

// Size returns the region's size in bytes.
func (r *Region) Size() uint64 { return r.size }

// ResidentPages returns how many of the region's pages are resident.
func (r *Region) ResidentPages() int {
	n := 0
	for w := range r.resident {
		n += bits.OnesCount64(r.resident[w].Load())
	}
	return n
}

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr Addr) bool {
	return addr >= r.base && addr < r.base+Addr(r.size)
}

// End returns one past the region's last byte.
func (r *Region) End() Addr { return r.base + Addr(r.size) }
