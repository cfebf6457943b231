// Package mallocsim implements a conventional, non-moving size-class
// allocator over the simulated address space — the stand-in for
// glibc/jemalloc in the paper's baselines.
//
// The design follows jemalloc's shape at the fidelity the experiments
// need: allocations are rounded to size classes; each class is served from
// fixed-size runs carved out of 1 MiB arena chunks; freed slots go on
// per-class free lists; a run whose last object is freed has its pages
// returned to the kernel (jemalloc's purging). What it cannot do — by
// construction, like every non-moving allocator — is relocate a live
// object, so a heap churned by allocations of drifting sizes strands
// partially-occupied runs and the resident set stays high (Figure 9's
// "Baseline" curve).
//
// The package also provides the application-assisted defragmentation hook
// (DefragHint) that models Redis's activedefrag protocol: the application
// walks its own objects, asks the allocator which would be better placed
// elsewhere, reallocates those itself, and rewrites its own pointers —
// the "thousands of lines of black magic" the paper contrasts Alaska with.
package mallocsim

import (
	"fmt"
	"sync"

	"alaska/internal/mem"
)

// Size classes, jemalloc-style: power-of-two spacing with midpoints.
var classes = []uint64{
	16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048,
}

const (
	// runSize is the extent of one run (one size class per run).
	runSize = 16 * 1024
	// chunkSize is the arena growth unit.
	chunkSize = 1 << 20
	// largeThreshold routes allocations to the mmap-like large path.
	largeThreshold = 2048
)

// classIndex returns the smallest class that fits size, or -1 for large.
func classIndex(size uint64) int {
	for i, c := range classes {
		if size <= c {
			return i
		}
	}
	return -1
}

// run is a contiguous slab serving one size class.
type run struct {
	base     mem.Addr
	class    int
	slots    int
	freeBits []bool // true = slot free
	nFree    int
	bump     int // slots never yet allocated (suffix of the run)
}

func (r *run) slotAddr(i int) mem.Addr {
	return r.base + mem.Addr(uint64(i)*classes[r.class])
}

// occupancy returns the fraction of slots in use.
func (r *run) occupancy() float64 {
	used := r.slots - r.nFree - r.bump
	return float64(used) / float64(r.slots)
}

// Allocator is a non-moving size-class allocator.
type Allocator struct {
	mu    sync.Mutex
	space *mem.Space

	chunks   []*mem.Region
	chunkOff uint64 // bump offset within the newest chunk
	// runList is sorted by base; runs are located by binary search because
	// chunk bases are only page-aligned, not run-aligned.
	runList   []*run
	partial   [][]*run // per class: runs with free or bump capacity
	large     map[mem.Addr]*mem.Region
	largeSize map[mem.Addr]uint64
	sizes     map[mem.Addr]uint64 // requested size per live small object

	active uint64 // requested bytes of live objects
	extent uint64 // virtual bytes ever carved (chunks + live large)

	// stats
	allocs, frees, purgedRuns int64
}

// New returns an allocator drawing memory from space.
func New(space *mem.Space) *Allocator {
	return &Allocator{
		space:     space,
		partial:   make([][]*run, len(classes)),
		large:     make(map[mem.Addr]*mem.Region),
		largeSize: make(map[mem.Addr]uint64),
		sizes:     make(map[mem.Addr]uint64),
	}
}

// Alloc returns the address of a block of at least size bytes.
func (a *Allocator) Alloc(size uint64) (mem.Addr, error) {
	if size == 0 {
		size = 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.allocs++
	ci := classIndex(size)
	if ci < 0 {
		return a.allocLarge(size)
	}
	r, err := a.partialRun(ci)
	if err != nil {
		return 0, err
	}
	var slot int
	switch {
	case r.nFree > 0:
		// Reuse a freed slot (first fit within the run).
		slot = -1
		for i, free := range r.freeBits {
			if free {
				slot = i
				break
			}
		}
		r.freeBits[slot] = false
		r.nFree--
	default:
		slot = r.slots - r.bump
		r.bump--
	}
	if r.nFree == 0 && r.bump == 0 {
		a.removePartial(ci, r)
	}
	addr := r.slotAddr(slot)
	a.sizes[addr] = size
	a.active += size
	return addr, nil
}

// partialRun returns a run of class ci with capacity, creating one if
// needed.
func (a *Allocator) partialRun(ci int) (*run, error) {
	if list := a.partial[ci]; len(list) > 0 {
		return list[0], nil
	}
	base, err := a.carve(runSize)
	if err != nil {
		return nil, err
	}
	slots := int(runSize / classes[ci])
	r := &run{base: base, class: ci, slots: slots, freeBits: make([]bool, slots), bump: slots}
	// Carving is sequential, so new runs always have the highest base.
	a.runList = append(a.runList, r)
	a.partial[ci] = append(a.partial[ci], r)
	return r, nil
}

func (a *Allocator) removePartial(ci int, r *run) {
	list := a.partial[ci]
	for i, got := range list {
		if got == r {
			a.partial[ci] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// carve takes n bytes (page-multiple) from the newest chunk, mapping a new
// chunk when exhausted.
func (a *Allocator) carve(n uint64) (mem.Addr, error) {
	if len(a.chunks) == 0 || a.chunkOff+n > a.chunks[len(a.chunks)-1].Size() {
		c, err := a.space.Map(chunkSize)
		if err != nil {
			return 0, err
		}
		a.chunks = append(a.chunks, c)
		a.chunkOff = 0
		a.extent += chunkSize
	}
	c := a.chunks[len(a.chunks)-1]
	addr := c.Base() + mem.Addr(a.chunkOff)
	a.chunkOff += n
	return addr, nil
}

func (a *Allocator) allocLarge(size uint64) (mem.Addr, error) {
	r, err := a.space.Map(size)
	if err != nil {
		return 0, err
	}
	a.large[r.Base()] = r
	a.largeSize[r.Base()] = size
	a.active += size
	a.extent += r.Size()
	return r.Base(), nil
}

// Free releases the block at addr.
func (a *Allocator) Free(addr mem.Addr) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.frees++
	if r, ok := a.large[addr]; ok {
		a.active -= a.largeSize[addr]
		a.extent -= r.Size()
		delete(a.large, addr)
		delete(a.largeSize, addr)
		return a.space.Unmap(r)
	}
	size, ok := a.sizes[addr]
	if !ok {
		return fmt.Errorf("mallocsim: free of unknown address %#x", addr)
	}
	r := a.runOf(addr)
	if r == nil {
		return fmt.Errorf("mallocsim: address %#x not in any run", addr)
	}
	slot := int(uint64(addr-r.base) / classes[r.class])
	if r.freeBits[slot] {
		return fmt.Errorf("mallocsim: double free at %#x", addr)
	}
	r.freeBits[slot] = true
	if r.nFree == 0 && r.bump == 0 {
		a.partial[r.class] = append(a.partial[r.class], r)
	}
	r.nFree++
	delete(a.sizes, addr)
	a.active -= size
	// jemalloc-style purge: a fully-empty run returns its pages.
	if r.nFree+r.bump == r.slots {
		a.purgeRun(r)
	}
	return nil
}

// purgeRun resets a run to pristine (all-bump) state and releases its pages.
func (a *Allocator) purgeRun(r *run) {
	r.nFree = 0
	r.bump = r.slots
	for i := range r.freeBits {
		r.freeBits[i] = false
	}
	_ = a.space.DontNeed(r.base, runSize)
	a.purgedRuns++
}

// runOf locates the run containing addr by binary search over run bases.
func (a *Allocator) runOf(addr mem.Addr) *run {
	lo, hi := 0, len(a.runList)
	for lo < hi {
		mid := (lo + hi) / 2
		r := a.runList[mid]
		switch {
		case addr < r.base:
			hi = mid
		case addr >= r.base+runSize:
			lo = mid + 1
		default:
			return r
		}
	}
	return nil
}

// UsableSize returns the class size (or mapped size) of the block at addr.
func (a *Allocator) UsableSize(addr mem.Addr) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s, ok := a.largeSize[addr]; ok {
		return s
	}
	if r := a.runOf(addr); r != nil {
		return classes[r.class]
	}
	return 0
}

// ActiveBytes returns the requested bytes of live objects.
func (a *Allocator) ActiveBytes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active
}

// HeapExtent returns the virtual bytes under the allocator's management.
func (a *Allocator) HeapExtent() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.extent
}

// DefragHint reports whether the object at addr would benefit from being
// reallocated: it sits in a sparsely-occupied run while denser placement
// exists for its class. This models jemalloc's get_defrag_hint, the
// allocator half of Redis's activedefrag protocol; the application is
// responsible for reallocating, copying, and rewriting its own pointers.
func (a *Allocator) DefragHint(addr mem.Addr) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.large[addr]; ok {
		return false
	}
	r := a.runOf(addr)
	if r == nil {
		return false
	}
	occ := r.occupancy()
	if occ >= 0.5 {
		return false
	}
	// Moving helps only if some other run of the class is denser.
	for _, other := range a.partial[r.class] {
		if other != r && other.occupancy() > occ {
			return true
		}
	}
	return false
}
