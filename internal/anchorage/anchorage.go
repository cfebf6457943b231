// Package anchorage implements the Anchorage service of §4.3: a
// deliberately simple, movement-first heap allocator plus the control
// algorithm that decides when and how aggressively to defragment.
//
// The allocator is a naïve bump allocator over fixed-size sub-heaps:
// allocations take exactly their (16-byte aligned) size from the bump
// pointer, and freed blocks are recycled through power-of-two-binned free
// lists where only the front of a bin is ever examined (O(1)). It has none
// of the anti-fragmentation machinery of modern allocators — it does not
// need any, because it can move objects: during a runtime barrier it
// copies unpinned objects from the top of a source sub-heap into holes
// lower in the heap, updates each object's HTE (one store), and returns
// the vacated pages to the kernel with the simulated MADV_DONTNEED.
//
// Bookkeeping invariants (all of it guarded by Service.mu). An alloc/free
// pair touches no hash map: a live object's objInfo is reached from its
// handle ID through an ID-indexed directory and is owned by exactly one
// sub-heap's unordered objs list, at position idx. Free flips live to
// false and unlinks the record from both; the record is never reused, so
// to a defrag pass that dropped the lock around a copy, pointer identity
// is object identity: `info.live && info.heap == hi && info.off == off`
// means "the object I snapshotted, where I left it", and an offset freed
// and handed out again in between fails it by construction. The free bins
// are FIFO queues: the fast path examines only their fronts, and holes
// come back out in the order they went in.
package anchorage

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"

	"alaska/internal/mem"
	"alaska/internal/rt"
)

// Config parameterizes the allocator and control algorithm.
type Config struct {
	// SubHeapSize is the extent of each sub-heap in bytes.
	SubHeapSize uint64
	// FragLow and FragHigh are the paper's [F_lb, F_ub] fragmentation
	// bounds (extent / active).
	FragLow, FragHigh float64
	// OverheadHigh is O_ub: the ceiling on the fraction of time spent
	// defragmenting; after a pass taking T_defrag, the controller sleeps
	// T_defrag/O_ub. OverheadLow (O_lb) bounds hysteresis on re-entry.
	OverheadLow, OverheadHigh float64
	// Alpha caps the fraction of the heap extent moved in a single pass.
	Alpha float64
	// WakeInterval is the waiting-state poll period (paper: 500 ms).
	WakeInterval time.Duration
	// MoveBandwidth converts bytes moved into simulated pause time
	// (bytes per second).
	MoveBandwidth float64
}

// DefaultConfig mirrors the paper's description: 500 ms polling, moderate
// bounds, and a copy bandwidth in the single-digit GiB/s range.
func DefaultConfig() Config {
	return Config{
		SubHeapSize:   2 << 20,
		FragLow:       1.2,
		FragHigh:      1.5,
		OverheadLow:   0.01,
		OverheadHigh:  0.05,
		Alpha:         0.25,
		WakeInterval:  500 * time.Millisecond,
		MoveBandwidth: 4 << 30,
	}
}

const alignment = 16

// alignUp rounds size to the allocator's alignment (minimum one unit).
func alignUp(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	return (size + alignment - 1) &^ (alignment - 1)
}

// bin returns the free-list bin for a block of the given size: bin k holds
// blocks with size in [2^k, 2^(k+1)).
func bin(size uint64) int { return bits.Len64(size) - 1 }

// hole is a free block within a sub-heap.
type hole struct {
	off  uint64
	size uint64
}

// holeQueue is one free bin: a FIFO of holes, buf[head:], oldest first. The
// consumed prefix is reclaimed when the queue runs empty or, on a push, by
// sliding the rest down once half the slice is consumed — so a bin in
// steady free-one-alloc-one churn never reallocates.
type holeQueue struct {
	buf  []hole
	head int
}

// holes returns the queued holes, front first (valid until the next mutation).
func (q *holeQueue) holes() []hole { return q.buf[q.head:] }

// popFront drops the front hole. The queue must not be empty.
func (q *holeQueue) popFront() {
	if q.head++; q.head == len(q.buf) {
		q.reset()
	}
}

// push appends a hole at the back.
func (q *holeQueue) push(h hole) {
	if q.head > 0 && q.head >= len(q.buf)/2 {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, h)
}

// removeAt drops the k-th queued hole (0 = front), keeping the order of
// the rest.
func (q *holeQueue) removeAt(k int) {
	k += q.head
	q.buf = append(q.buf[:k], q.buf[k+1:]...)
}

// reset empties the queue, keeping its storage.
func (q *holeQueue) reset() { q.buf, q.head = q.buf[:0], 0 }

// objInfo records where a live object currently sits. A record belongs to
// one object for good: Free clears live and nothing recycles the struct.
type objInfo struct {
	id    uint32
	live  bool   // false once freed (under Service.mu)
	heap  int    // sub-heap index
	idx   int    // position in that sub-heap's objs
	off   uint64 // offset within the sub-heap
	size  uint64 // requested size
	block uint64 // block (aligned/assigned) size
}

// subHeap is one bump-allocated extent.
type subHeap struct {
	region *mem.Region
	bump   uint64
	// free[k] queues the holes of bin k in the order they were freed; only
	// the front is checked on the allocation fast path (O(1) policy).
	free [64]holeQueue
	// objs lists the live objects placed here, in no order: objs[i].idx ==
	// i, and removal swaps the last record into the gap.
	objs []*objInfo
	live uint64 // live requested bytes
}

// link adds info to the sub-heap's object list.
func (sh *subHeap) link(info *objInfo) {
	info.idx = len(sh.objs)
	sh.objs = append(sh.objs, info)
}

// unlink swap-removes info from the sub-heap's object list.
func (sh *subHeap) unlink(info *objInfo) {
	last := len(sh.objs) - 1
	moved := sh.objs[last]
	sh.objs[info.idx], moved.idx = moved, info.idx
	sh.objs[last] = nil
	sh.objs = sh.objs[:last]
}

// takeFront pops the front hole of binIdx if it fits need, returning the
// whole block (the naïve allocator neither splits nor searches deeper —
// §4.3: "only the front of the list is checked"). The slack between the
// block and the request is internal waste that only compaction recovers.
func (sh *subHeap) takeFront(binIdx int, need uint64) (hole, bool) {
	q := &sh.free[binIdx]
	if hs := q.holes(); len(hs) > 0 && hs[0].size >= need {
		q.popFront()
		return hs[0], true
	}
	return hole{}, false
}

// pushHole returns a hole to the back of its bin.
func (sh *subHeap) pushHole(h hole) { sh.free[bin(h.size)].push(h) }

// takeFit removes and returns the first hole — whole bins are searched,
// from bin(need) up — that fits need bytes wholly below limit, giving back
// the remainder beyond need as a new hole. Relocation slow path only.
func (sh *subHeap) takeFit(need, limit uint64) (uint64, bool) {
	for b := bin(need); b < len(sh.free); b++ {
		for k, h := range sh.free[b].holes() {
			if h.size >= need && h.off+need <= limit {
				sh.free[b].removeAt(k)
				if rem := h.size - need; rem >= alignment {
					sh.pushHole(hole{off: h.off + need, size: rem})
				}
				return h.off, true
			}
		}
	}
	return 0, false
}

// idChunkBits sizes the leaves of the ID directory: 2^15 records (256 KiB
// of pointers) per chunk, so the top level over all 2^31 IDs is at most
// 2^16 chunk pointers.
const idChunkBits = 15

type idChunk [1 << idChunkBits]*objInfo

// idDir maps handle IDs to their objInfo through two levels, both made on
// demand: the handle table issues IDs densely from 0, so a store pays for
// the chunks its IDs fall in, and a far-off ID (a caller outside the table
// may pass one) costs one chunk and a longer top level, not a flat array.
type idDir []*idChunk

// slot returns where id's record pointer lives. If no chunk covers id yet,
// grow makes one (extending the top level to reach it); else it is nil.
func (d *idDir) slot(id uint32, grow bool) **objInfo {
	ci := int(id >> idChunkBits)
	if ci >= len(*d) || (*d)[ci] == nil {
		if !grow {
			return nil
		}
		if ci >= len(*d) {
			*d = append(*d, make(idDir, ci+1-len(*d))...)
		}
		(*d)[ci] = new(idChunk)
	}
	return &(*d)[ci][id&(1<<idChunkBits-1)]
}

// Service is the Anchorage service.
type Service struct {
	mu    sync.Mutex
	cfg   Config
	rt    *rt.Runtime
	space *mem.Space
	heaps []*subHeap
	// byID finds a live object's record from its handle ID; a freed ID's
	// slot is nil until the ID is handed out again.
	byID idDir

	active uint64
	// passMu serializes ConcurrentDefragPass invocations without blocking
	// allocators: with at most one speculative mover in flight, a handle ID
	// recycled mid-copy can never be in the moving state when the stale
	// commit arrives, so the commit safely fails instead of hijacking the
	// new object's entry.
	passMu sync.Mutex
	// copyMu is held by ConcurrentDefragPass from just before an entry
	// turns moving until its speculative copy is done, and taken once by
	// an accessor whose translation faulted on a moving entry
	// (RevalidateFaultHandler): the copy that abort orphaned may still be
	// reading the source, and the accessor may be about to store to it.
	// The paper lets that race run — the torn copy is discarded — but
	// mem.Space copies with no lock and Go has no racy load, so the
	// accessor waits the one object copy out. Only the abort path pays.
	// Free waits the same way when it frees the object being copied
	// (moving, guarded by mu): its block is about to be handed to a new
	// object and filled. Lock order: mu, then copyMu; a fault handler
	// runs with neither.
	copyMu sync.Mutex
	moving *objInfo
	// deferred holds source blocks vacated by ConcurrentDefragPass that
	// cannot be reused until every thread alive at commit time has crossed
	// a safepoint (a reader that translated just before the commit may
	// still hold a raw pointer into the old copy).
	deferred []deferredBlock
	// Stats.
	Passes     int64
	MovedBytes int64
	Truncated  int64 // bytes returned via DontNeed
	// ShrunkBytes counts internal waste recovered by in-place shrinking.
	ShrunkBytes int64
	// ConcurrentPasses / MoveAborts count pause-free passes and the moves
	// within them that lost the §7 commit race to a concurrent accessor.
	ConcurrentPasses int64
	MoveAborts       int64
}

// Metrics is a consistent snapshot of the service's defragmentation
// counters. The counter fields on Service are written under the service
// lock, so concurrent readers (e.g. alaskad's `stats` command while a
// pass runs) must go through this accessor rather than reading the
// fields directly.
type Metrics struct {
	Passes, ConcurrentPasses, MoveAborts int64
	MovedBytes, Truncated, ShrunkBytes   int64
	DeferredBlocks                       int
}

// MetricsSnapshot returns the counters under the service lock.
func (s *Service) MetricsSnapshot() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Metrics{
		Passes:           s.Passes,
		ConcurrentPasses: s.ConcurrentPasses,
		MoveAborts:       s.MoveAborts,
		MovedBytes:       s.MovedBytes,
		Truncated:        s.Truncated,
		ShrunkBytes:      s.ShrunkBytes,
		DeferredBlocks:   len(s.deferred),
	}
}

// deferredBlock is a vacated source block awaiting grace-period reuse.
type deferredBlock struct {
	heap int
	off  uint64
	size uint64
	snap map[*rt.Thread]uint64
}

var _ rt.Service = (*Service)(nil)

// NewService creates an Anchorage service on space.
func NewService(space *mem.Space, cfg Config) *Service {
	if cfg.SubHeapSize == 0 {
		cfg = DefaultConfig()
	}
	return &Service{cfg: cfg, space: space}
}

// Init implements rt.Service.
func (s *Service) Init(r *rt.Runtime) error {
	s.rt = r
	return nil
}

// Deinit implements rt.Service.
func (s *Service) Deinit() error { return nil }

// Name implements rt.Service.
func (s *Service) Name() string { return "anchorage" }

// newSubHeap maps a fresh sub-heap.
func (s *Service) newSubHeap(minSize uint64) (*subHeap, error) {
	size := s.cfg.SubHeapSize
	if minSize > size {
		size = minSize // oversized objects get a dedicated sub-heap
	}
	r, err := s.space.Map(size)
	if err != nil {
		return nil, err
	}
	sh := &subHeap{region: r}
	s.heaps = append(s.heaps, sh)
	return sh, nil
}

// allocBlock finds a block of at least `need` bytes: free-list fronts
// first (the bin that guarantees a fit, then the bin of need itself whose
// front might fit), then bump space, then a new sub-heap. The returned
// hole may be larger than need (no splitting on the fast path).
func (s *Service) allocBlock(need uint64) (int, hole, error) {
	guarantee := bin(need)
	if need&(need-1) != 0 {
		guarantee++
	}
	for hi, sh := range s.heaps {
		if h, ok := sh.takeFront(guarantee, need); ok {
			return hi, h, nil
		}
		if guarantee != bin(need) {
			if h, ok := sh.takeFront(bin(need), need); ok {
				return hi, h, nil
			}
		}
	}
	for hi, sh := range s.heaps {
		if sh.bump+need <= sh.region.Size() {
			off := sh.bump
			sh.bump += need
			return hi, hole{off: off, size: need}, nil
		}
	}
	sh, err := s.newSubHeap(need)
	if err != nil {
		return 0, hole{}, err
	}
	sh.bump = need
	return len(s.heaps) - 1, hole{off: 0, size: need}, nil
}

// Alloc implements rt.Service.
func (s *Service) Alloc(id uint32, size uint64) (mem.Addr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	need := alignUp(size)
	hi, h, err := s.allocBlock(need)
	if err != nil {
		return 0, err
	}
	sh := s.heaps[hi]
	info := &objInfo{id: id, live: true, heap: hi, off: h.off, size: size, block: h.size}
	sh.link(info)
	sh.live += size
	*s.byID.slot(id, true) = info
	s.active += size
	return sh.region.Base() + mem.Addr(h.off), nil
}

// Free implements rt.Service.
func (s *Service) Free(id uint32, _ mem.Addr, _ uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := s.byID.slot(id, false)
	if slot == nil || *slot == nil {
		return fmt.Errorf("anchorage: free of unknown handle %d", id)
	}
	info := *slot
	if info == s.moving {
		s.copyMu.Lock() // the pass is still reading this block: see copyMu
		s.copyMu.Unlock()
	}
	sh := s.heaps[info.heap]
	sh.unlink(info)
	*slot = nil
	info.live = false
	sh.live -= info.size
	s.active -= info.size
	sh.pushHole(hole{off: info.off, size: info.block})
	return nil
}

// UsableSize implements rt.Service.
func (s *Service) UsableSize(addr mem.Addr) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.heaps {
		if sh.region.Contains(addr) {
			for _, info := range sh.objs {
				if info.off == uint64(addr-sh.region.Base()) {
					return info.block
				}
			}
		}
	}
	return 0
}

// HeapExtent implements rt.Service: the summed bump extents — the
// numerator of the O(1) fragmentation metric.
func (s *Service) HeapExtent() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.extentLocked()
}

func (s *Service) extentLocked() uint64 {
	var e uint64
	for _, sh := range s.heaps {
		e += sh.bump
	}
	return e
}

// ActiveBytes implements rt.Service.
func (s *Service) ActiveBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Fragmentation returns extent/active (1 when empty).
func (s *Service) Fragmentation() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == 0 {
		return 1
	}
	return float64(s.extentLocked()) / float64(s.active)
}

// allocBlockForMove finds a destination for relocating an object of size
// need that currently sits at (srcHeap, srcOff): holes or bump space in
// lower sub-heaps, else a strictly-lower hole in the source sub-heap.
// Unlike allocBlock it may search whole bins (it runs on the relocation
// slow path — under s.mu from either a barrier DefragPass or a
// ConcurrentDefragPass — where thoroughness beats O(1)) and never maps a
// new sub-heap.
func (s *Service) allocBlockForMove(need uint64, srcHeap int, srcOff uint64) (int, uint64, bool) {
	for hi := 0; hi < srcHeap; hi++ {
		sh := s.heaps[hi]
		if off, ok := sh.takeFit(need, math.MaxUint64); ok {
			return hi, off, true
		}
		if sh.bump+need <= sh.region.Size() {
			off := sh.bump
			sh.bump += need
			return hi, off, true
		}
	}
	// Intra-heap: only a hole strictly below the object helps compaction.
	off, ok := s.heaps[srcHeap].takeFit(need, srcOff)
	return srcHeap, off, ok
}

// coalesce merges adjacent holes in a sub-heap so compaction can place
// objects larger than any single fragment. It runs only inside barriers
// (the world is stopped, so O(holes log holes) is acceptable there).
func (sh *subHeap) coalesce() {
	var all []hole
	for b := range sh.free {
		all = append(all, sh.free[b].holes()...)
		sh.free[b].reset()
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i].off < all[j].off })
	cur := all[0]
	for _, h := range all[1:] {
		if cur.off+cur.size == h.off {
			cur.size += h.size
			continue
		}
		sh.pushHole(cur)
		cur = h
	}
	sh.pushHole(cur)
}

// placed is an object as a pass snapshotted it: its record and offset then.
type placed struct {
	info *objInfo
	off  uint64
}

// stillAt reports whether the record is the object snapshotted, where it
// was in sub-heap hi: not freed since, not moved. Caller holds s.mu.
func (o placed) stillAt(hi int) bool {
	return o.info.live && o.info.heap == hi && o.info.off == o.off
}

// snapshot copies out a sub-heap's objects (caller holds s.mu) for the
// pass to sort by offset descending, the order it vacates them in.
func (sh *subHeap) snapshot() []placed {
	objs := make([]placed, len(sh.objs))
	for i, info := range sh.objs {
		objs[i] = placed{info, info.off}
	}
	return objs
}

// relink records that info now sits at (dhi, doff), moving it between the
// sub-heaps' lists and live-byte counts when the heap changed.
func (s *Service) relink(info *objInfo, dhi int, doff uint64) {
	if dhi != info.heap {
		src, dst := s.heaps[info.heap], s.heaps[dhi]
		src.unlink(info)
		src.live -= info.size
		dst.link(info)
		dst.live += info.size
		info.heap = dhi
	}
	info.off = doff
}

// DefragPass moves up to budget bytes of unpinned objects out of the
// topmost occupied sub-heaps into lower holes, truncates vacated tails,
// and returns the pages with DontNeed. Must be called inside a barrier.
// It returns the number of bytes moved.
//
// It serializes with ConcurrentDefragPass on passMu: the barrier stops
// registered threads but not the (unregistered) mover goroutine, and a
// mid-flight concurrent pass holds state invisible to this one — a
// reserved destination block and vacated-but-not-yet-deferred source
// blocks — that truncate would otherwise reclaim from under it.
func (s *Service) DefragPass(scope *rt.BarrierScope, budget uint64) uint64 {
	s.passMu.Lock()
	defer s.passMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Passes++
	// First recover internal waste: the naïve fast path hands out whole
	// free blocks, so a 64-byte object may own a 1 KiB block. With the
	// world stopped the service can shrink every block to its aligned
	// request size in place (no copy, no reference update — the object
	// does not move) and return the slack to the free lists.
	for _, sh := range s.heaps {
		for _, info := range sh.objs {
			need := alignUp(info.size)
			if info.block > need {
				sh.pushHole(hole{off: info.off + need, size: info.block - need})
				s.ShrunkBytes += int64(info.block - need)
				info.block = need
			}
		}
		sh.coalesce()
	}
	var moved uint64
	// Work from the top sub-heap downward.
	for hi := len(s.heaps) - 1; hi >= 0 && moved < budget; hi-- {
		src := s.heaps[hi]
		if len(src.objs) == 0 {
			s.truncate(src)
			continue
		}
		// Objects sorted by offset descending: vacate the top first.
		objs := src.snapshot()
		sort.Slice(objs, func(i, j int) bool { return objs[i].off > objs[j].off })
		for _, o := range objs {
			if moved >= budget {
				break
			}
			info, off := o.info, o.off
			if scope.Pinned(info.id) {
				continue
			}
			dhi, doff, ok := s.allocBlockForMove(info.block, hi, off)
			if !ok {
				continue // no better placement exists; leave the object
			}
			dst := s.heaps[dhi].region.Base() + mem.Addr(doff)
			if err := scope.Relocate(info.id, dst); err != nil {
				s.heaps[dhi].pushHole(hole{off: doff, size: info.block})
				continue
			}
			// The vacated slot becomes a hole; truncate drops it again if
			// it ends up above the new bump.
			src.pushHole(hole{off: off, size: info.block})
			s.relink(info, dhi, doff)
			moved += info.size
		}
		s.truncate(src)
	}
	s.MovedBytes += int64(moved)
	return moved
}

// truncate shrinks a sub-heap's bump to the end of its highest live
// object, drops now-dead holes above the new bump (trimming holes that
// straddle it), and returns the vacated whole pages to the kernel.
func (s *Service) truncate(sh *subHeap) {
	var high uint64
	for _, info := range sh.objs {
		if end := info.off + info.block; end > high {
			high = end
		}
	}
	// Blocks vacated by a concurrent pass but still inside their grace
	// period hold their address space: a straggling reader may still be
	// using them, so they pin the bump like live objects until drained.
	for _, d := range s.deferred {
		if s.heaps[d.heap] == sh {
			if end := d.off + d.size; end > high {
				high = end
			}
		}
	}
	if high >= sh.bump {
		return
	}
	old := sh.bump
	sh.bump = high
	var keep []hole
	for b := range sh.free {
		for _, h := range sh.free[b].holes() {
			switch {
			case h.off >= high:
				// entirely above the new bump: gone
			case h.off+h.size > high:
				keep = append(keep, hole{off: h.off, size: high - h.off})
			default:
				keep = append(keep, h)
			}
		}
		sh.free[b].reset()
	}
	for _, h := range keep {
		sh.pushHole(h)
	}
	start := sh.region.Base() + mem.Addr(high)
	n := old - high
	if err := s.space.DontNeed(start, n); err == nil {
		s.Truncated += int64(n)
	}
}

// NumSubHeaps reports how many sub-heaps exist (diagnostics).
func (s *Service) NumSubHeaps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.heaps)
}

// RevalidateFaultHandler returns the accessor side of the §7 protocol for
// runtimes that run ConcurrentDefragPass: a translation that faults on a
// moving entry revalidates it in place, aborting the in-flight move, waits
// for the mover's now-orphaned copy to stop reading the object (see
// Service.copyMu), and retries at the original address. Install via
// rt.WithFaultHandler (or chain it with a swap handler).
func RevalidateFaultHandler() rt.FaultHandler {
	return func(r *rt.Runtime, id uint32) error {
		_, err := r.Table.Revalidate(id)
		if s, ok := r.Service().(*Service); ok {
			s.copyMu.Lock()
			s.copyMu.Unlock()
		}
		return err
	}
}

// ConcurrentDefragPass moves up to budget bytes of objects out of the
// topmost occupied sub-heaps without stopping the world, using the handle
// table's speculative-move protocol (§7) instead of a barrier: each object
// is CASed into the moving state, copied, and committed; a reader that
// translates it mid-copy faults, revalidates the entry (via
// RevalidateFaultHandler), and thereby aborts that one move — no pause,
// no lost reads. Vacated source blocks are not reused immediately: they
// are parked on a deferred list until every runtime thread registered at
// commit time has crossed a safepoint, since a reader that translated
// just before the commit may legally keep using the old copy until its
// next poll (the same grace-period handshake the reloc package performs).
//
// Contract: like reloc.Mover.TryMove, callers must only run this while no
// thread holds a *pinned* translation across safepoints with intent to
// write — a pinned writer's store to the old copy after the commit wins
// the race and is lost. Objects with a nonzero CountedPins count are
// skipped (rechecked after the moving transition, so a pin that slipped
// in between check and transition aborts the move); StackPins pin sets
// are invisible outside a barrier, so that discipline is the caller's
// (see the concurrency tests). The pass must also be the runtime's only
// relocator: passes and barrier DefragPasses serialize on an internal
// mutex, but mixing in a separate reloc.Mover — or another barrier-time
// relocator such as the locality optimizer — on the same runtime would
// reopen the recycled-ID and SetBacking races the serialization closes.
// The pass never truncates sub-heaps —
// deferred blocks above the high-water mark keep their pages until
// DrainDeferred returns them and a later barrier pass truncates.
//
// The service lock is dropped around each object copy, so concurrent
// Alloc/Free stall for at most one object's bookkeeping, not the whole
// budgeted sweep; an object freed mid-copy — even if its offset has since
// gone to a new object — is detected by its own record (no longer live)
// before the move is recorded, and the copy is discarded.
func (s *Service) ConcurrentDefragPass(budget uint64) uint64 {
	s.passMu.Lock()
	defer s.passMu.Unlock()
	s.mu.Lock()
	s.ConcurrentPasses++
	s.drainDeferredLocked()
	nHeaps := len(s.heaps)
	s.mu.Unlock()

	var moved uint64
	var vacated []deferredBlock
	for hi := nHeaps - 1; hi >= 0 && moved < budget; hi-- {
		s.mu.Lock()
		objs := s.heaps[hi].snapshot()
		s.mu.Unlock()
		sort.Slice(objs, func(i, j int) bool { return objs[i].off > objs[j].off })
		for _, o := range objs {
			if moved >= budget {
				break
			}
			info, off := o.info, o.off
			s.mu.Lock()
			if !o.stillAt(hi) || s.rt.Table.PinCount(info.id) > 0 {
				s.mu.Unlock()
				continue // freed meanwhile, or demonstrably pinned
			}
			// Taken before the entry turns moving, so an accessor that
			// faults on it finds copyMu held until the copy is over.
			s.copyMu.Lock()
			entry, err := s.rt.Table.BeginSpeculativeMove(info.id)
			if err != nil {
				s.copyMu.Unlock()
				s.mu.Unlock()
				continue // not published yet (mid-Halloc), freed, or already moving
			}
			// Re-check pins after the moving transition: a pin taken in the
			// window between the check above and the transition translated a
			// still-valid entry and holds a raw address the commit would
			// invalidate. Any pin taken after this point must translate the
			// now-invalid entry, fault, and revalidate — aborting the
			// commit — so the recheck closes the window.
			if s.rt.Table.PinCount(info.id) > 0 {
				_, _ = s.rt.Table.Revalidate(info.id)
				s.copyMu.Unlock()
				s.mu.Unlock()
				continue
			}
			dhi, doff, ok := s.allocBlockForMove(info.block, hi, off)
			if !ok {
				_, _ = s.rt.Table.Revalidate(info.id)
				s.copyMu.Unlock()
				s.mu.Unlock()
				continue
			}
			dst := s.heaps[dhi].region.Base() + mem.Addr(doff)
			size, block := info.size, info.block
			s.moving = info
			s.mu.Unlock()

			// Copy outside the service lock: the destination block is
			// reserved, the entry is in the moving state, and allocators
			// are free to run.
			committed := false
			err = s.space.Copy(dst, entry.Backing, size)
			s.copyMu.Unlock()
			if err != nil {
				_, _ = s.rt.Table.Revalidate(info.id)
			} else if s.rt.Table.CommitSpeculativeMove(info.id, dst) {
				committed = true
			}

			s.mu.Lock()
			s.moving = nil
			if !committed {
				// A concurrent accessor revalidated the entry (or it was
				// freed mid-copy): the object stays put; discard the copy.
				s.MoveAborts++
				s.heaps[dhi].pushHole(hole{off: doff, size: block})
				s.mu.Unlock()
				continue
			}
			if !o.stillAt(hi) {
				// Freed during the copy. The freeing Hfree already recycled the
				// source block and the handle entry; drop the unreferenced copy.
				s.heaps[dhi].pushHole(hole{off: doff, size: block})
				s.mu.Unlock()
				continue
			}
			vacated = append(vacated, deferredBlock{heap: hi, off: off, size: block})
			s.relink(info, dhi, doff)
			moved += size
			s.mu.Unlock()
		}
	}
	// One snapshot taken after every commit is at least as late — hence at
	// least as conservative — as a per-move snapshot, at a fraction of the
	// cost (EpochSnapshot locks the runtime and allocates per thread).
	snap := s.rt.EpochSnapshot()
	s.mu.Lock()
	for i := range vacated {
		vacated[i].snap = snap
	}
	s.deferred = append(s.deferred, vacated...)
	s.MovedBytes += int64(moved)
	s.mu.Unlock()
	return moved
}

// DrainDeferred returns vacated source blocks whose grace period has
// elapsed to their sub-heaps' free lists and reports how many bytes were
// recovered. ConcurrentDefragPass drains opportunistically; callers may
// also invoke it directly (e.g. before reading fragmentation stats).
func (s *Service) DrainDeferred() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainDeferredLocked()
}

func (s *Service) drainDeferredLocked() uint64 {
	if len(s.deferred) == 0 {
		return 0
	}
	kept := s.deferred[:0]
	var drained uint64
	for _, d := range s.deferred {
		// QuiescentSince counts parked and external threads as safe: a
		// parked thread crossed a safepoint to park (killing its unpinned
		// raw pointers by the Translate contract), and external code
		// performs no translations (§4.1.3) — so an idle barrier-initiator
		// thread, e.g. the kv backend's permanently-external primary, does
		// not postpone reuse forever.
		if !s.rt.QuiescentSince(d.snap) {
			kept = append(kept, d)
			continue
		}
		s.heaps[d.heap].pushHole(hole{off: d.off, size: d.size})
		drained += d.size
	}
	s.deferred = kept
	return drained
}

// DeferredBlocks reports how many vacated blocks await their grace period
// (diagnostics).
func (s *Service) DeferredBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.deferred)
}
