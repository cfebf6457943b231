// Package anchorage implements the Anchorage service of §4.3: a
// deliberately simple, movement-first heap allocator plus the control
// algorithm that decides when and how aggressively to defragment.
//
// The allocator is a naïve first-fit allocator over fixed-size sub-heaps.
// Every block is exactly its request rounded up to 16 bytes. Freed blocks
// wait in power-of-two-binned FIFO free lists; a request takes the first
// hole that fits — bins from its own size's up, each front to back — in
// the lowest sub-heap that has one or bump room, and the rest of the hole
// goes back to its bin. It has none of the anti-fragmentation machinery of
// modern allocators — it does not need any, because it can move objects:
// during a runtime barrier it copies unpinned objects from the top of a
// source sub-heap into holes lower in the heap, updates each object's HTE
// (one store), and returns the vacated pages to the kernel with the
// simulated MADV_DONTNEED.
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
// are FIFO queues: holes come back out in the order they went in.
package anchorage

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
	// T_defrag/O_ub.
	OverheadHigh float64
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
// the rest. It slides the shorter side over the gap, so taking a hole near
// the front — where a first-fit scan stops — costs no more than the scan
// that found it.
func (q *holeQueue) removeAt(k int) {
	k += q.head
	if k-q.head <= len(q.buf)-1-k {
		copy(q.buf[q.head+1:k+1], q.buf[q.head:k])
		q.popFront()
		return
	}
	q.buf = append(q.buf[:k], q.buf[k+1:]...)
}

// reset empties the queue, keeping its storage.
func (q *holeQueue) reset() { q.buf, q.head = q.buf[:0], 0 }

// objInfo records where a live object currently sits; its block is
// alignUp(size) bytes at off. A record belongs to one object for good:
// Free clears live and nothing recycles the struct.
type objInfo struct {
	id   uint32
	live bool   // false once freed (under Service.mu)
	heap int    // sub-heap index
	idx  int    // position in that sub-heap's objs
	off  uint64 // offset within the sub-heap
	size uint64 // requested size
}

// subHeap is one bump-allocated extent.
type subHeap struct {
	region *mem.Region
	bump   uint64
	// free[k] queues the holes of bin k in the order they were freed.
	free [64]holeQueue
	// nonEmpty has bit k set whenever free[k] holds a hole, so findFit
	// visits only bins worth scanning. takeAt clears the bit of a bin it
	// empties and resetBins clears them all.
	nonEmpty uint64
	// maxSize[k] is at least the size of every hole in free[k], so findFit
	// skips a bin with nothing large enough without scanning it: pushHole
	// raises it, and a scan that reaches the end of the bin sets it to the
	// largest hole there (0 when the bin is empty).
	maxSize [64]uint64
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

// pushHole returns a hole to the back of its bin.
func (sh *subHeap) pushHole(h hole) {
	b := bin(h.size)
	sh.free[b].push(h)
	sh.nonEmpty |= 1 << b
	sh.maxSize[b] = max(sh.maxSize[b], h.size)
}

// resetBins empties every bin, keeping their storage.
func (sh *subHeap) resetBins() {
	for b := range sh.free {
		sh.free[b].reset()
	}
	sh.nonEmpty = 0
	sh.maxSize = [64]uint64{}
}

// findFit finds the first hole that fits need bytes wholly below limit,
// searching bins from bin(need) up and each bin front to back: the k-th
// queued hole of bin b. It takes nothing, so a caller that then rejects
// its candidate leaves the bins as they were.
func (sh *subHeap) findFit(need, limit uint64) (b, k int, ok bool) {
	for m := sh.nonEmpty &^ (1<<bin(need) - 1); m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if sh.maxSize[b] < need {
			continue
		}
		var largest uint64
		for k, h := range sh.free[b].holes() {
			if h.size >= need && h.off+need <= limit {
				return b, k, true
			}
			largest = max(largest, h.size)
		}
		sh.maxSize[b] = largest
	}
	return 0, 0, false
}

// takeAt removes the hole findFit named and returns its offset, giving
// back the remainder beyond need as a new hole.
func (sh *subHeap) takeAt(b, k int, need uint64) uint64 {
	q := &sh.free[b]
	h := q.holes()[k]
	q.removeAt(k)
	if len(q.holes()) == 0 {
		sh.nonEmpty &^= 1 << b
		sh.maxSize[b] = 0
	}
	if rem := h.size - need; rem >= alignment {
		sh.pushHole(hole{off: h.off + need, size: rem})
	}
	return h.off
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
	// snap and vacated are a pass's candidate snapshot and the source
	// blocks it has vacated and not yet deferred; holes is coalesce's and
	// truncate's scratch. The storage outlives the pass so a pass every
	// maintenance tick allocates nothing. Guarded by passMu (snap, and
	// vacated's being non-empty) and mu (vacated, holes).
	snap    []placed
	vacated []deferredBlock
	holes   []hole
	// Stats.
	Passes     int64
	MovedBytes int64
	Truncated  int64 // bytes returned via DontNeed
	// ConcurrentPasses / MoveAborts count pause-free passes and the moves
	// within them that lost the §7 commit race to a concurrent accessor.
	ConcurrentPasses int64
	MoveAborts       int64
	// Candidates counts the objects a pass of either kind looked for a
	// lower placement for; most have none.
	Candidates int64
}

// Metrics is a consistent snapshot of the service's defragmentation
// counters. The counter fields on Service are written under the service
// lock, so concurrent readers (e.g. alaskad's `stats` command while a
// pass runs) must go through this accessor rather than reading the
// fields directly.
type Metrics struct {
	Passes, ConcurrentPasses, MoveAborts int64
	MovedBytes, Truncated, Candidates    int64
	DeferredBlocks                       int
	Fragmentation                        float64 // as Service.Fragmentation, same lock hold
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
		Candidates:       s.Candidates,
		DeferredBlocks:   len(s.deferred),
		Fragmentation:    s.fragmentationLocked(),
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

// Config returns the configuration the service runs with.
func (s *Service) Config() Config { return s.cfg }

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
func (s *Service) newSubHeap(minSize uint64) error {
	size := s.cfg.SubHeapSize
	if minSize > size {
		size = minSize // oversized objects get a dedicated sub-heap
	}
	r, err := s.space.Map(size)
	if err != nil {
		return err
	}
	s.heaps = append(s.heaps, &subHeap{region: r})
	return nil
}

// dest is a place for a block: the k-th queued hole of bin b in sub-heap
// heap, or that sub-heap's bump space when b < 0.
type dest struct{ heap, b, k int }

// findBlock is the allocator's one search, for Alloc and the mover alike:
// the lowest of the first n sub-heaps with a hole that fits need bytes
// (findFit) or, failing a hole, bump room for them. It reserves nothing:
// the destination stands until s.mu is released or a bin changes, and
// takeBlock claims it.
func (s *Service) findBlock(need uint64, n int) (dest, bool) {
	for hi, sh := range s.heaps[:n] {
		if b, k, ok := sh.findFit(need, math.MaxUint64); ok {
			return dest{hi, b, k}, true
		}
		if sh.bump+need <= sh.region.Size() {
			return dest{hi, -1, 0}, true
		}
	}
	return dest{}, false
}

// takeBlock claims the destination d for a block of need bytes and
// returns its offset in s.heaps[d.heap].
func (s *Service) takeBlock(d dest, need uint64) uint64 {
	sh := s.heaps[d.heap]
	if d.b < 0 {
		off := sh.bump
		sh.bump += need
		return off
	}
	return sh.takeAt(d.b, d.k, need)
}

// Alloc implements rt.Service.
func (s *Service) Alloc(id uint32, size uint64) (mem.Addr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	need := alignUp(size)
	d, ok := s.findBlock(need, len(s.heaps))
	if !ok {
		if err := s.newSubHeap(need); err != nil {
			return 0, err
		}
		d = dest{len(s.heaps) - 1, -1, 0}
	}
	off := s.takeBlock(d, need)
	sh := s.heaps[d.heap]
	info := &objInfo{id: id, live: true, heap: d.heap, off: off, size: size}
	sh.link(info)
	sh.live += size
	*s.byID.slot(id, true) = info
	s.active += size
	return sh.region.Base() + mem.Addr(off), nil
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
	sh.pushHole(hole{off: info.off, size: alignUp(info.size)})
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
					return alignUp(info.size)
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
	return s.fragmentationLocked()
}

func (s *Service) fragmentationLocked() float64 {
	if s.active == 0 {
		return 1
	}
	return float64(s.extentLocked()) / float64(s.active)
}

// findBlockForMove finds a destination for relocating a block of need
// bytes that currently sits at (srcHeap, srcOff): findBlock over the
// sub-heaps below the source, else a hole strictly below the object in its
// own sub-heap. It never maps a new sub-heap.
func (s *Service) findBlockForMove(need uint64, srcHeap int, srcOff uint64) (dest, bool) {
	if d, ok := s.findBlock(need, srcHeap); ok {
		return d, true
	}
	b, k, ok := s.heaps[srcHeap].findFit(need, srcOff)
	return dest{srcHeap, b, k}, ok
}

// byOffset orders holes by offset; offsets within a sub-heap are unique.
func byOffset(a, b hole) int { return cmp.Compare(a.off, b.off) }

// coalesce merges adjacent holes in a sub-heap so compaction can place
// objects larger than any single fragment: O(holes log holes) under s.mu,
// once per sub-heap per pass. scratch is storage for the sorted holes; the
// (possibly grown) slice is returned for the next call.
func (sh *subHeap) coalesce(scratch []hole) []hole {
	all := scratch[:0]
	for b := range sh.free {
		all = append(all, sh.free[b].holes()...)
	}
	if len(all) == 0 {
		return all
	}
	sh.resetBins()
	slices.SortFunc(all, byOffset)
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
	return all
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

// candidates copies out a sub-heap's objects (caller holds s.mu; the
// storage is the pass's, guarded by passMu) for the pass to put in the
// order it vacates them in: offset descending, the top first.
func (s *Service) candidates(sh *subHeap) []placed {
	objs := s.snap[:0]
	for _, info := range sh.objs {
		objs = append(objs, placed{info, info.off})
	}
	s.snap = objs
	return objs
}

// relocator is the one step the barrier pass and the pause-free pass do
// differently: moving the object o, found live at o.off in sub-heap hi, to
// the destination d just found for it. It is called with s.mu held, may
// drop it meanwhile, returns with it held, and reports the bytes moved —
// zero if the object stays, in which case it has given back whatever it
// took of d.
type relocator func(o placed, hi int, d dest) uint64

// compact is the part of a defragmentation pass that comes before
// truncation: it coalesces every sub-heap's holes, then moves up to budget
// bytes of objects out of the topmost
// occupied sub-heaps into holes and bump space below them. It reports the
// bytes moved and the lowest sub-heap the move loop reached (len(s.heaps)
// if none). The caller holds passMu and not s.mu, which compact takes a
// sub-heap or a candidate at a time so allocators get in between.
//
// A candidate's destination is looked for first: most candidates of a
// pass have nowhere lower to go, and rejecting one costs a scan of the
// bins its size could come out of, with no handle-table traffic and
// nothing taken that must be put back.
func (s *Service) compact(budget uint64, relocate relocator) (moved uint64, lowest int) {
	s.mu.Lock()
	lowest = len(s.heaps)
	s.mu.Unlock()
	for hi := 0; hi < lowest; hi++ {
		s.mu.Lock()
		s.holes = s.heaps[hi].coalesce(s.holes)
		s.mu.Unlock()
	}
	// Work from the top sub-heap downward.
	for moved < budget && lowest > 0 {
		lowest--
		s.mu.Lock()
		objs := s.candidates(s.heaps[lowest])
		s.mu.Unlock()
		slices.SortFunc(objs, func(a, b placed) int { return cmp.Compare(b.off, a.off) })
		for _, o := range objs {
			if moved >= budget {
				break
			}
			s.mu.Lock()
			if o.stillAt(lowest) { // else freed meanwhile
				s.Candidates++
				if d, ok := s.findBlockForMove(alignUp(o.info.size), lowest, o.off); ok {
					n := relocate(o, lowest, d)
					moved += n
					s.MovedBytes += int64(n)
				} // else no better placement exists; leave the object
			}
			s.mu.Unlock()
		}
	}
	return moved, lowest
}

// DefragPass moves up to budget bytes of unpinned objects out of the
// topmost occupied sub-heaps into lower holes, truncates the tails of the
// sub-heaps it got to, and returns the pages with DontNeed. Must be called
// inside a barrier. It returns the number of bytes moved.
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
	s.Passes++
	s.mu.Unlock()
	moved, lowest := s.compact(budget, func(o placed, hi int, d dest) uint64 {
		info := o.info
		if scope.Pinned(info.id) {
			return 0
		}
		block := alignUp(info.size)
		doff := s.takeBlock(d, block)
		dst := s.heaps[d.heap].region.Base() + mem.Addr(doff)
		if err := scope.Relocate(info.id, dst); err != nil {
			s.heaps[d.heap].pushHole(hole{off: doff, size: block})
			return 0
		}
		// The world is stopped: the vacated slot is a hole at once;
		// truncate drops it again if it ends up above the new bump.
		s.heaps[hi].pushHole(hole{off: o.off, size: block})
		s.relink(info, d.heap, doff)
		return info.size
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	s.truncateFrom(lowest)
	return moved
}

// truncate shrinks a sub-heap's bump to the end of its highest live
// object, drops now-dead holes above the new bump (trimming holes that
// straddle it), and returns the vacated whole pages to the kernel.
func (s *Service) truncate(sh *subHeap) {
	var high uint64
	for _, info := range sh.objs {
		if end := info.off + alignUp(info.size); end > high {
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
	keep := s.holes[:0]
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
	}
	sh.resetBins()
	for _, h := range keep {
		sh.pushHole(h)
	}
	s.holes = keep
	start := sh.region.Base() + mem.Addr(high)
	n := old - high
	if err := s.space.DontNeed(start, n); err == nil {
		s.Truncated += int64(n)
	}
}

// truncateFrom truncates sub-heap lo and every one above it.
func (s *Service) truncateFrom(lo int) {
	for _, sh := range s.heaps[lo:] {
		s.truncate(sh)
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

// ConcurrentDefragPass is the compaction pass with the barrier taken out:
// it coalesces holes, moves up to budget bytes of objects out of the
// topmost occupied sub-heaps, and truncates every sub-heap, returning the
// pages above to the kernel — all without stopping the world. Each stage
// is safe with threads running for its own reason:
//
//   - Coalescing moves no object and touches no handle entry; it only
//     re-labels free bytes, under s.mu like any Free.
//   - Moving uses the handle table's speculative-move protocol (§7) instead
//     of a barrier: each object is CASed into the moving state, copied, and
//     committed; a reader that translates it mid-copy faults, revalidates
//     the entry (via RevalidateFaultHandler), and thereby aborts that one
//     move — no pause, no lost reads. Vacated source blocks are not reused
//     immediately: they are parked on a deferred list until every runtime
//     thread registered at commit time has crossed a safepoint, since a
//     reader that translated just before the commit may legally keep using
//     the old copy until its next poll (the grace-period handshake
//     concurrent compactors perform before recycling from-space).
//   - Truncating runs last, under s.mu, when the pass has no destination
//     reserved and every block it vacated is on the deferred list: truncate
//     holds a sub-heap's bump above its deferred blocks as it does above
//     live objects, so the pages given back are ones nothing — no live
//     object, no straggling reader's old copy — lies in.
//
// passMu is held throughout. It keeps passes (and barrier DefragPasses, and
// DrainDeferred's truncation) from seeing one another's reserved
// destinations and vacated-but-undeferred blocks, makes the pass the only
// speculative mover in flight, and guards the snapshot and vacated-block
// storage the pass reuses from call to call.
//
// Contract — readers translate, writers pin. A reader needs no pin: an
// unpinned translation on a running thread (rt.Thread.Translate, the kv
// store's GET path) may use its address until the thread's next poll,
// because a move committed in between leaves the old copy intact on the
// deferred list until then. A writer must pin: a store through an
// address the pass has committed away from lands in the old copy and is
// lost. Objects with a nonzero CountedPins count are skipped (rechecked
// after the moving transition, so a pin that slipped in between check and
// transition aborts the move); StackPins pin sets are invisible outside a
// barrier, so under that mode keeping writers off the moved objects is
// the caller's discipline (see the concurrency tests). The pass must also
// be the runtime's only relocator: passes and barrier DefragPasses
// serialize on passMu, but mixing in another speculative mover — or
// another barrier-time relocator such as the locality optimizer — on the
// same runtime would reopen the recycled-ID and SetBacking races the
// serialization closes.
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
	s.mu.Unlock()
	moved, _ := s.compact(budget, s.moveSpeculatively)
	// One snapshot taken after every commit is at least as late — hence at
	// least as conservative — as a per-move snapshot, at a fraction of the
	// cost (EpochSnapshot locks the runtime and allocates per thread).
	var snap map[*rt.Thread]uint64
	if len(s.vacated) > 0 {
		snap = s.rt.EpochSnapshot()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.vacated {
		d.snap = snap
		s.deferred = append(s.deferred, d)
	}
	s.vacated = s.vacated[:0]
	s.drainDeferredLocked()
	s.truncateFrom(0)
	return moved
}

// moveSpeculatively is ConcurrentDefragPass's relocator. Until it takes d
// it has changed nothing but the handle entry, which it revalidates: a
// candidate rejected for a pin or an unpublished entry leaves every free
// bin as it found it.
func (s *Service) moveSpeculatively(o placed, hi int, d dest) uint64 {
	info := o.info
	if s.rt.Table.PinCount(info.id) > 0 {
		return 0 // demonstrably pinned
	}
	// Taken before the entry turns moving, so an accessor that
	// faults on it finds copyMu held until the copy is over.
	s.copyMu.Lock()
	entry, err := s.rt.Table.BeginSpeculativeMove(info.id)
	if err != nil {
		s.copyMu.Unlock()
		return 0 // not published yet (mid-Halloc), freed, or already moving
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
		return 0
	}
	size, block := info.size, alignUp(info.size)
	doff := s.takeBlock(d, block)
	dst := s.heaps[d.heap].region.Base() + mem.Addr(doff)
	s.moving = info
	s.mu.Unlock()

	// Copy outside the service lock: the destination block is
	// reserved, the entry is in the moving state, and allocators
	// are free to run.
	err = s.space.Copy(dst, entry.Backing, size)
	s.copyMu.Unlock()
	committed := false
	if err != nil {
		_, _ = s.rt.Table.Revalidate(info.id)
	} else {
		committed = s.rt.Table.CommitSpeculativeMove(info.id, dst)
	}

	s.mu.Lock()
	s.moving = nil
	switch {
	case !committed:
		// A concurrent accessor revalidated the entry (or it was
		// freed mid-copy): the object stays put; discard the copy.
		s.MoveAborts++
	case !o.stillAt(hi):
		// Freed during the copy. The freeing Hfree already recycled the
		// source block and the handle entry; drop the unreferenced copy.
	default:
		s.vacated = append(s.vacated, deferredBlock{heap: hi, off: o.off, size: block})
		s.relink(info, d.heap, doff)
		return size
	}
	s.heaps[d.heap].pushHole(hole{off: doff, size: block})
	return 0
}

// DrainDeferred returns vacated source blocks whose grace period has
// elapsed to their sub-heaps' free lists, truncates the sub-heaps — so the
// tails the last pass vacated before fragmentation fell under the caller's
// trigger are not left resident until some later pass — and reports how
// many bytes were recovered. ConcurrentDefragPass drains as it starts and
// ends; callers may also invoke it directly (kv.AnchorageBackend.Maintain
// does on every call). It waits for a pass in flight: see passMu.
func (s *Service) DrainDeferred() uint64 {
	s.passMu.Lock()
	defer s.passMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	drained := s.drainDeferredLocked()
	if drained > 0 {
		// Every sub-heap, not only those that got a block back: the scan
		// is cheap and finds nothing to do where nothing changed.
		s.truncateFrom(0)
	}
	return drained
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
