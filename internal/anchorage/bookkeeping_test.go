package anchorage

// Tests for the allocator's map-free bookkeeping: the FIFO free bins must
// hand holes back in exactly the order the plain slices they replaced
// did, and Alloc/Free must place every block where a naive reference
// allocator does (heap layout — and with it rss_per_live_byte and
// hit_ratio — is a function of both); the ID directory must stay cheap
// for an ID far from any the handle table issued.

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"alaska/internal/mem"
)

// refBins is the free-list representation the holeQueue replaced, kept
// verbatim as the reference: one slice per bin.
type refBins [64][]hole

func (r *refBins) pushHole(h hole) {
	b := bin(h.size)
	r[b] = append(r[b], h)
}

func (r *refBins) removeAt(b, k int) { r[b] = append(r[b][:k], r[b][k+1:]...) }

func (r *refBins) reset(b int) { r[b] = r[b][:0] }

// findFit is the search with nothing to help it: every bin from bin(need)
// up, every hole, first fit.
func (r *refBins) findFit(need, limit uint64) (int, int, bool) {
	for b := bin(need); b < len(r); b++ {
		for k, h := range r[b] {
			if h.size >= need && h.off+need <= limit {
				return b, k, true
			}
		}
	}
	return 0, 0, false
}

func (r *refBins) takeAt(b, k int, need uint64) uint64 {
	h := r[b][k]
	r.removeAt(b, k)
	if rem := h.size - need; rem >= alignment {
		r.pushHole(hole{off: h.off + need, size: rem})
	}
	return h.off
}

// TestFreeBinsMatchReference drives the sub-heap's bins and the reference
// through the same seeded random op sequences — the things the allocator
// and the passes do to a bin — and requires the same answer from every
// search (the bitmap and the per-bin size bounds may skip only bins with
// nothing that fits), the same offset out of every take, the same queue
// contents after every op, and no hole larger than its bin's bound. Some
// unlimited searches must come up empty, so bounds are lowered and later
// pushes must raise them again: with pushHole's raise dropped this fails
// at the first search.
func TestFreeBinsMatchReference(t *testing.T) {
	emptyScans := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var sh subHeap
		var ref refBins
		// Few bins, so queues get long and every op meets a populated one;
		// the weights differ per seed so some runs drain and some pile up.
		bins := []int{4, 5, 9}
		pushWeight := 3 + rng.Intn(5)
		next := uint64(0)
		for op := 0; op < 4000; op++ {
			b := bins[rng.Intn(len(bins))]
			switch k := rng.Intn(11); {
			case k < pushWeight:
				// Any size inside bin b.
				size := uint64(1)<<b + uint64(rng.Intn(1<<b))
				h := hole{off: next, size: size}
				next += size
				sh.pushHole(h)
				ref.pushHole(h)
			case k < 8 || k == 10:
				// The search, then (mostly) the take. The need is 16-aligned
				// like a block and may exceed every hole in its own bin; a
				// limit in the middle of the offsets handed out (the mover's
				// search within the source sub-heap) rules some fitting
				// holes out.
				need := alignUp(uint64(1)<<b + uint64(rng.Intn(1<<b)))
				limit := uint64(math.MaxUint64)
				if rng.Intn(3) == 0 {
					limit = uint64(rng.Int63n(int64(next) + 1))
				}
				gb, gk, gok := sh.findFit(need, limit)
				wb, wk, wok := ref.findFit(need, limit)
				if gb != wb || gk != wk || gok != wok {
					t.Fatalf("seed %d op %d: findFit(%d, %d) = bin %d hole %d %v, all-bins scan %d %d %v", seed, op, need, limit, gb, gk, gok, wb, wk, wok)
				}
				if !wok && limit == math.MaxUint64 {
					emptyScans++
				}
				if gok && rng.Intn(4) != 0 {
					if got, want := sh.takeAt(gb, gk, need), ref.takeAt(wb, wk, need); got != want {
						t.Fatalf("seed %d op %d: takeAt(%d, %d, %d) = %d, reference %d", seed, op, gb, gk, need, got, want)
					}
				}
			case k == 8:
				if n := len(ref[b]); n > 0 {
					at := rng.Intn(n)
					sh.free[b].removeAt(at)
					ref.removeAt(b, at)
				}
			default:
				if rng.Intn(20) == 0 {
					sh.free[b].reset()
					ref.reset(b)
				}
			}
			// Every bin: a take's remainder lands in a bin below the one it
			// came out of.
			for b := range ref {
				if !slices.Equal(sh.free[b].holes(), ref[b]) {
					t.Fatalf("seed %d op %d: bin %d holds %v, reference %v", seed, op, b, sh.free[b].holes(), ref[b])
				}
				if len(ref[b]) > 0 && sh.nonEmpty&(1<<b) == 0 {
					t.Fatalf("seed %d op %d: bin %d holds %d holes and its bit is clear", seed, op, b, len(ref[b]))
				}
				for _, h := range ref[b] {
					if h.size > sh.maxSize[b] {
						t.Fatalf("seed %d op %d: bin %d holds a %d-byte hole over its bound %d", seed, op, b, h.size, sh.maxSize[b])
					}
				}
			}
		}
	}
	if emptyScans == 0 {
		t.Fatal("no unlimited search came up empty: no bin bound was ever lowered")
	}
}

// refAllocator is Alloc and Free with nothing to help them: per sub-heap
// the reference bins and a bump pointer. An allocation tries the sub-heaps
// lowest first — every bin from bin(need) up, first fit, the remainder
// split back — then bump space, then maps a new sub-heap.
type refAllocator struct {
	subHeapSize uint64
	heaps       []refSubHeap
}

type refSubHeap struct {
	bins       refBins
	bump, size uint64
}

func (a *refAllocator) alloc(size uint64) (hi int, off uint64) {
	need := alignUp(size)
	for hi := range a.heaps {
		h := &a.heaps[hi]
		if b, k, ok := h.bins.findFit(need, math.MaxUint64); ok {
			return hi, h.bins.takeAt(b, k, need)
		}
		if h.bump+need <= h.size {
			h.bump += need
			return hi, h.bump - need
		}
	}
	pages := (max(a.subHeapSize, need) + mem.PageSize - 1) / mem.PageSize
	a.heaps = append(a.heaps, refSubHeap{bump: need, size: pages * mem.PageSize})
	return len(a.heaps) - 1, 0
}

func (a *refAllocator) free(hi int, off, size uint64) {
	a.heaps[hi].bins.pushHole(hole{off: off, size: alignUp(size)})
}

// TestAllocMatchesReference runs seeded Alloc/Free sequences — small,
// medium and oversized requests over 4 KiB sub-heaps — against Service
// and the reference allocator, and requires the same address out of every
// Alloc and, after every op, the same active bytes, extent, bumps and
// free bins. The bins hold exactly the freed blocks, so equal bins also
// say that every block is alignUp(size): not a byte of slack handed out.
func TestAllocMatchesReference(t *testing.T) {
	const subHeapSize = 4 << 10
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.SubHeapSize = subHeapSize
		svc := NewService(mem.NewSpace(), cfg)
		ref := refAllocator{subHeapSize: subHeapSize}
		type obj struct {
			id        uint32
			addr      mem.Addr
			hi        int
			off, size uint64
		}
		var live []obj
		var active uint64
		allocPct := 45 + rng.Intn(20)
		for op, id := 0, uint32(0); op < 2000; op++ {
			if len(live) == 0 || rng.Intn(100) < allocPct {
				var size uint64
				switch r := rng.Intn(50); {
				case r == 0:
					size = subHeapSize + 1 + uint64(rng.Intn(subHeapSize))
				case r < 10:
					size = 256 + uint64(rng.Intn(1024))
				default:
					size = 1 + uint64(rng.Intn(256))
				}
				addr, err := svc.Alloc(id, size)
				if err != nil {
					t.Fatal(err)
				}
				hi, off := ref.alloc(size)
				if len(svc.heaps) != len(ref.heaps) {
					t.Fatalf("seed %d op %d: Alloc(%d) left %d sub-heaps, reference %d", seed, op, size, len(svc.heaps), len(ref.heaps))
				}
				if want := svc.heaps[hi].region.Base() + mem.Addr(off); addr != want {
					t.Fatalf("seed %d op %d: Alloc(%d) = %#x, reference sub-heap %d offset %d (%#x)", seed, op, size, addr, hi, off, want)
				}
				live = append(live, obj{id: id, addr: addr, hi: hi, off: off, size: size})
				active += size
				id++
			} else {
				k := rng.Intn(len(live))
				o := live[k]
				if err := svc.Free(o.id, o.addr, o.size); err != nil {
					t.Fatal(err)
				}
				ref.free(o.hi, o.off, o.size)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				active -= o.size
			}
			var extent uint64
			for hi, h := range ref.heaps {
				sh := svc.heaps[hi]
				if sh.bump != h.bump {
					t.Fatalf("seed %d op %d: sub-heap %d bump %d, reference %d", seed, op, hi, sh.bump, h.bump)
				}
				for b := range h.bins {
					if !slices.Equal(sh.free[b].holes(), h.bins[b]) {
						t.Fatalf("seed %d op %d: sub-heap %d bin %d holds %v, reference %v", seed, op, hi, b, sh.free[b].holes(), h.bins[b])
					}
				}
				extent += h.bump
			}
			if got := svc.ActiveBytes(); got != active {
				t.Fatalf("seed %d op %d: ActiveBytes %d, want %d", seed, op, got, active)
			}
			if got := svc.HeapExtent(); got != extent {
				t.Fatalf("seed %d op %d: HeapExtent %d, reference %d", seed, op, got, extent)
			}
		}
	}
}

// TestFreeBinReusesStorage holds the point of the queue: a bin in steady
// churn — whether it drains to empty each round or keeps a standing
// backlog — stops growing its backing array.
func TestFreeBinReusesStorage(t *testing.T) {
	for _, backlog := range []int{0, 1, 100} {
		var q holeQueue
		for i := 0; i < backlog; i++ {
			q.push(hole{off: uint64(i), size: 512})
		}
		for i := 0; i < 100000; i++ {
			q.push(hole{off: uint64(i), size: 512})
			q.popFront()
		}
		if len(q.holes()) != backlog {
			t.Fatalf("backlog %d: %d holes queued after balanced churn", backlog, len(q.holes()))
		}
		if limit := 4*backlog + 8; cap(q.buf) > limit {
			t.Errorf("backlog %d: queue storage grew to %d slots, want <= %d", backlog, cap(q.buf), limit)
		}
	}
}

// TestSparseIDStaysCheap allocates under an ID a flat ID-indexed array
// would need 8 GiB to reach — the contract benchmark's ledger does this
// with a spare ID the table never issued — and holds a fresh service to
// under 1 MiB of Go heap for it, first sub-heap included (a small one: the
// simulated address space backs a region with real bytes).
func TestSparseIDStaysCheap(t *testing.T) {
	const spare = 1 << 30
	cfg := DefaultConfig()
	cfg.SubHeapSize = 64 << 10
	svc := NewService(mem.NewSpace(), cfg)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, err := svc.Alloc(spare, 512)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("Alloc under ID 1<<30 allocated %d bytes of Go heap, want < 1 MiB", grew)
	}
	if svc.ActiveBytes() != 512 || svc.UsableSize(a) != 512 {
		t.Errorf("after Alloc: ActiveBytes %d, UsableSize %d, want 512 / 512", svc.ActiveBytes(), svc.UsableSize(a))
	}
	if err := svc.Free(spare, a, 512); err != nil {
		t.Fatal(err)
	}
	if svc.ActiveBytes() != 0 {
		t.Errorf("ActiveBytes = %d after Free, want 0", svc.ActiveBytes())
	}
	if err := svc.Free(spare, a, 512); err == nil {
		t.Error("second Free of the same ID succeeded")
	}
	// The ID round-trips again, and a dense ID beside it still works.
	b, err := svc.Alloc(spare, 512)
	if err != nil || b != a {
		t.Errorf("re-Alloc under the spare ID = %#x, %v; want the freed block %#x back", b, err, a)
	}
	if _, err := svc.Alloc(0, 512); err != nil {
		t.Error(err)
	}
	if err := svc.Free(spare+1, 0, 0); err == nil {
		t.Error("Free of a never-allocated neighbour ID succeeded")
	}
}
