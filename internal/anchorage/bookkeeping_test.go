package anchorage

// Tests for the allocator's map-free bookkeeping: the FIFO free bins must
// hand holes back in exactly the order the plain slices they replaced
// did (heap layout — and with it rss_per_live_byte and hit_ratio — is a
// function of that order), and the ID directory must stay cheap for an ID
// far from any the handle table issued.

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"alaska/internal/mem"
)

// refBins is the free-list representation the holeQueue replaced, kept
// verbatim as the reference: one slice per bin, the front resliced away.
type refBins [64][]hole

func (r *refBins) takeFront(binIdx int, need uint64) (hole, bool) {
	lst := r[binIdx]
	if len(lst) == 0 {
		return hole{}, false
	}
	h := lst[0]
	if h.size < need {
		return hole{}, false
	}
	r[binIdx] = lst[1:]
	return h, true
}

func (r *refBins) pushHole(h hole) {
	b := bin(h.size)
	r[b] = append(r[b], h)
}

func (r *refBins) removeAt(b, k int) { r[b] = append(r[b][:k], r[b][k+1:]...) }

func (r *refBins) reset(b int) { r[b] = r[b][:0] }

// findFit is the relocation search with nothing to help it: every bin from
// bin(need) up, every hole, first fit.
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
// and the passes do to a bin — and requires the same hole out of every
// take, the same answer from every relocation search (the bitmap may skip
// only bins with nothing in them), and the same queue contents after
// every op.
func TestFreeBinsMatchReference(t *testing.T) {
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
			case k == 10:
				// The relocation search, then (half the time) the take. The
				// need is 16-aligned like a block; a limit in the middle of
				// the offsets handed out rules some fitting holes out.
				need := alignUp(uint64(1)<<b + uint64(rng.Intn(1<<b)))
				limit := uint64(math.MaxUint64)
				if rng.Intn(2) == 0 {
					limit = uint64(rng.Int63n(int64(next) + 1))
				}
				gb, gk, gok := sh.findFit(need, limit)
				wb, wk, wok := ref.findFit(need, limit)
				if gb != wb || gk != wk || gok != wok {
					t.Fatalf("seed %d op %d: findFit(%d, %d) = bin %d hole %d %v, all-bins scan %d %d %v", seed, op, need, limit, gb, gk, gok, wb, wk, wok)
				}
				if gok && rng.Intn(2) == 0 {
					if got, want := sh.takeAt(gb, gk, need), ref.takeAt(wb, wk, need); got != want {
						t.Fatalf("seed %d op %d: takeAt(%d, %d, %d) = %d, reference %d", seed, op, gb, gk, need, got, want)
					}
				}
			case k < pushWeight:
				// Any size inside bin b.
				size := uint64(1)<<b + uint64(rng.Intn(1<<b))
				h := hole{off: next, size: size}
				next += size
				sh.pushHole(h)
				ref.pushHole(h)
			case k < 8:
				// A need that the front sometimes fits and sometimes not.
				need := uint64(1)<<b + uint64(rng.Intn(1<<b))
				got, gok := sh.takeFront(b, need)
				want, wok := ref.takeFront(b, need)
				if got != want || gok != wok {
					t.Fatalf("seed %d op %d: takeFront(%d, %d) = %v %v, reference %v %v", seed, op, b, need, got, gok, want, wok)
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
