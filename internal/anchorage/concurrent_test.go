package anchorage

// Race-hardened tests for ConcurrentDefragPass: compaction via the handle
// table's §7 speculative-move protocol while reader threads translate the
// same objects, with no stop-the-world barrier. Run under `go test -race`.

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"alaska/internal/handle"
	"alaska/internal/mem"
	"alaska/internal/rt"
)

// fragment builds a checkerboard heap: n objects of size bytes, every
// object not divisible by keep freed, returning the survivors.
func fragment(t testing.TB, r *rt.Runtime, n int, size uint64, keep int) []handle.Handle {
	t.Helper()
	hs := make([]handle.Handle, 0, n)
	for i := 0; i < n; i++ {
		h, err := r.Halloc(size)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	var live []handle.Handle
	for i, h := range hs {
		if i%keep == 0 {
			live = append(live, h)
			continue
		}
		if err := r.Hfree(h); err != nil {
			t.Fatal(err)
		}
	}
	return live
}

// TestConcurrentDefragPassCompacts verifies the pause-free pass actually
// compacts: after moving and draining, fragmentation must drop, and every
// surviving object must still carry its bytes.
func TestConcurrentDefragPassCompacts(t *testing.T) {
	space := mem.NewSpace()
	cfg := DefaultConfig()
	cfg.SubHeapSize = 256 * 1024
	svc := NewService(space, cfg)
	r, err := rt.New(space, svc, rt.WithFaultHandler(RevalidateFaultHandler()))
	if err != nil {
		t.Fatal(err)
	}
	th := r.NewThread()
	defer th.Destroy()

	live := fragment(t, r, 4096, 512, 4)
	for i, h := range live {
		a, err := th.Translate(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := space.Write(a, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	before := svc.Fragmentation()

	var total uint64
	for pass := 0; pass < 100; pass++ {
		moved := svc.ConcurrentDefragPass(1 << 20)
		total += moved
		th.Safepoint() // advance the grace period so vacated blocks drain
		if moved == 0 {
			break
		}
	}
	if total == 0 {
		t.Fatal("concurrent pass moved nothing on a checkerboard heap")
	}
	th.Safepoint()
	svc.DrainDeferred()
	if svc.DeferredBlocks() != 0 {
		t.Errorf("%d deferred blocks remain after quiescence", svc.DeferredBlocks())
	}
	// One barrier pass to truncate the now-empty tails and release pages
	// (DefragPass only truncates the sub-heaps its move loop visits, so
	// give it a real budget; the concurrent passes left it little to do).
	r.Barrier(th, func(scope *rt.BarrierScope) {
		svc.DefragPass(scope, 1<<20)
	})
	after := svc.Fragmentation()
	if after >= before {
		t.Errorf("fragmentation %.3f -> %.3f, want a decrease", before, after)
	}
	for i, h := range live {
		a, err := th.Translate(h)
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		buf := make([]byte, 2)
		if err := space.Read(a, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) || buf[1] != byte(i>>8) {
			t.Fatalf("object %d: bytes %v after move, want [%d %d]", i, buf, byte(i), byte(i>>8))
		}
	}
}

// TestConcurrentDefragPassUnderReaders runs the pause-free pass while
// reader threads continuously translate and read the objects being moved.
// Readers never pause; any reader that catches an entry mid-move faults,
// revalidates (aborting that move), and proceeds — the pass must stay
// correct under aborts, and no reader may ever observe wrong bytes.
func TestConcurrentDefragPassUnderReaders(t *testing.T) {
	space := mem.NewSpace()
	cfg := DefaultConfig()
	cfg.SubHeapSize = 256 * 1024
	svc := NewService(space, cfg)
	r, err := rt.New(space, svc, rt.WithFaultHandler(RevalidateFaultHandler()))
	if err != nil {
		t.Fatal(err)
	}
	setup := r.NewThread()
	live := fragment(t, r, 2048, 512, 4)
	for i, h := range live {
		a, err := setup.Translate(h)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 512)
		for k := range buf {
			buf[k] = byte(i)
		}
		if err := space.Write(a, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Destroy(); err != nil {
		t.Fatal(err)
	}

	readers := runtime.GOMAXPROCS(0) - 1
	if readers < 2 {
		readers = 2
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := r.NewThread()
			defer th.Destroy()
			buf := make([]byte, 8)
			for i := 0; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				k := (g*37 + i) % len(live)
				a, err := th.Translate(live[k])
				if err != nil {
					t.Error(err)
					return
				}
				if err := space.Read(a, buf); err != nil {
					t.Error(err)
					return
				}
				for _, b := range buf {
					if b != byte(k) {
						t.Errorf("object %d: read %#x, want %#x", k, b, byte(k))
						return
					}
				}
				th.Safepoint()
			}
		}(g)
	}

	var moved uint64
	passes := 50
	if testing.Short() {
		passes = 10
	}
	for p := 0; p < passes; p++ {
		moved += svc.ConcurrentDefragPass(256 * 1024)
	}
	close(quit)
	wg.Wait()
	if moved == 0 {
		t.Error("no bytes moved under reader pressure")
	}
	svc.DrainDeferred()
	t.Logf("moved %d bytes in %d passes with %d readers; %d aborts, %d deferred blocks pending",
		moved, passes, readers, svc.MoveAborts, svc.DeferredBlocks())
}

// TestConcurrentDefragPassUnderChurn races the pause-free pass against
// mutators that allocate, write, read, and free objects throughout — the
// interleavings the pass's per-object locking opens up (an object freed,
// or freed-and-reallocated, while its copy is in flight must be detected
// and its copy discarded). Mutators run in CountedPins mode and pin every
// access via Thread.Pin, making their pins visible to the pass — the §7
// contract for writing mutators outside a barrier (StackPins pin sets are
// invisible to a concurrent mover, so writers there need barriers).
//
// Two more workers ("flippers") keep a small standing set and replace one
// object per step — free, then allocate the same size, so the block just
// vacated (or its bin neighbour) is handed straight back out. That is the
// case the pass's identity check exists for: the offset it snapshotted
// holds an object again, but not the one it copied. Every object's bytes
// are checked before it is freed and once more at the end.
// Run under `go test -race`.
func TestConcurrentDefragPassUnderChurn(t *testing.T) {
	space := mem.NewSpace()
	cfg := DefaultConfig()
	cfg.SubHeapSize = 128 * 1024
	svc := NewService(space, cfg)
	r, err := rt.New(space, svc,
		rt.WithPinMode(rt.CountedPins),
		rt.WithFaultHandler(RevalidateFaultHandler()))
	if err != nil {
		t.Fatal(err)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	ops := 6000
	if testing.Short() {
		ops = 1200
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	// Background mover: pause-free passes in a loop the whole time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-quit:
				return
			default:
			}
			svc.ConcurrentDefragPass(128 * 1024)
			svc.DrainDeferred()
		}
	}()

	var mwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		mwg.Add(1)
		go func(w int) {
			defer mwg.Done()
			th := r.NewThread()
			defer th.Destroy()
			type obj struct {
				h   handle.Handle
				tag byte
			}
			var mine []obj
			for op := 0; op < ops; op++ {
				th.Safepoint()
				switch {
				case len(mine) < 16 || op%3 == 0:
					h, err := r.Halloc(256)
					if err != nil {
						t.Error(err)
						return
					}
					tag := byte(w<<4) | byte(op&0xf)
					a, unpin, err := th.Pin(h)
					if err != nil {
						t.Error(err)
						return
					}
					buf := make([]byte, 256)
					for i := range buf {
						buf[i] = tag
					}
					err = space.Write(a, buf)
					unpin()
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, obj{h, tag})
				case op%3 == 1:
					o := mine[op%len(mine)]
					a, unpin, err := th.Pin(o.h)
					if err != nil {
						t.Error(err)
						return
					}
					buf := make([]byte, 256)
					err = space.Read(a, buf)
					unpin()
					if err != nil {
						t.Error(err)
						return
					}
					for i, b := range buf {
						if b != o.tag {
							t.Errorf("worker %d: byte %d = %#x, want %#x", w, i, b, o.tag)
							return
						}
					}
				default:
					k := op % len(mine)
					if err := r.Hfree(mine[k].h); err != nil {
						t.Error(err)
						return
					}
					mine = append(mine[:k], mine[k+1:]...)
				}
			}
			for _, o := range mine {
				if err := r.Hfree(o.h); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for f := 0; f < 2; f++ {
		mwg.Add(1)
		go func(f int) {
			defer mwg.Done()
			th := r.NewThread()
			defer th.Destroy()
			const size = 256
			buf := make([]byte, size)
			// fill allocates an object stamped with tag; check reads one back.
			fill := func(tag byte) (handle.Handle, bool) {
				h, err := r.Halloc(size)
				if err != nil {
					t.Error(err)
					return 0, false
				}
				a, unpin, err := th.Pin(h)
				if err != nil {
					t.Error(err)
					return 0, false
				}
				for i := range buf {
					buf[i] = tag
				}
				err = space.Write(a, buf)
				unpin()
				if err != nil {
					t.Error(err)
					return 0, false
				}
				return h, true
			}
			check := func(h handle.Handle, tag byte) bool {
				a, unpin, err := th.Pin(h)
				if err != nil {
					t.Error(err)
					return false
				}
				err = space.Read(a, buf)
				unpin()
				if err != nil {
					t.Error(err)
					return false
				}
				for i, b := range buf {
					if b != tag {
						t.Errorf("flipper %d: byte %d = %#x, want %#x", f, i, b, tag)
						return false
					}
				}
				return true
			}
			var set [24]handle.Handle
			var tags [24]byte
			for k := range set {
				var ok bool
				tags[k] = byte(0xa0 + f)
				if set[k], ok = fill(tags[k]); !ok {
					return
				}
			}
			for op := 0; op < 2*ops; op++ {
				th.Safepoint()
				k := op % len(set)
				if !check(set[k], tags[k]) {
					return
				}
				if err := r.Hfree(set[k]); err != nil {
					t.Error(err)
					return
				}
				var ok bool
				tags[k] = byte(op)
				if set[k], ok = fill(tags[k]); !ok {
					return
				}
			}
			for k := range set {
				if !check(set[k], tags[k]) {
					return
				}
				if err := r.Hfree(set[k]); err != nil {
					t.Error(err)
					return
				}
			}
		}(f)
	}
	mwg.Wait()
	close(quit)
	wg.Wait()
	if live := r.Table.Live(); live != 0 {
		t.Errorf("Live = %d after teardown, want 0", live)
	}
	if svc.ActiveBytes() != 0 {
		t.Errorf("ActiveBytes = %d after teardown, want 0", svc.ActiveBytes())
	}
	t.Logf("%d workers × %d ops under %d concurrent passes: %d bytes moved, %d aborts",
		workers, ops, svc.ConcurrentPasses, svc.MovedBytes, svc.MoveAborts)
}

// checkTiling requires every sub-heap's live blocks — alignUp(size) bytes
// each — and free holes to tile [0, bump) exactly: no slack owned by a
// block, no byte counted twice, none lost. Callers have no block deferred.
func checkTiling(t *testing.T, svc *Service) {
	t.Helper()
	svc.mu.Lock()
	defer svc.mu.Unlock()
	for hi, sh := range svc.heaps {
		var spans []hole
		for _, info := range sh.objs {
			spans = append(spans, hole{off: info.off, size: alignUp(info.size)})
		}
		for b := range sh.free {
			spans = append(spans, sh.free[b].holes()...)
		}
		slices.SortFunc(spans, byOffset)
		end := uint64(0)
		for _, s := range spans {
			if s.off != end {
				t.Fatalf("sub-heap %d: span %+v follows end %d", hi, s, end)
			}
			end += s.size
		}
		if end != sh.bump {
			t.Fatalf("sub-heap %d: blocks and holes end at %d, bump %d", hi, end, sh.bump)
		}
	}
}

// TestConcurrentDefragPassReturnsMemory holds the pause-free pass to the
// whole job with no barrier pass anywhere: objects moved down, tails
// truncated and their pages given back — and every object still carrying
// its bytes. Smaller objects first go into the holes of larger ones with
// the rest of each hole split off, so no block ever owns slack.
func TestConcurrentDefragPassReturnsMemory(t *testing.T) {
	space := mem.NewSpace()
	cfg := DefaultConfig()
	cfg.SubHeapSize = 256 * 1024
	svc := NewService(space, cfg)
	r, err := rt.New(space, svc, rt.WithFaultHandler(RevalidateFaultHandler()))
	if err != nil {
		t.Fatal(err)
	}
	th := r.NewThread()
	defer th.Destroy()

	live := fragment(t, r, 4096, 512, 4)
	extent := svc.HeapExtent()
	// 272-byte objects have no hole of their own bin to go to: each takes
	// a 512-byte hole and leaves 240 bytes of it free.
	for i := 0; i < 512; i++ {
		h, err := r.Halloc(272)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, h)
	}
	if got := svc.HeapExtent(); got != extent {
		t.Errorf("extent %d -> %d across 512 allocations that fit in 512-byte holes", extent, got)
	}
	checkTiling(t, svc)
	for i, h := range live {
		a, err := th.Translate(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := space.Write(a, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	rssBefore := space.RSS()
	for pass := 0; pass < 100; pass++ {
		moved := svc.ConcurrentDefragPass(1 << 20)
		th.Safepoint() // advance the grace period so vacated blocks drain
		if moved == 0 {
			break
		}
	}
	svc.DrainDeferred()

	m := svc.MetricsSnapshot()
	if m.Passes != 0 {
		t.Fatalf("%d barrier passes ran; the test is about there being none", m.Passes)
	}
	if m.Truncated == 0 || m.DeferredBlocks != 0 {
		t.Fatalf("Truncated = %d with %d blocks still deferred, want tails returned and none", m.Truncated, m.DeferredBlocks)
	}
	checkTiling(t, svc)
	if rss := space.RSS(); rss >= rssBefore/2 {
		t.Errorf("RSS %d -> %d, want well under half: three quarters of the heap was free", rssBefore, rss)
	}
	for i, h := range live {
		a, err := th.Translate(h)
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		buf := make([]byte, 2)
		if err := space.Read(a, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) || buf[1] != byte(i>>8) {
			t.Fatalf("object %d: bytes %v after the passes, want [%d %d]", i, buf, byte(i), byte(i>>8))
		}
	}
}

// TestDrainDeferredTruncates: the blocks a pass vacates hold their
// sub-heap's bump until their grace period is over, so the pass itself
// cannot give those tails back when a thread has not polled since — the
// DrainDeferred that returns the blocks must, or they stay resident until
// whatever pass comes next, and none does once fragmentation is low.
func TestDrainDeferredTruncates(t *testing.T) {
	space := mem.NewSpace()
	cfg := DefaultConfig()
	cfg.SubHeapSize = 256 * 1024
	svc := NewService(space, cfg)
	r, err := rt.New(space, svc, rt.WithFaultHandler(RevalidateFaultHandler()))
	if err != nil {
		t.Fatal(err)
	}
	th := r.NewThread() // running, and not polling until told to
	defer th.Destroy()
	fragment(t, r, 4096, 512, 4)

	if moved := svc.ConcurrentDefragPass(1 << 20); moved == 0 {
		t.Fatal("pass moved nothing on a checkerboard heap")
	}
	if svc.DeferredBlocks() == 0 {
		t.Fatal("no block deferred though a running thread has not polled")
	}
	if drained := svc.DrainDeferred(); drained != 0 {
		t.Fatalf("drained %d bytes inside the grace period", drained)
	}
	held, rss := svc.MetricsSnapshot().Truncated, space.RSS()
	th.Safepoint()
	if drained := svc.DrainDeferred(); drained == 0 {
		t.Fatal("nothing drained after the thread polled")
	}
	if got := svc.MetricsSnapshot().Truncated; got <= held {
		t.Errorf("Truncated %d -> %d across the drain, want the vacated tails returned", held, got)
	}
	if got := space.RSS(); got >= rss {
		t.Errorf("RSS %d -> %d across the drain, want a decrease", rss, got)
	}
}

// binsOf copies out every sub-heap's bump and free bins. Caller holds
// svc.mu.
func binsOf(svc *Service) (bumps []uint64, bins [][64][]hole) {
	bins = make([][64][]hole, len(svc.heaps))
	for hi, sh := range svc.heaps {
		bumps = append(bumps, sh.bump)
		for b := range sh.free {
			bins[hi][b] = slices.Clone(sh.free[b].holes())
		}
	}
	return bumps, bins
}

// TestRejectedCandidateLeavesBinsAlone: the pass finds a candidate's
// destination before it asks the handle table whether the candidate may
// move, and takes it only after. A candidate turned down there — pinned,
// or allocated and not yet published (mid-Halloc) — must cost the free
// lists nothing: not a hole taken and pushed back behind its neighbours,
// not a remainder split off.
func TestRejectedCandidateLeavesBinsAlone(t *testing.T) {
	const n, size, keep = 2048, 512, 4
	for _, reject := range []string{"pinned", "unpublished"} {
		t.Run(reject, func(t *testing.T) {
			space := mem.NewSpace()
			cfg := DefaultConfig()
			cfg.SubHeapSize = 128 * 1024
			svc := NewService(space, cfg)
			r, err := rt.New(space, svc,
				rt.WithPinMode(rt.CountedPins),
				rt.WithFaultHandler(RevalidateFaultHandler()))
			if err != nil {
				t.Fatal(err)
			}
			th := r.NewThread()
			defer th.Destroy()
			if reject == "pinned" {
				for _, h := range fragment(t, r, n, size, keep) {
					_, unpin, err := th.Pin(h)
					if err != nil {
						t.Fatal(err)
					}
					defer unpin()
				}
			} else {
				// Halloc's first two steps and not its third.
				type block struct {
					id   uint32
					addr mem.Addr
				}
				var all []block
				for i := 0; i < n; i++ {
					id, err := r.Table.Reserve(size)
					if err != nil {
						t.Fatal(err)
					}
					a, err := svc.Alloc(id, size)
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, block{id, a})
				}
				for i, b := range all {
					if i%keep != 0 {
						if err := svc.Free(b.id, b.addr, size); err != nil {
							t.Fatal(err)
						}
						r.Table.Unreserve(b.id)
					}
				}
			}
			// The pass's move step by hand, on every object that has
			// somewhere lower to go: what compact does under s.mu once it
			// has found a candidate's destination.
			svc.mu.Lock()
			bumps, bins := binsOf(svc)
			rejected := 0
			for hi, sh := range svc.heaps {
				for _, info := range sh.objs {
					d, ok := svc.findBlockForMove(alignUp(info.size), hi, info.off)
					if !ok {
						continue
					}
					if moved := svc.moveSpeculatively(placed{info, info.off}, hi, d); moved != 0 {
						t.Fatalf("moved %d bytes of a %s object", moved, reject)
					}
					rejected++
				}
			}
			gotBumps, gotBins := binsOf(svc)
			svc.mu.Unlock()
			if rejected < n/keep/2 {
				t.Fatalf("only %d of %d objects had a destination to be refused; the fixture is not fragmented", rejected, n/keep)
			}
			if !slices.Equal(gotBumps, bumps) {
				t.Errorf("bumps %v -> %v across %d rejected candidates", bumps, gotBumps, rejected)
			}
			for hi := range bins {
				for b := range bins[hi] {
					if !slices.Equal(gotBins[hi][b], bins[hi][b]) {
						t.Errorf("sub-heap %d bin %d: %v -> %v across %d rejected candidates", hi, b, bins[hi][b], gotBins[hi][b], rejected)
					}
				}
			}
			if svc.DeferredBlocks() != 0 || svc.MetricsSnapshot().MoveAborts != 0 {
				t.Errorf("%d deferred blocks, %d aborts after candidates that began no move", svc.DeferredBlocks(), svc.MetricsSnapshot().MoveAborts)
			}
		})
	}
}
