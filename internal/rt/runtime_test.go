package rt

import (
	"errors"
	"sync"
	"testing"
	"time"
	"unsafe"

	"alaska/internal/handle"
	"alaska/internal/mem"
)

// bumpService is a minimal backing-memory service for runtime tests: a
// bump allocator over one big region, never freeing.
type bumpService struct {
	space  *mem.Space
	region *mem.Region
	off    uint64
	active uint64
	// onAlloc, when set, sees every Alloc first; an error from it is the
	// service failing to provide a block.
	onAlloc func(id uint32) error
}

func (b *bumpService) Init(*Runtime) error {
	r, err := b.space.Map(16 << 20)
	if err != nil {
		return err
	}
	b.region = r
	return nil
}
func (b *bumpService) Deinit() error { return nil }
func (b *bumpService) Alloc(id uint32, size uint64) (mem.Addr, error) {
	if b.onAlloc != nil {
		if err := b.onAlloc(id); err != nil {
			return 0, err
		}
	}
	aligned := (size + 15) &^ 15
	addr := b.region.Base() + mem.Addr(b.off)
	b.off += aligned
	b.active += size
	return addr, nil
}
func (b *bumpService) Free(_ uint32, _ mem.Addr, size uint64) error {
	b.active -= size
	return nil
}
func (b *bumpService) UsableSize(mem.Addr) uint64 { return 0 }
func (b *bumpService) HeapExtent() uint64         { return b.off }
func (b *bumpService) ActiveBytes() uint64        { return b.active }
func (b *bumpService) Name() string               { return "test-bump" }

func newTestRuntime(t *testing.T, opts ...Option) (*Runtime, *mem.Space) {
	t.Helper()
	space := mem.NewSpace()
	r, err := New(space, &bumpService{space: space}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r, space
}

func TestHallocHfree(t *testing.T) {
	r, space := newTestRuntime(t)
	h, err := r.Halloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsHandle() || h.Offset() != 0 {
		t.Fatalf("Halloc returned %v", h)
	}
	th := r.NewThread()
	addr, unpin, err := th.Pin(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := space.WriteU64(addr, 42); err != nil {
		t.Fatal(err)
	}
	v, err := space.ReadU64(addr)
	if err != nil || v != 42 {
		t.Fatalf("read back %d, %v", v, err)
	}
	unpin()
	if err := r.Hfree(h); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Translate(h); err == nil {
		t.Error("translate after Hfree succeeded")
	}
	if err := th.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHallocPublishesAfterServiceAlloc holds Halloc's ordering: the ID is
// only reserved while the service is asked for the block — not live, not
// translatable, not movable — and a service failure publishes nothing and
// leaks nothing: the table's live count and the service's active bytes are
// what they were, and the very ID goes to the next Halloc.
func TestHallocPublishesAfterServiceAlloc(t *testing.T) {
	space := mem.NewSpace()
	svc := &bumpService{space: space}
	r, err := New(space, svc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Halloc(64); err != nil {
		t.Fatal(err)
	}
	liveBefore, activeBefore := r.Table.Live(), svc.ActiveBytes()

	var asked []uint32
	fail := errors.New("injected: out of backing memory")
	var inject error
	svc.onAlloc = func(id uint32) error {
		asked = append(asked, id)
		if _, err := r.Table.Get(id); err == nil {
			t.Errorf("id %d has a published entry while the service is still allocating its block", id)
		}
		if _, err := r.Table.BeginSpeculativeMove(id); err == nil {
			t.Errorf("id %d can be speculatively moved before it has a block", id)
		}
		if got := r.Table.Live(); got != liveBefore {
			t.Errorf("Live = %d during the service alloc, want %d", got, liveBefore)
		}
		return inject
	}
	inject = fail
	if _, err := r.Halloc(128); !errors.Is(err, fail) {
		t.Fatalf("Halloc under an injected service failure = %v, want the service's error", err)
	}
	if got := r.Table.Live(); got != liveBefore {
		t.Errorf("Live = %d after the failed Halloc, want %d", got, liveBefore)
	}
	if got := svc.ActiveBytes(); got != activeBefore {
		t.Errorf("ActiveBytes = %d after the failed Halloc, want %d", got, activeBefore)
	}
	if got := r.Stats().Hallocs.Load(); got != 1 {
		t.Errorf("Hallocs = %d after one success and one failure, want 1", got)
	}
	extent := r.Table.Extent()

	inject = nil
	h, err := r.Halloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if len(asked) != 2 || h.ID() != asked[0] {
		t.Errorf("next Halloc got id %d (service asked for %v), want the failed call's id back", h.ID(), asked)
	}
	if got := r.Table.Extent(); got != extent {
		t.Errorf("table extent %d -> %d: the failed call's id was not recycled", extent, got)
	}
	e, err := r.Table.Get(h.ID())
	if err != nil || e.Backing == 0 || e.Size != 128 || r.Table.Live() != liveBefore+1 {
		t.Errorf("published entry %+v, %v, Live %d; want a backed 128-byte entry and Live %d", e, err, r.Table.Live(), liveBefore+1)
	}
}

func TestHfreeErrors(t *testing.T) {
	r, _ := newTestRuntime(t)
	h, _ := r.Halloc(64)
	if err := r.Hfree(h.Add(8)); err == nil {
		t.Error("Hfree of interior handle succeeded")
	}
	if err := r.Hfree(handle.Handle(0x1234)); err == nil {
		t.Error("Hfree of raw pointer succeeded")
	}
	if err := r.Hfree(h); err != nil {
		t.Fatal(err)
	}
	if err := r.Hfree(h); err == nil {
		t.Error("double Hfree succeeded")
	}
}

func TestSizeOf(t *testing.T) {
	r, _ := newTestRuntime(t)
	h, _ := r.Halloc(100)
	n, err := r.SizeOf(h)
	if err != nil || n != 100 {
		t.Errorf("SizeOf = %d, %v; want 100", n, err)
	}
}

func TestHallocZeroBehavesLikeMallocZero(t *testing.T) {
	r, _ := newTestRuntime(t)
	h1, err := r.Halloc(0)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.Halloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Error("Halloc(0) returned identical handles")
	}
}

func TestPinFramesAndSlots(t *testing.T) {
	r, _ := newTestRuntime(t)
	th := r.NewThread()
	h1, _ := r.Halloc(16)
	h2, _ := r.Halloc(16)

	th.PushFrame(2)
	if _, err := th.TranslateAndPin(h1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := th.TranslateAndPin(h2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := th.TranslateAndPin(h1, 5); err == nil {
		t.Error("out-of-range slot accepted")
	}
	// Both pinned: barrier must refuse to move either.
	r.Barrier(th, func(s *BarrierScope) {
		if !s.Pinned(h1.ID()) || !s.Pinned(h2.ID()) {
			t.Error("pinned handles not visible in barrier scope")
		}
		if err := s.Relocate(h1.ID(), 0x9000); err == nil {
			t.Error("Relocate of pinned object succeeded")
		}
	})
	th.PopFrame()
	r.Barrier(th, func(s *BarrierScope) {
		if s.Pinned(h1.ID()) {
			t.Error("handle still pinned after frame pop")
		}
	})
}

func TestTranslateAndPinPointerPassthrough(t *testing.T) {
	r, _ := newTestRuntime(t)
	th := r.NewThread()
	th.PushFrame(1)
	a, err := th.TranslateAndPin(handle.Handle(0xABC0), 0)
	if err != nil || a != 0xABC0 {
		t.Errorf("pointer passthrough = %#x, %v", a, err)
	}
	r.Barrier(th, func(s *BarrierScope) {
		if len(s.pinned) != 0 {
			t.Error("raw pointer was recorded as a pin")
		}
	})
}

func TestTranslateAndPinRequiresFrame(t *testing.T) {
	r, _ := newTestRuntime(t)
	th := r.NewThread()
	h, _ := r.Halloc(8)
	if _, err := th.TranslateAndPin(h, 0); err == nil {
		t.Error("pin with no frame succeeded")
	}
}

func TestRelocatePreservesContents(t *testing.T) {
	r, space := newTestRuntime(t)
	th := r.NewThread()
	h, _ := r.Halloc(64)
	addr, _ := th.Translate(h)
	if err := space.Write(addr, []byte("relocatable payload")); err != nil {
		t.Fatal(err)
	}
	dst, err := space.Map(mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// The test goroutine owns th, so it must identify itself as the
	// initiator; a nil initiator would wait forever for th to park.
	r.Barrier(th, func(s *BarrierScope) {
		if err := s.Relocate(h.ID(), dst.Base()); err != nil {
			t.Fatal(err)
		}
	})
	// The handle now resolves to the new location with intact contents.
	newAddr, err := th.Translate(h)
	if err != nil {
		t.Fatal(err)
	}
	if newAddr != dst.Base() {
		t.Errorf("after move handle resolves to %#x, want %#x", newAddr, dst.Base())
	}
	buf := make([]byte, 19)
	if err := space.Read(newAddr, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "relocatable payload" {
		t.Errorf("contents after move = %q", buf)
	}
	if r.Stats().MovedObject.Load() != 1 {
		t.Errorf("MovedObject = %d", r.Stats().MovedObject.Load())
	}
}

func TestBarrierStopsRunningThreads(t *testing.T) {
	r, _ := newTestRuntime(t)
	const nThreads = 4
	var stop sync.WaitGroup
	quit := make(chan struct{})
	started := make(chan struct{}, nThreads)
	var mu sync.Mutex
	inBarrier := false
	violations := 0

	for i := 0; i < nThreads; i++ {
		stop.Add(1)
		go func() {
			defer stop.Done()
			th := r.NewThread()
			defer th.Destroy()
			started <- struct{}{}
			for {
				select {
				case <-quit:
					return
				default:
				}
				// Simulated mutator work: must never overlap the barrier
				// callback.
				mu.Lock()
				if inBarrier {
					violations++
				}
				mu.Unlock()
				th.Safepoint()
			}
		}()
	}
	for i := 0; i < nThreads; i++ {
		<-started
	}
	for i := 0; i < 20; i++ {
		r.Barrier(nil, func(s *BarrierScope) {
			mu.Lock()
			inBarrier = true
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
			mu.Lock()
			inBarrier = false
			mu.Unlock()
		})
	}
	close(quit)
	stop.Wait()
	if violations != 0 {
		t.Errorf("%d mutator steps overlapped a barrier", violations)
	}
	if got := r.Stats().Barriers.Load(); got != 20 {
		t.Errorf("Barriers = %d, want 20", got)
	}
}

// A thread blocked in an external call must not stall the barrier — the
// straggler path of §4.1.3.
func TestBarrierDoesNotWaitForExternalThreads(t *testing.T) {
	r, _ := newTestRuntime(t)
	th := r.NewThread()
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		th.EnterExternal()
		<-release // "blocked in the kernel"
		th.ExitExternal()
		close(done)
	}()
	// Give the goroutine time to enter the external state.
	for i := 0; i < 1000; i++ {
		if threadState(th.state.Load()) == stateExternal {
			break
		}
		time.Sleep(time.Millisecond)
	}
	barrierRan := make(chan struct{})
	go func() {
		r.Barrier(nil, func(*BarrierScope) {})
		close(barrierRan)
	}()
	select {
	case <-barrierRan:
	case <-time.After(5 * time.Second):
		t.Fatal("barrier waited for a thread blocked in external code")
	}
	close(release)
	<-done
	if err := th.Destroy(); err != nil {
		t.Fatal(err)
	}
}

// A thread returning from external code while a barrier is running must
// wait for the barrier to finish before resuming instrumented execution.
func TestExitExternalWaitsForBarrier(t *testing.T) {
	r, _ := newTestRuntime(t)
	th := r.NewThread()
	th.EnterExternal()

	barrierEntered := make(chan struct{})
	releaseBarrier := make(chan struct{})
	go func() {
		r.Barrier(nil, func(*BarrierScope) {
			close(barrierEntered)
			<-releaseBarrier
		})
	}()
	<-barrierEntered

	resumed := make(chan struct{})
	go func() {
		th.ExitExternal()
		close(resumed)
	}()
	select {
	case <-resumed:
		t.Fatal("ExitExternal returned while barrier was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(releaseBarrier)
	select {
	case <-resumed:
	case <-time.After(5 * time.Second):
		t.Fatal("ExitExternal never resumed after barrier completed")
	}
	if err := th.Destroy(); err != nil {
		t.Fatal(err)
	}
}

func TestCountedPinsMode(t *testing.T) {
	r, _ := newTestRuntime(t, WithPinMode(CountedPins))
	th := r.NewThread()
	h, _ := r.Halloc(32)
	th.PushFrame(1)
	if _, err := th.TranslateAndPin(h, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.Table.PinCount(h.ID()); got != 1 {
		t.Errorf("PinCount = %d, want 1", got)
	}
	// Overwriting the slot with another handle unpins the old one.
	h2, _ := r.Halloc(32)
	if _, err := th.TranslateAndPin(h2, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.Table.PinCount(h.ID()); got != 0 {
		t.Errorf("old PinCount = %d, want 0", got)
	}
	if got := r.Table.PinCount(h2.ID()); got != 1 {
		t.Errorf("new PinCount = %d, want 1", got)
	}
	th.PopFrame()
	if got := r.Table.PinCount(h2.ID()); got != 0 {
		t.Errorf("PinCount after PopFrame = %d, want 0", got)
	}
}

func TestHandleFaultDispatch(t *testing.T) {
	faulted := 0
	var fh FaultHandler = func(r *Runtime, id uint32) error {
		faulted++
		return r.Table.SetInvalid(id, false)
	}
	r, _ := newTestRuntime(t, WithFaultHandler(fh))
	th := r.NewThread()
	h, _ := r.Halloc(16)
	if err := r.Table.SetInvalid(h.ID(), true); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Translate(h); err != nil {
		t.Fatal(err)
	}
	if faulted != 1 {
		t.Errorf("fault handler ran %d times, want 1", faulted)
	}
	if r.Stats().Faults.Load() != 1 {
		t.Errorf("Faults stat = %d, want 1", r.Stats().Faults.Load())
	}
}

func TestHandleFaultWithoutHandlerErrors(t *testing.T) {
	r, _ := newTestRuntime(t)
	th := r.NewThread()
	h, _ := r.Halloc(16)
	if err := r.Table.SetInvalid(h.ID(), true); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Translate(h); err == nil {
		t.Error("fault with no handler succeeded")
	}
}

func TestFragmentationMetric(t *testing.T) {
	r, _ := newTestRuntime(t)
	if got := r.Fragmentation(); got != 1 {
		t.Errorf("empty-heap fragmentation = %v, want 1", got)
	}
	if _, err := r.Halloc(1024); err != nil {
		t.Fatal(err)
	}
	if got := r.Fragmentation(); got < 1 {
		t.Errorf("fragmentation = %v, want >= 1", got)
	}
}

func TestCloseRejectsLiveThreads(t *testing.T) {
	r, _ := newTestRuntime(t)
	th := r.NewThread()
	if err := r.Close(); err == nil {
		t.Error("Close with live thread succeeded")
	}
	if err := th.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPinningAndBarriers(t *testing.T) {
	r, space := newTestRuntime(t)
	const nThreads = 4
	handles := make([]handle.Handle, 64)
	for i := range handles {
		h, err := r.Halloc(64)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
		a, _ := r.Table.Translate(h)
		if err := space.WriteU64(mem.Addr(a), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	quit := make(chan struct{})
	for g := 0; g < nThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := r.NewThread()
			defer th.Destroy()
			for i := 0; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				h := handles[(g*13+i)%len(handles)]
				addr, unpin, err := th.Pin(h)
				if err != nil {
					t.Errorf("pin: %v", err)
					return
				}
				v, err := space.ReadU64(addr)
				if err != nil || v != uint64((g*13+i)%len(handles)) {
					t.Errorf("object %d read %d (%v) — moved while pinned?", (g*13+i)%len(handles), v, err)
					unpin()
					return
				}
				unpin()
				th.Safepoint()
			}
		}(g)
	}
	// Concurrently shuffle unpinned objects to fresh locations.
	scratch, err := space.Map(64 * 64)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 30; round++ {
		r.Barrier(nil, func(s *BarrierScope) {
			for i, h := range handles {
				if s.Pinned(h.ID()) {
					continue
				}
				dst := scratch.Base() + mem.Addr((i+round)%64*64)
				// Destination slots collide across objects; only move one
				// object per round to keep contents disjoint.
				if i%64 == round%64 {
					if err := s.Relocate(h.ID(), dst); err != nil {
						t.Errorf("relocate: %v", err)
					}
				}
			}
		})
		time.Sleep(time.Millisecond)
	}
	close(quit)
	wg.Wait()
}

// TestStatsDrainsThreadCounters pins from many threads — half of which
// exit mid-run — while a reader polls Stats: Pins and Translates are
// counted on the threads and only moved into the totals by Stats and
// Destroy, so the totals must never step backwards at any poll, and once
// the pinners stop they must be exact, with the surviving threads still
// registered (drain on read) and the rest long gone (drain on exit). Also
// reads Stats from inside a barrier callback, which must not deadlock.
// Run under -race.
func TestStatsDrainsThreadCounters(t *testing.T) {
	for name, mode := range map[string]PinMode{"stack": StackPins, "counted": CountedPins} {
		t.Run(name, func(t *testing.T) {
			const threads, pinsEach = 8, 5000
			r, _ := newTestRuntime(t, WithPinMode(mode))
			h, err := r.Halloc(64)
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			var wg sync.WaitGroup
			survivors := make(chan *Thread, threads)
			for i := 0; i < threads; i++ {
				n, exits := pinsEach, i%2 == 1
				if exits {
					n /= 2 // gone while the others are still pinning
				}
				want += int64(n)
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := r.NewThread()
					for j := 0; j < n; j++ {
						_, unpin, err := th.Pin(h)
						if err != nil {
							t.Error(err)
							return
						}
						unpin()
						th.Safepoint()
					}
					if !exits {
						th.EnterExternal() // parked, still registered
						survivors <- th
						return
					}
					if err := th.Destroy(); err != nil {
						t.Error(err)
					}
				}()
			}
			stop, polled := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(polled)
				var lastPins, lastTr int64
				for polls := 0; ; polls++ {
					st := r.Stats()
					pins, tr := st.Pins.Load(), st.Translates.Load()
					if pins < lastPins || tr < lastTr {
						t.Errorf("poll %d: totals went backwards: pins %d -> %d, translates %d -> %d", polls, lastPins, pins, lastTr, tr)
						return
					}
					lastPins, lastTr = pins, tr
					if polls%64 == 0 {
						r.Barrier(nil, func(*BarrierScope) { r.Stats() })
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
			wg.Wait()
			close(stop)
			<-polled
			st := r.Stats()
			if pins, tr := st.Pins.Load(), st.Translates.Load(); pins != want || tr != want {
				t.Fatalf("pins = %d, translates = %d, want %d each", pins, tr, want)
			}
			close(survivors)
			for th := range survivors {
				th.ExitExternal()
				if err := th.Destroy(); err != nil {
					t.Fatal(err)
				}
			}
			if pins := r.Stats().Pins.Load(); pins != want {
				t.Fatalf("pins = %d after every thread exited, want %d", pins, want)
			}
		})
	}
}

// A Thread must fill a whole number of cache lines, or two threads'
// counters share one (see the padding in Thread).
func TestThreadFillsCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(Thread{}); sz%64 != 0 {
		t.Fatalf("sizeof(Thread) = %d, want a multiple of 64", sz)
	}
}
