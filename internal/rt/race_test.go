package rt_test

// Race-detector stress tests for the runtime over the sharded lock-free
// handle table: many mutator threads doing halloc/hfree/translate/pin
// concurrently with stop-the-world barriers that relocate their objects,
// and with §7 speculative movers racing translation. Run with
// `go test -race ./internal/rt`.

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"alaska/internal/anchorage"
	"alaska/internal/handle"
	"alaska/internal/mallocsim"
	"alaska/internal/mem"
	"alaska/internal/rt"
)

// TestRuntimeConcurrentStress runs GOMAXPROCS mutator threads against a
// defragmenting Anchorage service. Each mutator churns private objects
// (halloc → write → translate-and-pin → verify → hfree) while a control
// goroutine keeps initiating barriers that compact the heap, so every
// translation races relocation and every alloc/free races the barrier
// rendezvous. Exercised in both pin-tracking modes.
func TestRuntimeConcurrentStress(t *testing.T) {
	for _, mode := range []struct {
		name string
		m    rt.PinMode
	}{{"StackPins", rt.StackPins}, {"CountedPins", rt.CountedPins}} {
		t.Run(mode.name, func(t *testing.T) {
			space := mem.NewSpace()
			svc := anchorage.NewService(space, anchorage.DefaultConfig())
			r, err := rt.New(space, svc, rt.WithPinMode(mode.m))
			if err != nil {
				t.Fatal(err)
			}
			workers := runtime.GOMAXPROCS(0)
			if workers < 4 {
				workers = 4
			}
			ops := 4000
			if testing.Short() {
				ops = 800
			}

			var wg sync.WaitGroup
			stop := make(chan struct{})
			// Defrag controller: barrier + compaction in a tight loop.
			var barriers atomic.Int64
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					r.Barrier(nil, func(scope *rt.BarrierScope) {
						svc.DefragPass(scope, 1<<20)
					})
					barriers.Add(1)
				}
			}()

			var mwg sync.WaitGroup
			for w := 0; w < workers; w++ {
				mwg.Add(1)
				go func(w int) {
					defer mwg.Done()
					th := r.NewThread()
					defer func() {
						if err := th.Destroy(); err != nil {
							t.Error(err)
						}
					}()
					rng := rand.New(rand.NewSource(int64(w)))
					type obj struct {
						h    handle.Handle
						tag  byte
						size uint64
					}
					var mine []obj
					th.PushFrame(1)
					defer th.PopFrame()
					for op := 0; op < ops; op++ {
						th.Safepoint()
						switch {
						case len(mine) < 8 || rng.Intn(3) == 0:
							size := uint64(16 + rng.Intn(480))
							h, err := r.Halloc(size)
							if err != nil {
								t.Error(err)
								return
							}
							tag := byte(w<<4) | byte(op&0xf)
							a, err := th.TranslateAndPin(h, 0)
							if err != nil {
								t.Error(err)
								return
							}
							buf := make([]byte, size)
							for i := range buf {
								buf[i] = tag
							}
							if err := space.Write(a, buf); err != nil {
								t.Error(err)
								return
							}
							mine = append(mine, obj{h, tag, size})
						case rng.Intn(2) == 0:
							// Verify an object's contents through a fresh
							// pinned translation: relocation must never tear
							// or lose the bytes.
							o := mine[rng.Intn(len(mine))]
							a, err := th.TranslateAndPin(o.h, 0)
							if err != nil {
								t.Error(err)
								return
							}
							buf := make([]byte, o.size)
							if err := space.Read(a, buf); err != nil {
								t.Error(err)
								return
							}
							for i, b := range buf {
								if b != o.tag {
									t.Errorf("worker %d: byte %d = %#x, want %#x (object moved unsafely)", w, i, b, o.tag)
									return
								}
							}
						default:
							k := rng.Intn(len(mine))
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
			mwg.Wait()
			close(stop)
			wg.Wait()
			if live := r.Table.Live(); live != 0 {
				t.Errorf("Live = %d after teardown, want 0", live)
			}
			if barriers.Load() == 0 {
				t.Error("controller never completed a barrier")
			}
			t.Logf("%d workers × %d ops, %d defrag barriers, %d objects moved",
				workers, ops, barriers.Load(), r.Stats().MovedObject.Load())
			if err := r.Close(); err != nil {
				t.Error(err)
			}
		})
	}
}

// newSpeculativeRuntime is a runtime over the malloc service whose fault
// handler is the accessor side of §7 (a faulting translation revalidates
// the entry, aborting any move in flight), and an n-byte region of
// destinations for the test's mover. Destinations are never reused, so a
// reader still on an old copy after a commit reads the bytes it had.
func newSpeculativeRuntime(t *testing.T, n uint64) (*rt.Runtime, *mem.Space, *mem.Region) {
	t.Helper()
	space := mem.NewSpace()
	r, err := rt.New(space, mallocsim.NewService(space), rt.WithFaultHandler(anchorage.RevalidateFaultHandler()))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := space.Map(n)
	if err != nil {
		t.Fatal(err)
	}
	return r, space, dst
}

// TestUncontendedMoveCommits: with no accessor in the way, begin → copy →
// commit moves the object with its contents, and the commit is one-shot —
// a second commit of the now-valid entry fails.
func TestUncontendedMoveCommits(t *testing.T) {
	r, space, arena := newSpeculativeRuntime(t, mem.PageSize)
	th := r.NewThread()
	defer th.Destroy()
	h, _ := r.Halloc(128)
	oldAddr, _ := th.Translate(h)
	if err := space.WriteU64(oldAddr, 0xFEED); err != nil {
		t.Fatal(err)
	}
	e, err := r.Table.BeginSpeculativeMove(h.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := space.Copy(arena.Base(), e.Backing, e.Size); err != nil {
		t.Fatal(err)
	}
	if !r.Table.CommitSpeculativeMove(h.ID(), arena.Base()) {
		t.Fatal("uncontended move did not commit")
	}
	if r.Table.CommitSpeculativeMove(h.ID(), arena.Base()+256) {
		t.Error("a second commit of the same move succeeded")
	}
	newAddr, err := th.Translate(h)
	if err != nil {
		t.Fatal(err)
	}
	if newAddr != arena.Base() {
		t.Errorf("object at %#x after the move, want %#x", newAddr, arena.Base())
	}
	if v, _ := space.ReadU64(newAddr); v != 0xFEED {
		t.Errorf("contents after move = %#x", v)
	}
	if f := r.Stats().Faults.Load(); f != 0 {
		t.Errorf("%d faults with no accessor racing the move", f)
	}
}

// TestAccessDuringMoveAborts: a translation that meets the entry mid-move
// faults, revalidates it and proceeds at the old address; the mover's
// commit then loses and the object stays where it was.
func TestAccessDuringMoveAborts(t *testing.T) {
	r, space, arena := newSpeculativeRuntime(t, mem.PageSize)
	th := r.NewThread()
	defer th.Destroy()
	h, _ := r.Halloc(64)
	oldAddr, _ := th.Translate(h)
	if err := space.WriteU64(oldAddr, 7); err != nil {
		t.Fatal(err)
	}
	e, err := r.Table.BeginSpeculativeMove(h.ID())
	if err != nil {
		t.Fatal(err)
	}
	gotAddr, err := th.Translate(h)
	if err != nil {
		t.Fatalf("translate during move: %v", err)
	}
	if gotAddr != oldAddr {
		t.Errorf("mid-move access went to %#x, want old %#x", gotAddr, oldAddr)
	}
	if err := space.Copy(arena.Base(), e.Backing, e.Size); err != nil {
		t.Fatal(err)
	}
	if r.Table.CommitSpeculativeMove(h.ID(), arena.Base()) {
		t.Fatal("commit succeeded after a concurrent access revalidated")
	}
	if a, _ := th.Translate(h); a != oldAddr {
		t.Errorf("object at %#x after aborted move, want %#x", a, oldAddr)
	}
	if v, _ := space.ReadU64(oldAddr); v != 7 {
		t.Errorf("contents after aborted move = %d, want 7", v)
	}
}

// TestSpeculativeMoveTranslateRace drives the §7 protocol end-to-end over
// the malloc service: reader threads translate a fixed working set (with
// safepoint polls) while the test body speculatively relocates the same
// objects — begin, copy, commit — into fresh destinations. Every
// translation must resolve to either the old or the new copy — both carry
// the same bytes — and every aborted move must have been a reader's fault.
func TestSpeculativeMoveTranslateRace(t *testing.T) {
	const nObjs = 128
	const size = 128
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	r, space, arena := newSpeculativeRuntime(t, uint64(iters)*size)

	hs := make([]handle.Handle, nObjs)
	for i := range hs {
		h, err := r.Halloc(size)
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
		th := r.NewThread()
		a, err := th.Translate(h)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, size)
		for k := range buf {
			buf[k] = byte(i)
		}
		if err := space.Write(a, buf); err != nil {
			t.Fatal(err)
		}
		if err := th.Destroy(); err != nil {
			t.Fatal(err)
		}
	}

	readers := runtime.GOMAXPROCS(0)
	if readers < 3 {
		readers = 3
	}
	var wg sync.WaitGroup
	quit := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := r.NewThread()
			defer th.Destroy()
			buf := make([]byte, 1)
			for i := 0; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				k := (g*31 + i) % nObjs
				a, err := th.Translate(hs[k].Add(int64(i % size)))
				if err != nil {
					t.Error(err)
					return
				}
				if err := space.Read(a, buf); err == nil && buf[0] != byte(k) {
					t.Errorf("object %d read %#x, want %#x", k, buf[0], byte(k))
					return
				}
				th.Safepoint()
			}
		}(g)
	}
	var commits, aborts int64
	for i := 0; i < iters; i++ {
		id := hs[i%nObjs].ID()
		e, err := r.Table.BeginSpeculativeMove(id)
		if err != nil {
			t.Fatal(err)
		}
		dst := arena.Base() + mem.Addr(i*size)
		if err := space.Copy(dst, e.Backing, e.Size); err != nil {
			t.Fatal(err)
		}
		if r.Table.CommitSpeculativeMove(id, dst) {
			commits++
		} else {
			aborts++
		}
	}
	close(quit)
	wg.Wait()
	if faults := r.Stats().Faults.Load(); faults < aborts {
		t.Errorf("%d aborted moves but only %d faults: something else revalidated", aborts, faults)
	}
	t.Logf("%d moves: %d commits, %d aborts, %d faults", iters, commits, aborts, r.Stats().Faults.Load())
}

// TestHallocChurnUnderConcurrentDefrag races halloc/hfree churn against
// Anchorage's pause-free pass and against translators of a standing set
// the pass keeps moving. The pass picks its candidates out of the
// service's books, where an object appears the moment Service.Alloc
// returns, and copies from whatever backing the object's table entry
// names — so the entry must not exist before the block does. A scanner
// holds that from outside, over and over: no live entry, valid or moving,
// has backing 0. (Publishing the entry before the service alloc and
// patching the address in afterwards fails here.)
func TestHallocChurnUnderConcurrentDefrag(t *testing.T) {
	space := mem.NewSpace()
	cfg := anchorage.DefaultConfig()
	cfg.SubHeapSize = 64 << 10
	svc := anchorage.NewService(space, cfg)
	r, err := rt.New(space, svc,
		rt.WithPinMode(rt.CountedPins),
		rt.WithFaultHandler(anchorage.RevalidateFaultHandler()))
	if err != nil {
		t.Fatal(err)
	}

	// Standing set: a checkerboard, so the pass always has holes to fill
	// and survivors to move; object k is filled with byte(k).
	const size = 256
	setup := r.NewThread()
	var standing, holes []handle.Handle
	for i := 0; i < 2048; i++ {
		h, err := r.Halloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 != 0 {
			holes = append(holes, h)
			continue
		}
		a, err := setup.Translate(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := space.Write(a, bytes.Repeat([]byte{byte(len(standing))}, size)); err != nil {
			t.Fatal(err)
		}
		standing = append(standing, h)
	}
	for _, h := range holes {
		if err := r.Hfree(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Destroy(); err != nil {
		t.Fatal(err)
	}

	quit := make(chan struct{})
	var bg sync.WaitGroup
	background := func(step func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-quit:
					return
				default:
					step()
				}
			}
		}()
	}
	// The mover.
	background(func() {
		svc.ConcurrentDefragPass(64 << 10)
		svc.DrainDeferred()
	})
	// The scanner.
	var scans atomic.Int64
	background(func() {
		r.Table.ForEachLive(func(id uint32, e handle.Entry) {
			if e.Backing == 0 {
				t.Errorf("id %d is published (size %d, flags %#x) with backing 0", id, e.Size, e.Flags)
			}
		})
		scans.Add(1)
	})
	// Translators of the standing set: plain translate + read + poll, so a
	// move in flight faults them into the revalidate path.
	for g := 0; g < 2; g++ {
		th := r.NewThread()
		defer th.Destroy()
		buf := make([]byte, 8)
		i := g * 37
		background(func() {
			k := i % len(standing)
			i++
			a, err := th.Translate(standing[k])
			if err == nil {
				err = space.Read(a, buf)
			}
			if err != nil {
				t.Error(err)
			} else if want := bytes.Repeat([]byte{byte(k)}, len(buf)); !bytes.Equal(buf, want) {
				t.Errorf("standing object %d reads %x, want %x", k, buf, want)
			}
			th.Safepoint()
		})
	}

	// Churners, in the foreground: each keeps a window of objects and
	// replaces the oldest, in the standing set's size class and around it.
	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	var churn sync.WaitGroup
	for w := 0; w < 3; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			window := make([]handle.Handle, 32)
			for op := 0; op < ops; op++ {
				k := op % len(window)
				if window[k] != 0 {
					if err := r.Hfree(window[k]); err != nil {
						t.Error(err)
						return
					}
				}
				h, err := r.Halloc(uint64(128 + 64*rng.Intn(5)))
				if err != nil {
					t.Error(err)
					return
				}
				window[k] = h
			}
			for _, h := range window {
				if err := r.Hfree(h); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	churn.Wait()
	close(quit)
	bg.Wait()
	if scans.Load() == 0 {
		t.Error("the scanner never completed a sweep")
	}
	if got, want := r.Table.Live(), len(standing); got != want {
		t.Errorf("Live = %d after the churners drained, want the %d standing objects", got, want)
	}
	m := svc.MetricsSnapshot()
	t.Logf("%d churn ops under %d passes (%d bytes moved, %d aborts), %d table scans",
		3*ops, m.ConcurrentPasses, m.MovedBytes, m.MoveAborts, scans.Load())
}
