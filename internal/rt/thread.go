package rt

import (
	"fmt"
	"sync/atomic"

	"alaska/internal/handle"
	"alaska/internal/mem"
)

// threadState is the barrier-visible execution state of a thread.
type threadState int32

const (
	// stateRunning: executing transformed code; must poll safepoints.
	stateRunning threadState = iota
	// stateParked: stopped at a safepoint inside a barrier.
	stateParked
	// stateExternal: inside an external (uninstrumented) call. Such a
	// thread is already safe: per §4.1.3 no pin sets can exist below the
	// external frame, and the pins above it are stable while it is away.
	stateExternal
)

// Thread is a simulated application thread registered with the runtime. It
// owns a stack of pin sets — one fixed-size set per active function
// invocation — exactly mirroring the stack-allocated pin arrays the Alaska
// compiler emits in each function prelude (§4.1.3).
type Thread struct {
	rt    *Runtime
	state atomic.Int32
	// epoch counts safepoint crossings; grace-period reclamation (the
	// pause-free defrag pass) uses it to know when no thread can still
	// hold a raw pointer obtained before a given moment.
	epoch atomic.Uint64

	// slots is the pin stack: every live pin set laid end to end in one
	// grow-only arena, the way the compiled pin arrays sit in consecutive
	// stack frames. frames[i] is where invocation i's set starts, so the
	// current set is slots[frames[len(frames)-1]:] and a push or pop moves
	// two lengths and allocates nothing once the arena has grown. Only the
	// owning goroutine mutates either, and the barrier initiator reads
	// them only after the thread has quiesced (parked or external), so no
	// per-slot synchronization is needed — the same argument the paper
	// makes for why stack pin sets need no atomics.
	slots  []handle.Handle
	frames []int
	// unpin is PopFrame bound once at NewThread: Pin hands it out on
	// every call, and a fresh t.PopFrame method value would be a heap
	// allocation each time.
	unpin func()

	// pins and translates are this thread's share of Stats.Pins and
	// Stats.Translates: bumped here, where no other thread writes, and
	// moved into the runtime's totals by Runtime.Stats and Destroy. The
	// padding rounds Thread up to 128 B, a size class whose objects start
	// on cache-line boundaries, so two threads' counters (and epochs) never
	// share a line.
	pins       atomic.Int64
	translates atomic.Int64
	_          [32]byte
}

// drainStats moves the thread's counts into the runtime's totals; r.mu
// must be held. A count leaves the thread by an atomic swap, so a pin
// racing the drain is in this drain or the next, never both.
func (t *Thread) drainStats() {
	t.rt.stats.Pins.Add(t.pins.Swap(0))
	t.rt.stats.Translates.Add(t.translates.Swap(0))
}

// NewThread registers a new application thread. If a barrier is in flight,
// registration waits for it to finish so a fresh thread can never run
// concurrently with a relocation.
func (r *Runtime) NewThread() *Thread {
	t := &Thread{rt: r}
	t.unpin = t.PopFrame
	r.mu.Lock()
	for r.stopRequest.Load() {
		r.resumeCond.Wait()
	}
	r.threads[t] = struct{}{}
	r.mu.Unlock()
	return t
}

// Destroy unregisters the thread. Its pin frames must all be popped.
func (t *Thread) Destroy() error {
	if len(t.frames) != 0 {
		return fmt.Errorf("rt: Destroy of thread with %d live pin frames", len(t.frames))
	}
	// If a barrier is in flight it may be waiting for this thread to
	// quiesce; removing the thread must wake the initiator.
	t.rt.mu.Lock()
	t.drainStats()
	delete(t.rt.threads, t)
	t.rt.quiesceCond.Broadcast()
	t.rt.mu.Unlock()
	return nil
}

// PushFrame allocates a pin set of n slots for a function invocation. The
// compiler computes n statically via interference-graph colouring.
func (t *Thread) PushFrame(n int) {
	t.frames = append(t.frames, len(t.slots))
	// The compiler extends in place and zeroes the new slots; no
	// temporary slice is built.
	t.slots = append(t.slots, make([]handle.Handle, n)...)
}

// PopFrame discards the current invocation's pin set, implicitly unpinning
// everything it held.
func (t *Thread) PopFrame() {
	if len(t.frames) == 0 {
		panic("rt: PopFrame on empty pin stack")
	}
	last := len(t.frames) - 1
	base := t.frames[last]
	if t.rt.pinMode == CountedPins {
		for _, h := range t.slots[base:] {
			if h.IsHandle() {
				_ = t.rt.Table.AddPin(h.ID(), -1)
			}
		}
	}
	t.slots = t.slots[:base]
	t.frames = t.frames[:last]
}

// TranslateAndPin records h in slot of the current pin set and returns the
// raw backing address. This is the runtime half of a compiler-inserted
// translate: store to the pin set, then the table load of Figure 5.
// Raw pointers pass through without pinning (the translation function's
// pointer case).
func (t *Thread) TranslateAndPin(h handle.Handle, slot int) (mem.Addr, error) {
	if !h.IsHandle() {
		return mem.Addr(h), nil
	}
	if len(t.frames) == 0 {
		return 0, fmt.Errorf("rt: TranslateAndPin with no pin frame")
	}
	fr := t.slots[t.frames[len(t.frames)-1]:]
	if slot < 0 || slot >= len(fr) {
		return 0, fmt.Errorf("rt: pin slot %d out of range (frame has %d)", slot, len(fr))
	}
	// CountedPins (the §3.4 strawman) now costs exactly what the paper
	// charges it with: a cross-core atomic RMW per pin — the sharded table
	// no longer adds a global lock on top.
	if t.rt.pinMode == CountedPins {
		if old := fr[slot]; old.IsHandle() {
			_ = t.rt.Table.AddPin(old.ID(), -1)
		}
		if err := t.rt.Table.AddPin(h.ID(), 1); err != nil {
			return 0, err
		}
	}
	fr[slot] = h
	t.pins.Add(1)
	return t.translate(h)
}

// Pin is the scoped-pin convenience used by hand-written runtime clients
// (the KV store's writes, examples): it pushes a one-slot frame, pins h,
// and returns the raw address plus an unpin func that pops the frame.
// Pins nest like the frames they are. The pair is allocation-free — the
// frame is a window into the thread's slot arena and the func is the
// thread's cached PopFrame value — so a pinned access costs what Figure 7
// charges it, a pin-set store and a table load, and no allocator work.
func (t *Thread) Pin(h handle.Handle) (mem.Addr, func(), error) {
	t.PushFrame(1)
	a, err := t.TranslateAndPin(h, 0)
	if err != nil {
		t.PopFrame()
		return 0, nil, err
	}
	return a, t.unpin, nil
}

// Translate resolves a handle without pinning it. The rule is: no
// safepoint between the translate and the last use of the address. A
// running thread that keeps it is safe from both movers — a barrier waits
// for the thread's next poll, and a block the pause-free pass vacates is
// not reused or truncated until that poll (see
// anchorage.ConcurrentDefragPass) — so the address suits reads; a write
// through it could land in an old copy the pass has already committed
// away from, and must pin. The kv store's read path (handleSession.Read)
// is its production caller: every GET, GAT and RMW read translates,
// copies and is done before its session polls again.
func (t *Thread) Translate(h handle.Handle) (mem.Addr, error) {
	return t.translate(h)
}

// translate is Runtime.translate plus the per-thread count of the ones
// that succeeded.
func (t *Thread) translate(h handle.Handle) (mem.Addr, error) {
	a, err := t.rt.translate(h)
	if err == nil {
		t.translates.Add(1)
	}
	return a, err
}

// Safepoint is the poll the compiler inserts on loop back edges, function
// entries, and before external calls. If a barrier has been requested, the
// thread parks until the barrier completes.
func (t *Thread) Safepoint() {
	t.epoch.Add(1)
	if !t.rt.stopRequest.Load() {
		return
	}
	t.park()
}

func (t *Thread) park() {
	r := t.rt
	r.mu.Lock()
	t.state.Store(int32(stateParked))
	r.quiesceCond.Broadcast()
	for r.stopRequest.Load() {
		r.resumeCond.Wait()
	}
	t.state.Store(int32(stateRunning))
	r.mu.Unlock()
}

// EnterExternal marks the thread as inside an uninstrumented external call
// (e.g. blocked in the kernel). A barrier will not wait for it — this is
// the straggler-signalling path of §4.1.3: because no handle translation
// happens in external code, the thread's extant pin sets are complete and
// stable.
func (t *Thread) EnterExternal() {
	t.epoch.Add(1) // entering external code is a safe point
	r := t.rt
	r.mu.Lock()
	t.state.Store(int32(stateExternal))
	r.quiesceCond.Broadcast()
	r.mu.Unlock()
}

// ExitExternal returns the thread to instrumented code. If a barrier is in
// flight the thread parks immediately rather than racing the relocator.
func (t *Thread) ExitExternal() {
	r := t.rt
	r.mu.Lock()
	for r.stopRequest.Load() {
		// A barrier is running; remain "safe" (parked) until it finishes.
		t.state.Store(int32(stateParked))
		r.quiesceCond.Broadcast()
		r.resumeCond.Wait()
	}
	t.state.Store(int32(stateRunning))
	r.mu.Unlock()
}

// pinnedInto adds every handle currently held in the thread's pin sets to
// set. Called by the barrier initiator after the thread has quiesced.
func (t *Thread) pinnedInto(set map[uint32]bool) {
	for _, h := range t.slots {
		if h.IsHandle() {
			set[h.ID()] = true
		}
	}
}
