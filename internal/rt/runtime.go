// Package rt implements the Alaska core runtime (§4.2 of the paper): handle
// allocation (halloc/hfree), pin tracking through per-thread stacks of pin
// sets, the stop-the-world barrier that unifies those pin sets, and the
// extensible service interface that backs allocations and exploits object
// mobility.
//
// The paper's runtime stops threads by patching safepoint NOPs into UD2
// instructions and parsing LLVM StackMaps from the SIGILL handler. In this
// simulation, a safepoint is an explicit poll (Thread.Safepoint) and the
// "patching" is an atomic flag — the rendezvous protocol, the treatment of
// threads blocked in external code (they are already at a safe point, since
// no pin sets can exist below an external call, §4.1.3), and the pin-set
// unification are otherwise the same.
package rt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"alaska/internal/handle"
	"alaska/internal/mem"
)

// Service is the pluggable backing-memory manager (§3.5, §4.2.2). It has
// the paper's eight callbacks: two lifetime functions, two backing-memory
// functions, and four metadata functions.
type Service interface {
	// Init is called once when the service is attached to a runtime.
	Init(rt *Runtime) error
	// Deinit is called when the runtime shuts down.
	Deinit() error

	// Alloc provides backing memory for the object owned by handle id.
	// Passing the id lets services track object ownership so they can later
	// update the right HTE when they move the object.
	Alloc(id uint32, size uint64) (mem.Addr, error)
	// Free releases the backing memory of handle id.
	Free(id uint32, addr mem.Addr, size uint64) error

	// UsableSize reports the usable size of the block at addr.
	UsableSize(addr mem.Addr) uint64
	// HeapExtent reports the virtual extent of the service's heap in bytes
	// (the numerator of Anchorage's O(1) fragmentation metric).
	HeapExtent() uint64
	// ActiveBytes reports the total size of live objects (the denominator
	// of the fragmentation metric).
	ActiveBytes() uint64
	// Name identifies the service in logs and experiment output.
	Name() string
}

// FaultHandler is invoked when translation hits an HTE marked invalid
// (a "handle fault", §7). The handler must restore the entry (e.g. swap the
// object back in and SetBacking + SetInvalid(false)) or return an error.
type FaultHandler func(rt *Runtime, id uint32) error

// PinMode selects how pinned handles are tracked (§3.4).
type PinMode int

const (
	// StackPins is the paper's design: pins are recorded in per-invocation
	// pin sets on each thread's stack; no shared-state updates on the pin
	// path.
	StackPins PinMode = iota
	// CountedPins is the naïve strawman the paper rejects: an atomic
	// pin-count per HTE. Kept for the ablation benchmark that shows its
	// cross-core contention cost.
	CountedPins
)

// Runtime is the Alaska core runtime instance.
type Runtime struct {
	Space *mem.Space
	// Table is the sharded, read-lock-free handle table: Translate is a
	// pure atomic load chain, so mutator threads scale across cores and
	// the §7 speculative-move protocol can relocate objects while they
	// translate concurrently (see internal/handle/sharded.go).
	Table *handle.Table

	svc     Service
	onFault FaultHandler
	pinMode PinMode

	mu      sync.Mutex
	threads map[*Thread]struct{}

	// Barrier machinery.
	barrierMu   sync.Mutex  // serializes initiators
	stopRequest atomic.Bool // the "patched NOP": threads poll this
	quiesceCond *sync.Cond  // signalled by threads entering a safe state
	resumeCond  *sync.Cond  // broadcast when the barrier completes
	// barrierWaitObs, when set, observes each barrier's safepoint
	// rendezvous wait (see SetBarrierWaitObserver).
	barrierWaitObs atomic.Pointer[func(time.Duration)]

	// Statistics.
	stats Stats
}

// Stats counts runtime events; all fields are monotonically increasing.
// Translates counts successful translations only.
type Stats struct {
	Hallocs     atomic.Int64
	Hfrees      atomic.Int64
	Translates  atomic.Int64
	Pins        atomic.Int64
	Barriers    atomic.Int64
	Faults      atomic.Int64
	MovedBytes  atomic.Int64
	MovedObject atomic.Int64
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithPinMode selects the pin-tracking implementation.
func WithPinMode(m PinMode) Option { return func(r *Runtime) { r.pinMode = m } }

// WithFaultHandler installs the handle-fault handler.
func WithFaultHandler(h FaultHandler) Option { return func(r *Runtime) { r.onFault = h } }

// New creates a runtime on the given address space with the given service.
func New(space *mem.Space, svc Service, opts ...Option) (*Runtime, error) {
	r := &Runtime{
		Space:   space,
		Table:   handle.NewTable(),
		svc:     svc,
		threads: make(map[*Thread]struct{}),
	}
	r.quiesceCond = sync.NewCond(&r.mu)
	r.resumeCond = sync.NewCond(&r.mu)
	for _, o := range opts {
		o(r)
	}
	if err := svc.Init(r); err != nil {
		return nil, fmt.Errorf("rt: service init: %w", err)
	}
	return r, nil
}

// Close shuts the runtime down, deinitializing the service.
func (r *Runtime) Close() error {
	r.mu.Lock()
	n := len(r.threads)
	r.mu.Unlock()
	if n != 0 {
		return fmt.Errorf("rt: Close with %d live threads", n)
	}
	return r.svc.Deinit()
}

// Service returns the attached service.
func (r *Runtime) Service() Service { return r.svc }

// Stats brings the runtime's event counters up to date and returns a
// pointer to them. Pins and Translates are counted per thread, off the
// shared cache line, and this call is what moves every registered
// thread's counts into the totals (Destroy moves an exiting thread's): a
// caller that keeps the pointer reads those two as of its last Stats
// call. Safe from inside a barrier callback — Barrier does not hold r.mu
// while fn runs.
func (r *Runtime) Stats() *Stats {
	r.mu.Lock()
	for t := range r.threads {
		t.drainStats()
	}
	r.mu.Unlock()
	return &r.stats
}

// Halloc allocates size bytes of handle-managed memory and returns the
// handle word the program will treat as a pointer. The ID is reserved, the
// service provides the block, and only then is the entry published — once,
// with its final backing — so no translator or concurrent mover meets an
// entry whose Backing is 0, and a service failure leaves nothing behind.
func (r *Runtime) Halloc(size uint64) (handle.Handle, error) {
	if size == 0 {
		size = 1 // malloc(0) must return a unique pointer
	}
	id, err := r.Table.Reserve(size)
	if err != nil {
		return 0, err
	}
	addr, err := r.svc.Alloc(id, size)
	if err != nil {
		r.Table.Unreserve(id)
		return 0, err
	}
	r.Table.Publish(id, addr, size)
	r.stats.Hallocs.Add(1)
	return handle.Make(id, 0), nil
}

// Hfree releases the object behind h. The handle must reference offset 0,
// mirroring free()'s requirement of the original malloc pointer.
func (r *Runtime) Hfree(h handle.Handle) error {
	if !h.IsHandle() {
		return fmt.Errorf("rt: Hfree of raw pointer %#x (baseline pointers are not handle-managed)", uint64(h))
	}
	if h.Offset() != 0 {
		return fmt.Errorf("rt: Hfree of interior handle %v", h)
	}
	id := h.ID()
	e, err := r.Table.Get(id)
	if err != nil {
		return err
	}
	if err := r.svc.Free(id, e.Backing, e.Size); err != nil {
		return err
	}
	if err := r.Table.Free(id); err != nil {
		return err
	}
	r.stats.Hfrees.Add(1)
	return nil
}

// SizeOf returns the allocation size behind a handle.
func (r *Runtime) SizeOf(h handle.Handle) (uint64, error) {
	if !h.IsHandle() {
		return 0, fmt.Errorf("rt: SizeOf of raw pointer")
	}
	e, err := r.Table.Get(h.ID())
	if err != nil {
		return 0, err
	}
	return e.Size, nil
}

// translate resolves h, running the fault path if the entry is invalid.
// The common case is entirely lock-free: Table.Translate performs atomic
// loads only, so concurrent translations never serialize — the property
// the paper's low overhead rests on. The retry loop is the accessor side
// of §7: a fault handler that revalidates (or swaps in) the entry lets the
// next iteration succeed at the restored address.
func (r *Runtime) translate(h handle.Handle) (mem.Addr, error) {
	for {
		a, err := r.Table.Translate(h)
		if err == nil {
			return a, nil
		}
		if !errors.Is(err, handle.ErrHandleFault) {
			return 0, err
		}
		r.stats.Faults.Add(1)
		if r.onFault == nil {
			return 0, fmt.Errorf("rt: handle fault on %v with no fault handler", h)
		}
		if err := r.onFault(r, h.ID()); err != nil {
			return 0, fmt.Errorf("rt: fault handler: %w", err)
		}
	}
}

// EpochSnapshot captures every registered thread's safepoint epoch. Pair
// with QuiescentSince for grace-period ("handshake") reclamation: memory
// unlinked at snapshot time may be reused once QuiescentSince(snapshot)
// holds, because no thread can still act on a raw pointer translated
// before the snapshot without having crossed a safepoint.
func (r *Runtime) EpochSnapshot() map[*Thread]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := make(map[*Thread]uint64, len(r.threads))
	for t := range r.threads {
		snap[t] = t.epoch.Load()
	}
	return snap
}

// QuiescentSince reports whether every thread in the snapshot has crossed
// a safepoint since it was taken (threads that have exited, are parked in
// a barrier, or are blocked in external code count as quiescent).
func (r *Runtime) QuiescentSince(snap map[*Thread]uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for t, e := range snap {
		if _, live := r.threads[t]; !live {
			continue
		}
		if threadState(t.state.Load()) != stateRunning {
			continue
		}
		if t.epoch.Load() == e {
			return false
		}
	}
	return true
}

// Fragmentation returns the service's current fragmentation ratio: virtual
// heap extent over active object bytes (§4.3). Returns 1 when the heap is
// empty.
func (r *Runtime) Fragmentation() float64 {
	active := r.svc.ActiveBytes()
	if active == 0 {
		return 1
	}
	return float64(r.svc.HeapExtent()) / float64(active)
}
