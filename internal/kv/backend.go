// Package kv implements the in-memory key-value store the paper's
// defragmentation experiments run against and alaskad serves from:
// ShardedStore, a set of mutex-protected shards under one store-wide
// memory ceiling with LRU eviction, TTLs and a flush_all epoch. The
// Redis-like experiments (Figures 9, 10, 11, the YCSB runner) drive one
// shard through one session (SingleThreadedSession); the memcached-like
// ones (Figure 12, alaskad) drive many shards from a session per worker.
//
// The store allocates every value from a pluggable Backend so the same
// workload can run over the baseline allocator, Redis-style activedefrag,
// Mesh, or Alaska+Anchorage — the four curves of Figure 9.
//
// Time on the request path: one instant decides
// everything a command does — liveness (deadline and flush_all epoch),
// storedAt, lastUsed and the eviction scan's reclaim-vs-evict verdicts.
// The …At entry points and the server-only methods (GetAndTouchInto,
// ApplyInto, TouchBytes, DelBytes) take that instant from the caller;
// the no-now forms (Get, GetInto, SetExBytes, …) read the store's Clock
// once, before taking the shard lock. Either way the reading predates
// the shard-lock wait and is stale by at most that wait: two commands
// racing for one shard may apply in the opposite order of their
// readings, exactly as two clients racing memcached's once-a-second
// current_time may. Maintenance (SweepExpired, ItemsSnapshot, Dump, WAL
// replay) reads its own clock.
package kv

import (
	"sync"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/handle"
	"alaska/internal/mallocsim"
	"alaska/internal/mem"
	"alaska/internal/mesh"
	"alaska/internal/rt"
)

// Ref is an opaque reference to a stored block: a raw simulated address
// for conventional backends or a handle word for Anchorage.
type Ref uint64

// Session is a per-thread access context. Conventional backends need no
// state; the Anchorage backend carries an rt.Thread so reads and writes
// pin the handle for their duration.
type Session interface {
	// Read copies len(b) bytes at off within the block.
	Read(ref Ref, off uint64, b []byte) error
	// Write copies b to off within the block.
	Write(ref Ref, off uint64, b []byte) error
	// Safepoint polls for a runtime barrier (no-op outside Alaska).
	Safepoint()
	// EnterIdle marks the session's thread as blocked outside instrumented
	// code — e.g. waiting on a socket — so a stop-the-world barrier does
	// not wait for it (the external-thread rule of §4.1.3). The caller
	// must not touch the store between EnterIdle and ExitIdle. No-op
	// outside Alaska.
	EnterIdle()
	// ExitIdle returns the thread to instrumented code, parking first if a
	// barrier is in flight. No-op outside Alaska.
	ExitIdle()
	// Close releases the session.
	Close() error
}

// Backend is a heap implementation the store can run on.
type Backend interface {
	Name() string
	NewSession() Session
	Alloc(size uint64) (Ref, error)
	Free(ref Ref, size uint64) error
	// UsedBytes is the allocator-level live-byte count — what Redis calls
	// used_memory and compares against maxmemory.
	UsedBytes() uint64
	// RSS is the resident set under this backend — what Figure 9 plots.
	RSS() uint64
	// Maintain runs the backend's background machinery (defrag
	// controller, meshing, activedefrag cycle) up to simulated time now,
	// returning any stop-the-world pause incurred.
	Maintain(now time.Duration) time.Duration
}

// ---------------------------------------------------------------------------
// Baseline: conventional non-moving allocator, no background work.

// MallocBackend is the baseline backend.
type MallocBackend struct {
	Space *mem.Space
	A     *mallocsim.Allocator
}

// NewMallocBackend returns a baseline backend on a fresh space.
func NewMallocBackend() *MallocBackend {
	s := mem.NewSpace()
	return &MallocBackend{Space: s, A: mallocsim.New(s)}
}

// Name implements Backend.
func (b *MallocBackend) Name() string { return "baseline" }

// NewSession implements Backend.
func (b *MallocBackend) NewSession() Session { return rawSession{b.Space} }

// Alloc implements Backend.
func (b *MallocBackend) Alloc(size uint64) (Ref, error) {
	a, err := b.A.Alloc(size)
	return Ref(a), err
}

// Free implements Backend.
func (b *MallocBackend) Free(ref Ref, _ uint64) error { return b.A.Free(mem.Addr(ref)) }

// UsedBytes implements Backend.
func (b *MallocBackend) UsedBytes() uint64 { return b.A.ActiveBytes() }

// RSS implements Backend.
func (b *MallocBackend) RSS() uint64 { return b.Space.RSS() }

// Maintain implements Backend (no background work in the baseline).
func (b *MallocBackend) Maintain(time.Duration) time.Duration { return 0 }

// rawSession accesses raw addresses directly.
type rawSession struct{ space *mem.Space }

func (s rawSession) Read(ref Ref, off uint64, b []byte) error {
	return s.space.Read(mem.Addr(ref)+mem.Addr(off), b)
}
func (s rawSession) Write(ref Ref, off uint64, b []byte) error {
	return s.space.Write(mem.Addr(ref)+mem.Addr(off), b)
}
func (s rawSession) Safepoint()   {}
func (s rawSession) EnterIdle()   {}
func (s rawSession) ExitIdle()    {}
func (s rawSession) Close() error { return nil }

// ---------------------------------------------------------------------------
// activedefrag: the same allocator plus the Redis-style application-
// assisted defragmentation protocol.

// ActiveDefragBackend models Redis's activedefrag: on each maintenance
// cycle the *application* walks its own objects, asks the allocator for
// placement hints, reallocates hinted objects, rewrites its own pointers,
// and frees the originals. The Iterator field is that application
// knowledge — the "thousands of lines" Alaska makes unnecessary.
type ActiveDefragBackend struct {
	*MallocBackend
	// Iterator is supplied by the store; visit's update callback rewrites
	// the owning pointer.
	Iterator func(visit func(ref Ref, size uint64, update func(Ref)))
	// CycleInterval is how often a defrag cycle runs (Redis: ~100 ms
	// increments driven from serverCron, fragmentation polled at 1 Hz).
	CycleInterval time.Duration
	// Effort caps objects examined per cycle (CPU budget).
	Effort int
	// MinFrag gates defragmentation like Redis's
	// active-defrag-threshold-lower.
	MinFrag float64
	// MoveBandwidth converts moved bytes into pause time.
	MoveBandwidth float64

	nextCycle time.Duration
	// Moved counts relocated objects.
	Moved int64
}

// NewActiveDefragBackend wraps a fresh baseline backend with the
// activedefrag protocol.
func NewActiveDefragBackend() *ActiveDefragBackend {
	return &ActiveDefragBackend{
		MallocBackend: NewMallocBackend(),
		CycleInterval: 100 * time.Millisecond,
		Effort:        20000,
		MinFrag:       1.1,
		MoveBandwidth: 4 << 30,
	}
}

// Name implements Backend.
func (b *ActiveDefragBackend) Name() string { return "activedefrag" }

// Maintain implements Backend: one incremental defrag cycle.
func (b *ActiveDefragBackend) Maintain(now time.Duration) time.Duration {
	if b.Iterator == nil || now < b.nextCycle {
		return 0
	}
	b.nextCycle = now + b.CycleInterval
	active := b.A.ActiveBytes()
	if active == 0 {
		return 0
	}
	frag := float64(b.Space.RSS()) / float64(active)
	if frag < b.MinFrag {
		return 0
	}
	examined := 0
	var movedBytes uint64
	b.Iterator(func(ref Ref, size uint64, update func(Ref)) {
		if examined >= b.Effort {
			return
		}
		examined++
		old := mem.Addr(ref)
		if !b.A.DefragHint(old) {
			return
		}
		na, err := b.A.Alloc(size)
		if err != nil {
			return
		}
		buf := make([]byte, size)
		if b.Space.Read(old, buf) != nil {
			_ = b.A.Free(na)
			return
		}
		if b.Space.Write(na, buf) != nil {
			_ = b.A.Free(na)
			return
		}
		update(Ref(na))
		_ = b.A.Free(old)
		b.Moved++
		movedBytes += size
	})
	// activedefrag runs incrementally on the event loop: the "pause" is
	// the copy time for this cycle's batch.
	return time.Duration(float64(movedBytes) / b.MoveBandwidth * float64(time.Second))
}

// ---------------------------------------------------------------------------
// Mesh backend.

// MeshBackend runs the store over the Mesh allocator with periodic
// meshing rounds.
type MeshBackend struct {
	Space *mem.Space
	A     *mesh.Allocator
	// MeshInterval is how often a meshing round runs.
	MeshInterval time.Duration
	// Probes per round per size class.
	Probes int

	// mu serializes access to A: unlike mallocsim, the mesh allocator has
	// no internal locking (the figure experiments drive it from one
	// thread), and alaskad's connection goroutines alloc/free it
	// concurrently with the maintenance goroutine's meshing rounds.
	mu   sync.Mutex
	next time.Duration
}

// NewMeshBackend returns a Mesh backend on a fresh space.
func NewMeshBackend(seed int64) *MeshBackend {
	s := mem.NewSpace()
	return &MeshBackend{Space: s, A: mesh.New(s, seed), MeshInterval: 100 * time.Millisecond, Probes: 64}
}

// Name implements Backend.
func (b *MeshBackend) Name() string { return "mesh" }

// NewSession implements Backend.
func (b *MeshBackend) NewSession() Session { return rawSession{b.Space} }

// Alloc implements Backend.
func (b *MeshBackend) Alloc(size uint64) (Ref, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a, err := b.A.Alloc(size)
	return Ref(a), err
}

// Free implements Backend.
func (b *MeshBackend) Free(ref Ref, _ uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.A.Free(mem.Addr(ref))
}

// UsedBytes implements Backend.
func (b *MeshBackend) UsedBytes() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.A.ActiveBytes()
}

// RSS implements Backend (Mesh's page-sharing accounting).
func (b *MeshBackend) RSS() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.A.RSS()
}

// Maintain implements Backend: periodic meshing.
func (b *MeshBackend) Maintain(now time.Duration) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if now < b.next {
		return 0
	}
	b.next = now + b.MeshInterval
	b.A.Mesh(b.Probes)
	return 0 // meshing is metadata-only; no copy pause
}

// ---------------------------------------------------------------------------
// Alaska + Anchorage backend.

// AnchorageBackend runs the store on handles over the Anchorage service
// with the §4.3 control algorithm.
type AnchorageBackend struct {
	Space   *mem.Space
	Runtime *rt.Runtime
	Svc     *anchorage.Service
	Ctl     *anchorage.Controller

	// primary is the thread used as barrier initiator in single-threaded
	// simulations (Maintain is called between ops on the app thread).
	primary *rt.Thread
}

// NewAnchorageBackend builds the full Alaska stack with an Anchorage
// service. The §7 revalidate fault handler is installed by default so the
// service's pause-free ConcurrentDefragPass can run against the backend;
// extra runtime options (e.g. rt.WithPinMode(rt.CountedPins), required
// when writers run concurrently with that pass — see alaskad) are
// appended and may override the defaults.
func NewAnchorageBackend(cfg anchorage.Config, opts ...rt.Option) (*AnchorageBackend, error) {
	space := mem.NewSpace()
	svc := anchorage.NewService(space, cfg)
	r, err := rt.New(space, svc,
		append([]rt.Option{rt.WithFaultHandler(anchorage.RevalidateFaultHandler())}, opts...)...)
	if err != nil {
		return nil, err
	}
	b := &AnchorageBackend{
		Space:   space,
		Runtime: r,
		Svc:     svc,
		Ctl:     anchorage.NewController(svc),
	}
	b.primary = r.NewThread()
	// The primary thread never executes instrumented code concurrently
	// with a barrier: it is either the barrier initiator (single-threaded
	// simulations, where it is the only mutator) or idle (concurrent
	// experiments, where workers run their own sessions). Marking it
	// external lets detached initiators stop the world without waiting
	// for a thread that polls no safepoints.
	b.primary.EnterExternal()
	return b, nil
}

// Name implements Backend.
func (b *AnchorageBackend) Name() string { return "anchorage" }

// NewSession implements Backend.
func (b *AnchorageBackend) NewSession() Session {
	return &handleSession{space: b.Space, th: b.Runtime.NewThread()}
}

// PrimarySession returns a session bound to the backend's primary thread
// (the barrier initiator for single-threaded simulations).
func (b *AnchorageBackend) PrimarySession() Session {
	return &handleSession{space: b.Space, th: b.primary, keep: true}
}

// SingleThreadedSession returns the session for a driver that runs every
// store operation and every Maintain call on one goroutine (the figure
// and YCSB harnesses): on Anchorage the primary session, so Maintain's
// barriers are initiated by the one thread that mutates and never wait
// on it; a fresh session on every other backend. Such a driver polls
// sess.Safepoint() before each store.Maintain(now).
func SingleThreadedSession(b Backend) Session {
	if ab, ok := b.(*AnchorageBackend); ok {
		return ab.PrimarySession()
	}
	return b.NewSession()
}

// Alloc implements Backend.
func (b *AnchorageBackend) Alloc(size uint64) (Ref, error) {
	h, err := b.Runtime.Halloc(size)
	return Ref(h), err
}

// Free implements Backend.
func (b *AnchorageBackend) Free(ref Ref, _ uint64) error {
	return b.Runtime.Hfree(handle.Handle(ref))
}

// UsedBytes implements Backend.
func (b *AnchorageBackend) UsedBytes() uint64 { return b.Svc.ActiveBytes() }

// RSS implements Backend.
func (b *AnchorageBackend) RSS() uint64 { return b.Space.RSS() }

// Maintain implements Backend: steps the Anchorage control algorithm,
// initiating barriers from the primary thread.
func (b *AnchorageBackend) Maintain(now time.Duration) time.Duration {
	return b.Ctl.Step(now, b.Runtime, b.primary)
}

// handleSession pins handles around each access.
type handleSession struct {
	space *mem.Space
	th    *rt.Thread
	keep  bool // primary thread is owned by the backend, not the session
}

func (s *handleSession) Read(ref Ref, off uint64, b []byte) error {
	a, unpin, err := s.th.Pin(handle.Handle(ref).Add(int64(off)))
	if err != nil {
		return err
	}
	err = s.space.Read(a, b)
	unpin()
	return err
}

func (s *handleSession) Write(ref Ref, off uint64, b []byte) error {
	a, unpin, err := s.th.Pin(handle.Handle(ref).Add(int64(off)))
	if err != nil {
		return err
	}
	err = s.space.Write(a, b)
	unpin()
	return err
}

func (s *handleSession) Safepoint() { s.th.Safepoint() }
func (s *handleSession) EnterIdle() { s.th.EnterExternal() }
func (s *handleSession) ExitIdle()  { s.th.ExitExternal() }

func (s *handleSession) Close() error {
	if s.keep {
		return nil
	}
	return s.th.Destroy()
}
