// Package alaska is the public API of this repository's reproduction of
// "Getting a Handle on Unmanaged Memory" (Wanninger et al., ASPLOS '24):
// transparent handle-based memory management with object mobility, a
// defragmenting Anchorage service, a compiler that automates handle
// translation over an LLVM-like IR, and the simulated machine substrate
// everything runs on.
//
// The three layers mirror the paper's architecture:
//
//   - System bundles a simulated address space, the Alaska core runtime
//     (handle table, pin tracking, barriers), and a pluggable service —
//     use it to allocate handles, pin them around accesses, and let the
//     service move objects.
//   - Compile applies the Alaska compiler passes (Algorithm 1 translation
//     insertion with loop hoisting, pin-slot assignment, safepoints,
//     escape handling) to an ir.Module; Run executes it.
//   - The figures sub-harnesses (internal/figures, cmd/*) regenerate the
//     paper's evaluation.
//
// A minimal session:
//
//	sys, _ := alaska.NewSystem(alaska.WithAnchorage(anchorage.DefaultConfig()))
//	defer sys.Close()
//	h, _ := sys.Halloc(64)
//	th := sys.NewThread()
//	addr, unpin, _ := th.Pin(h)
//	_ = sys.Space().WriteU64(addr, 42)
//	unpin()
//	sys.Defrag(th) // objects move; h remains valid
package alaska

import (
	"fmt"

	"alaska/internal/anchorage"
	"alaska/internal/compiler"
	"alaska/internal/handle"
	"alaska/internal/ir"
	"alaska/internal/mallocsim"
	"alaska/internal/mem"
	"alaska/internal/rt"
	"alaska/internal/swap"
	"alaska/internal/vm"
)

// Handle is a 64-bit word that is either a raw pointer or an encoded
// handle (top bit set), per the paper's Figure 4.
type Handle = handle.Handle

// Thread is an application thread with its own stack of pin sets.
type Thread = rt.Thread

// BarrierScope exposes the unified pin set and the relocation primitive
// during a stop-the-world barrier.
type BarrierScope = rt.BarrierScope

// CompileOptions re-exports the compiler's configuration (Hoisting,
// Tracking).
type CompileOptions = compiler.Options

// CompileStats re-exports the transformation statistics.
type CompileStats = compiler.Stats

// System is a complete Alaska instance: simulated address space, core
// runtime, and service.
type System struct {
	space   *mem.Space
	runtime *rt.Runtime
	anchor  *anchorage.Service // nil unless the Anchorage service is used
	swapper *swap.Swapper
	primary *rt.Thread
}

// Option configures NewSystem.
type Option func(*config)

type config struct {
	useAnchorage bool
	anchorageCfg anchorage.Config
	swapStore    swap.Store
}

// WithAnchorage attaches the defragmenting Anchorage service (§4.3)
// instead of the default malloc-backed service.
func WithAnchorage(cfg anchorage.Config) Option {
	return func(c *config) {
		c.useAnchorage = true
		c.anchorageCfg = cfg
	}
}

// WithSwapping enables the §7 handle-fault swapping extension backed by
// the given store (e.g. swap.NewMemStore(true) for a compressed in-memory
// "disk").
func WithSwapping(store swap.Store) Option {
	return func(c *config) { c.swapStore = store }
}

// NewSystem creates a System. By default the runtime uses stack pin sets
// and a non-moving malloc service; pass WithAnchorage for mobility.
func NewSystem(opts ...Option) (*System, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	space := mem.NewSpace()
	var svc rt.Service
	var anchor *anchorage.Service
	if c.useAnchorage {
		anchor = anchorage.NewService(space, c.anchorageCfg)
		svc = anchor
	} else {
		svc = mallocsim.NewService(space)
	}
	sys := &System{space: space, anchor: anchor}
	var rtOpts []rt.Option
	if c.swapStore != nil {
		rtOpts = append(rtOpts, rt.WithFaultHandler(func(r *rt.Runtime, id uint32) error {
			return sys.swapper.SwapIn(id)
		}))
	}
	r, err := rt.New(space, svc, rtOpts...)
	if err != nil {
		return nil, err
	}
	sys.runtime = r
	if c.swapStore != nil {
		sys.swapper = swap.New(r, c.swapStore)
	}
	sys.primary = r.NewThread()
	// The primary thread only initiates barriers; see kv.AnchorageBackend
	// for the same pattern.
	sys.primary.EnterExternal()
	return sys, nil
}

// Close shuts the system down.
func (s *System) Close() error {
	if s.primary != nil {
		s.primary.ExitExternal()
		if err := s.primary.Destroy(); err != nil {
			return err
		}
		s.primary = nil
	}
	return s.runtime.Close()
}

// Space returns the simulated address space (for reads/writes through
// pinned pointers).
func (s *System) Space() *mem.Space { return s.space }

// Runtime returns the underlying core runtime.
func (s *System) Runtime() *rt.Runtime { return s.runtime }

// Swapper returns the swapping extension, or nil if not enabled.
func (s *System) Swapper() *swap.Swapper { return s.swapper }

// Halloc allocates size bytes of handle-managed memory.
func (s *System) Halloc(size uint64) (Handle, error) { return s.runtime.Halloc(size) }

// Hfree releases the object behind h.
func (s *System) Hfree(h Handle) error { return s.runtime.Hfree(h) }

// NewThread registers an application thread.
func (s *System) NewThread() *Thread { return s.runtime.NewThread() }

// Barrier stops the world and runs fn with the unified pin set. initiator
// must be the calling goroutine's registered thread, because that thread
// cannot park at a safepoint while it is busy initiating; pass nil when
// calling from a goroutine with no registered thread (e.g. a controller).
func (s *System) Barrier(initiator *Thread, fn func(*BarrierScope)) {
	if initiator == nil {
		initiator = s.primary
	}
	s.runtime.Barrier(initiator, fn)
}

// Defrag runs Anchorage compaction passes until the heap stops improving,
// returning the bytes moved. initiator follows the Barrier rule. The
// system must have been built with WithAnchorage.
func (s *System) Defrag(initiator *Thread) (uint64, error) {
	if s.anchor == nil {
		return 0, fmt.Errorf("alaska: Defrag requires the Anchorage service")
	}
	var total uint64
	for i := 0; i < 64; i++ {
		var moved uint64
		s.Barrier(initiator, func(scope *BarrierScope) {
			moved = s.anchor.DefragPass(scope, 1<<30)
		})
		total += moved
		if moved == 0 {
			break
		}
	}
	return total, nil
}

// Fragmentation returns the service's extent/active ratio.
func (s *System) Fragmentation() float64 { return s.runtime.Fragmentation() }

// RSS returns the simulated resident set size in bytes.
func (s *System) RSS() uint64 { return s.space.RSS() }

// ActiveBytes returns the live object bytes.
func (s *System) ActiveBytes() uint64 { return s.runtime.Service().ActiveBytes() }

// Compile applies the Alaska compiler pipeline to an IR module in place.
func Compile(m *ir.Module, opts CompileOptions) (CompileStats, error) {
	return compiler.Transform(m, opts)
}

// DefaultCompileOptions is the full Alaska configuration (hoisting and
// tracking enabled).
var DefaultCompileOptions = compiler.DefaultOptions

// RunBaseline executes an untransformed module over a conventional
// allocator and returns (result, cycles).
func RunBaseline(m *ir.Module, fn string, args ...uint64) (uint64, int64, error) {
	machine := vm.NewBaseline(m, vm.DefaultCosts)
	v, err := machine.Run(fn, args...)
	return v, machine.Cycles, err
}

// RunAlaska executes a transformed module against a fresh Alaska runtime
// and returns (result, cycles).
func RunAlaska(m *ir.Module, fn string, args ...uint64) (uint64, int64, error) {
	machine, err := vm.NewAlaska(m, vm.DefaultCosts)
	if err != nil {
		return 0, 0, err
	}
	v, err := machine.Run(fn, args...)
	if err != nil {
		return 0, machine.Cycles, err
	}
	return v, machine.Cycles, machine.Close()
}
