package rt

import (
	"fmt"

	"alaska/internal/mem"
)

// BarrierScope is handed to the barrier callback while the world is
// stopped. It exposes the unified pin set and the O(1) relocation
// primitive services build movement policies on.
type BarrierScope struct {
	rt     *Runtime
	pinned map[uint32]bool
}

// Pinned reports whether the object owned by handle id may not be moved:
// some thread holds a translation of it in a live pin set (or, in
// CountedPins mode, its HTE pin count is nonzero).
func (s *BarrierScope) Pinned(id uint32) bool {
	if s.pinned[id] {
		return true
	}
	if s.rt.pinMode == CountedPins {
		return s.rt.Table.PinCount(id) > 0
	}
	return false
}

// Relocate copies the object owned by id to dst and updates its HTE — the
// single-reference update that makes handle-based movement O(1). It fails
// if the object is pinned.
func (s *BarrierScope) Relocate(id uint32, dst mem.Addr) error {
	if s.Pinned(id) {
		return fmt.Errorf("rt: Relocate of pinned handle %d", id)
	}
	e, err := s.rt.Table.Get(id)
	if err != nil {
		return err
	}
	if e.Backing == dst {
		return nil
	}
	if err := s.rt.Space.Copy(dst, e.Backing, e.Size); err != nil {
		return err
	}
	if err := s.rt.Table.SetBacking(id, dst); err != nil {
		return err
	}
	s.rt.stats.MovedBytes.Add(int64(e.Size))
	s.rt.stats.MovedObject.Add(1)
	return nil
}

// Barrier stops the world, unifies all threads' pin sets, and runs fn with
// the resulting scope; then it resumes all threads (§4.1.3, "Barriers and
// Pin Set Unification").
//
// initiator identifies the calling thread when the caller is itself a
// registered application thread (it is then treated as already safe — a
// barrier call site is by definition a safepoint). Pass nil when calling
// from a control goroutine such as a defragmentation controller.
func (r *Runtime) Barrier(initiator *Thread, fn func(*BarrierScope)) {
	r.barrierMu.Lock()
	defer r.barrierMu.Unlock()

	r.stopRequest.Store(true)
	r.mu.Lock()
	// Wait until every registered thread is parked or in external code.
	for {
		allSafe := true
		for t := range r.threads {
			if t == initiator {
				continue
			}
			if threadState(t.state.Load()) == stateRunning {
				allSafe = false
				break
			}
		}
		if allSafe {
			break
		}
		r.quiesceCond.Wait()
	}
	// The world is stopped: every thread's pin sets are stable. Unify them.
	pinned := make(map[uint32]bool)
	for t := range r.threads {
		t.pinnedInto(pinned)
	}
	r.mu.Unlock()

	r.stats.Barriers.Add(1)
	fn(&BarrierScope{rt: r, pinned: pinned})

	r.mu.Lock()
	r.stopRequest.Store(false)
	r.resumeCond.Broadcast()
	r.mu.Unlock()
}
