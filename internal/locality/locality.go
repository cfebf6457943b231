// Package locality implements the cache-locality service sketched in §7
// of the paper ("object mobility can be used to dynamically enhance cache
// locality", citing Chilimbi/Larus-style online reorganization): it
// records the order in which handles are accessed, and during a runtime
// barrier repacks frequently co-accessed objects next to each other so a
// traversal touches far fewer pages/cache lines.
//
// The mechanism is nothing beyond what handles already provide — observe,
// then Relocate — which is exactly the paper's argument for why such
// services become trivial on top of Alaska.
package locality

import (
	"sync"

	"alaska/internal/mem"
	"alaska/internal/rt"
)

// Tracker records handle access order and computes a placement that
// clusters objects by temporal affinity.
type Tracker struct {
	mu sync.Mutex
	// trace is the bounded access-order ring.
	trace []uint32
	limit int
	// seen de-duplicates the trace into first-touch order.
	counts map[uint32]int64
}

// NewTracker returns a tracker keeping at most limit trace entries.
func NewTracker(limit int) *Tracker {
	if limit <= 0 {
		limit = 1 << 16
	}
	return &Tracker{limit: limit, counts: make(map[uint32]int64)}
}

// Touch records an access to handle id. Call it from the application's
// read/write paths (the compiler could equally emit it after each
// translation; the KV store calls it from Get).
func (t *Tracker) Touch(id uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.trace) < t.limit {
		t.trace = append(t.trace, id)
	}
	t.counts[id]++
}

// plan returns the object IDs in first-touch trace order — the classic
// online layout heuristic: objects accessed together end up adjacent.
func (t *Tracker) plan() []uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[uint32]bool, len(t.counts))
	var order []uint32
	for _, id := range t.trace {
		if !seen[id] {
			seen[id] = true
			order = append(order, id)
		}
	}
	return order
}

// Optimizer repacks traced objects into a dedicated arena in trace order.
type Optimizer struct {
	rt      *rt.Runtime
	tracker *Tracker
	arena   *mem.Region
	off     uint64

	// Moved counts relocated objects.
	Moved int64
}

// NewOptimizer maps an arena of arenaSize bytes for clustered placement.
func NewOptimizer(r *rt.Runtime, tracker *Tracker, arenaSize uint64) (*Optimizer, error) {
	arena, err := r.Space.Map(arenaSize)
	if err != nil {
		return nil, err
	}
	return &Optimizer{rt: r, tracker: tracker, arena: arena}, nil
}

// ResetArena rewinds the arena's bump pointer. Safe once every object has
// been moved elsewhere (e.g. when ping-ponging between two optimizers in a
// repeated-optimization loop).
func (o *Optimizer) ResetArena() { o.off = 0 }

// Optimize must be called inside a barrier: it walks the trace plan and
// relocates each unpinned object to the next slot in the arena, so the
// traced access order becomes sequential in memory.
func (o *Optimizer) Optimize(scope *rt.BarrierScope) int {
	moved := 0
	for _, id := range o.tracker.plan() {
		if scope.Pinned(id) {
			continue
		}
		e, err := o.rt.Table.Get(id)
		if err != nil {
			continue // freed since traced
		}
		aligned := (e.Size + 15) &^ 15
		if o.off+aligned > o.arena.Size() {
			break
		}
		dst := o.arena.Base() + mem.Addr(o.off)
		if e.Backing == dst {
			o.off += aligned
			continue
		}
		if err := scope.Relocate(id, dst); err != nil {
			continue
		}
		o.off += aligned
		moved++
	}
	o.Moved += int64(moved)
	return moved
}

// PageSwitches measures the locality of an access sequence: how many times
// consecutive accesses land on different simulated pages. Lower is better;
// it is the simulator's stand-in for TLB/cache-line behaviour.
func PageSwitches(r *rt.Runtime, ids []uint32) (int, error) {
	switches := 0
	var lastPage mem.Addr = ^mem.Addr(0)
	for _, id := range ids {
		e, err := r.Table.Get(id)
		if err != nil {
			return 0, err
		}
		page := e.Backing >> 12
		if page != lastPage {
			switches++
			lastPage = page
		}
	}
	return switches, nil
}
