// Sharded, read-lock-free handle table.
//
// The seed implementation serialized every Translate/Alloc/Free behind one
// global sync.RWMutex, so the hot path of the whole system — handle→address
// translation (§4.1.2) — could not scale past one core. This file replaces
// it with the design the paper's low overhead actually depends on:
//
//   - The table is split into ShardCount power-of-two shards. A handle ID
//     encodes its shard in its low bits (id = local<<shardBits | shard), so
//     consecutive bump-allocated IDs land on consecutive shards and
//     allocation-heavy threads spread naturally across shard locks.
//   - Each live entry is published through an atomic.Pointer[Entry]. The
//     Entry value is immutable once published; every mutation (SetBacking,
//     the §7 speculative-move/revalidate protocol, SetInvalid) builds a new
//     Entry and installs it with a compare-and-swap. Translate is therefore
//     a pure atomic load chain — no lock, no write to shared state — which
//     is the software analogue of the paper's six-instruction translation
//     sequence (Figure 5).
//   - Entry storage grows in fixed-size chunks reached through a per-shard
//     chunk directory that is itself published atomically. Chunks never
//     move once allocated, so readers can hold *slot pointers without any
//     lifetime coordination; growth copies only the (small) directory of
//     chunk pointers, mirroring the paper's mmap-then-demand-page table.
//   - Per-shard free lists recycle IDs (free list before bump, §4.2.1).
//     Shard mutexes guard only allocation bookkeeping (free list + bump +
//     growth); they are never taken on the translation path.
//
// The speculative-move protocol of §7 becomes exactly the CAS it is in the
// paper: BeginSpeculativeMove CASes a valid entry to an invalid ("moving")
// one; a concurrent accessor that faults CASes it back (Revalidate, the
// abort); CommitSpeculativeMove CASes the moving entry to a valid one at
// the new address and observes defeat when the accessor won.
package handle

import (
	"fmt"
	"sync"
	"sync/atomic"

	"alaska/internal/mem"
)

const (
	// shardBits selects the number of shards; the shard index lives in the
	// low bits of the handle ID.
	shardBits = 5
	// ShardCount is the number of independent table shards.
	ShardCount = 1 << shardBits
	shardMask  = ShardCount - 1

	// chunkBits selects the number of entry slots per storage chunk.
	chunkBits = 9
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1

	// maxLocal is the largest per-shard local index: all 2^31 IDs are
	// representable, ShardCount × (maxLocal+1) = 2^31.
	maxLocal = MaxID >> shardBits
)

// slot is the in-memory home of one handle table entry. The published
// entry is reached through an atomic pointer; the pin count (CountedPins
// ablation only) is a plain atomic so the pin path never copies entries.
type slot struct {
	e    atomic.Pointer[Entry]
	pins atomic.Int32
}

// chunk is a fixed, never-moved block of slots.
type chunk [chunkSize]slot

// tableShard is one shard: lock-free entry storage plus mutex-guarded
// allocation bookkeeping.
type tableShard struct {
	mu sync.Mutex
	// dir is the atomically-published chunk directory. Readers only ever
	// Load it; growth (under mu) copies the pointer slice, appends the new
	// chunk, and Stores the result.
	dir  atomic.Pointer[[]*chunk]
	free []uint32 // LIFO free list of recycled local indices
	bump uint32   // next never-used local index
	// nfree mirrors len(free) so the Alloc probe can skip empty shards
	// with one atomic load instead of taking every shard's mutex.
	nfree atomic.Int32
}

// slotAt returns the slot for a local index, or nil if the index is beyond
// the shard's published storage. Lock-free.
func (sh *tableShard) slotAt(local uint32) *slot {
	dirp := sh.dir.Load()
	if dirp == nil {
		return nil
	}
	dir := *dirp
	ci := int(local >> chunkBits)
	if ci >= len(dir) {
		return nil
	}
	return &dir[ci][local&chunkMask]
}

// growTo ensures storage exists for local and returns its slot. Caller
// holds sh.mu.
func (sh *tableShard) growTo(local uint32) *slot {
	ci := int(local >> chunkBits)
	var dir []*chunk
	if dirp := sh.dir.Load(); dirp != nil {
		dir = *dirp
	}
	if ci < len(dir) {
		return &dir[ci][local&chunkMask]
	}
	ndir := make([]*chunk, ci+1)
	copy(ndir, dir)
	for j := len(dir); j <= ci; j++ {
		ndir[j] = new(chunk)
	}
	sh.dir.Store(&ndir)
	return &ndir[ci][local&chunkMask]
}

// ShardedTable is the sharded, read-lock-free handle table. The zero value
// is not usable; call NewShardedTable (or NewTable).
type ShardedTable struct {
	shards [ShardCount]tableShard
	// rr is the round-robin allocation cursor: it spreads both the shard
	// locks and the resulting IDs across shards, and — because the shard
	// index is the ID's low bits — keeps single-threaded ID sequences
	// identical to the seed's bump allocator (0, 1, 2, …).
	rr atomic.Uint32
	// nfree is an over-approximation-free count of recycled IDs across all
	// shards, letting Alloc skip the free-list probe entirely in the common
	// nothing-recycled case.
	nfree atomic.Int64
	// freeHint names the shard that most recently gained a recycled ID, so
	// the alloc/free ping-pong pattern (malloc churn) finds its ID again
	// with one probe instead of a scan.
	freeHint atomic.Uint32
	live     atomic.Int64
	peak     atomic.Int64
}

// NewShardedTable returns an empty sharded handle table.
func NewShardedTable() *ShardedTable { return &ShardedTable{} }

// locate splits an ID into its shard and slot; slot is nil if the ID has
// never been allocated.
func (t *ShardedTable) locate(id uint32) (*tableShard, *slot) {
	sh := &t.shards[id&shardMask]
	return sh, sh.slotAt(id >> shardBits)
}

// makeID reassembles a handle ID from shard and local index.
func makeID(shard, local uint32) uint32 { return local<<shardBits | shard }

// publish installs a fresh entry and maintains live/peak accounting.
func (t *ShardedTable) publish(s *slot, backing mem.Addr, size uint64) {
	s.pins.Store(0)
	s.e.Store(&Entry{Backing: backing, Size: size, Flags: FlagAllocated})
	l := t.live.Add(1)
	for {
		p := t.peak.Load()
		if l <= p || t.peak.CompareAndSwap(p, l) {
			return
		}
	}
}

// Alloc reserves a handle ID and publishes its entry in one call, for
// callers that know the backing address up front.
func (t *ShardedTable) Alloc(backing mem.Addr, size uint64) (uint32, error) {
	id, err := t.Reserve(size)
	if err == nil {
		t.Publish(id, backing, size)
	}
	return id, err
}

// Publish installs the entry of a reserved ID.
func (t *ShardedTable) Publish(id uint32, backing mem.Addr, size uint64) {
	_, s := t.locate(id)
	t.publish(s, backing, size)
}

// Reserve takes a handle ID without publishing an entry for it: until
// Publish, the ID translates (and speculatively moves) as unallocated and
// is not live, so Runtime.Halloc can get the block first and publish once.
// An unpublished reservation goes back with Unreserve. Recycled IDs are
// preferred over bump allocation (§4.2.1); the probe starts at the
// round-robin cursor so concurrent allocators fan out across shards.
func (t *ShardedTable) Reserve(size uint64) (uint32, error) {
	if size > MaxObjectSize {
		return 0, fmt.Errorf("handle: object of %d bytes exceeds 4 GiB handle limit", size)
	}
	start := t.rr.Add(1) - 1
	// Free-list pass: only entered when something has actually been freed.
	// The hinted shard is probed first, then the rest round-robin.
	if t.nfree.Load() > 0 {
		hint := t.freeHint.Load()
		for i := uint32(0); i <= ShardCount; i++ {
			shard := (start + i - 1) & shardMask
			if i == 0 {
				shard = hint & shardMask
			}
			sh := &t.shards[shard]
			if sh.nfree.Load() == 0 {
				continue
			}
			sh.mu.Lock()
			if n := len(sh.free); n > 0 {
				local := sh.free[n-1]
				sh.free = sh.free[:n-1]
				sh.nfree.Add(-1)
				sh.mu.Unlock()
				t.nfree.Add(-1)
				return makeID(shard, local), nil
			}
			sh.mu.Unlock()
		}
	}
	// Bump pass: take a never-used index from the first non-full shard.
	for i := uint32(0); i < ShardCount; i++ {
		shard := (start + i) & shardMask
		sh := &t.shards[shard]
		sh.mu.Lock()
		if sh.bump > maxLocal {
			sh.mu.Unlock()
			continue
		}
		local := sh.bump
		sh.bump++
		sh.growTo(local)
		sh.mu.Unlock()
		return makeID(shard, local), nil
	}
	return 0, ErrTableFull
}

// Unreserve puts a reserved, never-published ID — or, from Free, one just
// unpublished — on its shard's free list.
func (t *ShardedTable) Unreserve(id uint32) {
	sh := &t.shards[id&shardMask]
	sh.mu.Lock()
	sh.free = append(sh.free, id>>shardBits)
	sh.nfree.Add(1)
	sh.mu.Unlock()
	t.freeHint.Store(id & shardMask)
	t.nfree.Add(1)
}

// Free unpublishes an entry and recycles its ID. The unpublish is a CAS to
// nil so a concurrent double-free is detected rather than corrupting the
// free list.
func (t *ShardedTable) Free(id uint32) error {
	_, s := t.locate(id)
	if s == nil {
		return &ErrBadHandle{Make(id, 0), "free of unallocated handle"}
	}
	for {
		old := s.e.Load()
		if old == nil {
			return &ErrBadHandle{Make(id, 0), "free of unallocated handle"}
		}
		if s.e.CompareAndSwap(old, nil) {
			break
		}
	}
	s.pins.Store(0)
	t.Unreserve(id)
	t.live.Add(-1)
	return nil
}

// Translate resolves a handle word to a raw simulated address with a pure
// atomic load chain: shard → chunk directory → slot → entry. Raw pointers
// pass through unchanged (§4.1.2). FlagInvalid yields ErrHandleFault so
// the runtime can run the §7 fault path.
func (t *ShardedTable) Translate(h Handle) (mem.Addr, error) {
	if !h.IsHandle() {
		return mem.Addr(h), nil
	}
	_, s := t.locate(h.ID())
	if s == nil {
		return 0, &ErrBadHandle{h, "id out of range"}
	}
	e := s.e.Load()
	if e == nil {
		return 0, &ErrBadHandle{h, "translate of freed handle"}
	}
	if e.Flags&FlagInvalid != 0 {
		return 0, ErrHandleFault
	}
	if uint64(h.Offset()) >= e.Size {
		return 0, &ErrBadHandle{h, fmt.Sprintf("offset %d outside %d-byte object", h.Offset(), e.Size)}
	}
	return e.Backing + mem.Addr(h.Offset()), nil
}

// Get returns a copy of the entry for id (with the live pin count folded
// in, for the CountedPins ablation).
func (t *ShardedTable) Get(id uint32) (Entry, error) {
	_, s := t.locate(id)
	if s == nil {
		return Entry{}, &ErrBadHandle{Make(id, 0), "get of unallocated handle"}
	}
	e := s.e.Load()
	if e == nil {
		return Entry{}, &ErrBadHandle{Make(id, 0), "get of unallocated handle"}
	}
	out := *e
	out.Pins = s.pins.Load()
	return out, nil
}

// update CASes a mutated copy of the published entry into place. fn returns
// an error to abort, or mutates the copy. Retries on CAS contention.
func (t *ShardedTable) update(id uint32, what string, fn func(*Entry) error) error {
	_, s := t.locate(id)
	if s == nil {
		return &ErrBadHandle{Make(id, 0), what + " of unallocated handle"}
	}
	for {
		old := s.e.Load()
		if old == nil {
			return &ErrBadHandle{Make(id, 0), what + " of unallocated handle"}
		}
		next := *old
		if err := fn(&next); err != nil {
			return err
		}
		if s.e.CompareAndSwap(old, &next) {
			return nil
		}
	}
}

// SetBacking points the entry's backing storage at a new address — the
// O(1) relocation update, now a CAS instead of a locked store.
func (t *ShardedTable) SetBacking(id uint32, backing mem.Addr) error {
	return t.update(id, "SetBacking", func(e *Entry) error {
		e.Backing = backing
		return nil
	})
}

// SetInvalid sets or clears the handle-fault bit on an entry.
func (t *ShardedTable) SetInvalid(id uint32, invalid bool) error {
	return t.update(id, "SetInvalid", func(e *Entry) error {
		if invalid {
			e.Flags |= FlagInvalid
		} else {
			e.Flags &^= FlagInvalid
		}
		return nil
	})
}

// BeginSpeculativeMove CASes a valid entry into the invalid ("moving")
// state and returns a snapshot of the pre-move entry — the first step of
// the §7 concurrent relocation protocol. It fails if the entry is free or
// already moving.
func (t *ShardedTable) BeginSpeculativeMove(id uint32) (Entry, error) {
	_, s := t.locate(id)
	if s == nil {
		return Entry{}, &ErrBadHandle{Make(id, 0), "speculative move of unallocated handle"}
	}
	for {
		old := s.e.Load()
		if old == nil {
			return Entry{}, &ErrBadHandle{Make(id, 0), "speculative move of unallocated handle"}
		}
		if old.Flags&FlagInvalid != 0 {
			return Entry{}, &ErrBadHandle{Make(id, 0), "entry already moving/invalid"}
		}
		next := *old
		next.Flags |= FlagInvalid
		if s.e.CompareAndSwap(old, &next) {
			return *old, nil
		}
	}
}

// CommitSpeculativeMove attempts the protocol's closing CAS: if the entry
// is still in the moving state it is swung to newAddr and revalidated in
// one atomic publication, returning true. If a concurrent accessor already
// revalidated it (the abort path), it returns false and the entry — which
// the accessor restored to its original backing — is left untouched.
func (t *ShardedTable) CommitSpeculativeMove(id uint32, newAddr mem.Addr) bool {
	_, s := t.locate(id)
	if s == nil {
		return false
	}
	for {
		old := s.e.Load()
		if old == nil {
			return false // freed mid-move
		}
		if old.Flags&FlagInvalid == 0 {
			return false // revalidated by an accessor: move aborted
		}
		next := *old
		next.Backing = newAddr
		next.Flags &^= FlagInvalid
		if s.e.CompareAndSwap(old, &next) {
			return true
		}
	}
}

// Revalidate CASes a moving entry back to valid with its original backing —
// the accessor's side of the §7 protocol (run from the handle-fault
// handler). It returns true if this call performed the transition (thereby
// aborting any in-flight move), false if the entry was already valid.
func (t *ShardedTable) Revalidate(id uint32) (bool, error) {
	_, s := t.locate(id)
	if s == nil {
		return false, &ErrBadHandle{Make(id, 0), "revalidate of unallocated handle"}
	}
	for {
		old := s.e.Load()
		if old == nil {
			return false, &ErrBadHandle{Make(id, 0), "revalidate of unallocated handle"}
		}
		if old.Flags&FlagInvalid == 0 {
			return false, nil
		}
		next := *old
		next.Flags &^= FlagInvalid
		if s.e.CompareAndSwap(old, &next) {
			return true, nil
		}
	}
}

// AddPin adjusts the per-entry atomic pin count (the CountedPins ablation
// path). With the sharded table this is the naïve design's true cost — one
// contended atomic RMW — rather than that plus a global table lock.
func (t *ShardedTable) AddPin(id uint32, delta int32) error {
	_, s := t.locate(id)
	if s == nil || s.e.Load() == nil {
		return &ErrBadHandle{Make(id, 0), "pin of unallocated handle"}
	}
	if s.pins.Add(delta) < 0 {
		return &ErrBadHandle{Make(id, 0), "pin count underflow"}
	}
	return nil
}

// PinCount returns the per-entry pin count (ablation path only).
func (t *ShardedTable) PinCount(id uint32) int32 {
	_, s := t.locate(id)
	if s == nil {
		return 0
	}
	return s.pins.Load()
}

// Live returns the number of allocated entries.
func (t *ShardedTable) Live() int { return int(t.live.Load()) }

// Peak returns the high-water mark of live entries.
func (t *ShardedTable) Peak() int { return int(t.peak.Load()) }

// Extent returns how many IDs the bump allocators have ever handed out;
// the table's memory overhead is Extent() HTEs regardless of recycling.
func (t *ShardedTable) Extent() uint32 {
	var n uint32
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += sh.bump
		sh.mu.Unlock()
	}
	return n
}

// ForEachLive calls fn for every allocated entry. Iteration is lock-free
// and weakly consistent: entries allocated or freed concurrently may or
// may not be observed, and IDs are visited in per-shard (not global
// numeric) order. Callers needing a stable view run inside a barrier,
// where the world is stopped.
func (t *ShardedTable) ForEachLive(fn func(id uint32, e Entry)) {
	for shard := uint32(0); shard < ShardCount; shard++ {
		sh := &t.shards[shard]
		dirp := sh.dir.Load()
		if dirp == nil {
			continue
		}
		for ci, c := range *dirp {
			for k := range c {
				e := c[k].e.Load()
				if e == nil || e.Flags&FlagAllocated == 0 {
					continue
				}
				out := *e
				out.Pins = c[k].pins.Load()
				fn(makeID(shard, uint32(ci)<<chunkBits|uint32(k)), out)
			}
		}
	}
}
