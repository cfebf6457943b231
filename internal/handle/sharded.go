// Sharded, read-lock-free handle table.
//
// Handle→address translation (§4.1.2) is the hot path of the whole system;
// this is the design the paper's low overhead depends on:
//
//   - The table is split into ShardCount power-of-two shards. A handle ID
//     encodes its shard in its low bits (id = local<<shardBits | shard), so
//     consecutive bump-allocated IDs land on consecutive shards and
//     allocation-heavy threads spread naturally across shard locks.
//   - A slot is the entry: one atomic word packs the allocated and
//     invalid/moving bits, a publication counter and the 48-bit backing
//     address (mem.AddrLimit keeps every mapping below 2^48), with the
//     32-bit size and the pin count beside it — 16 bytes, no pointer.
//     Translate is slotAt plus loads of that one line: no lock, no write
//     to shared state, the software analogue of the paper's
//     six-instruction sequence (Figure 5). Every mutation is one CAS on
//     the word and allocates nothing.
//   - The size is written only while the slot is unpublished. A reader
//     loads the word, the size, and the word again, and retries unless the
//     two words agree; Publish steps the counter, so a free-and-republish
//     between the loads changes the word even at the same address, and a
//     reader returns only a (backing, size) pair that was published whole
//     (short of 8192 republications inside one three-load window).
//   - Entry storage grows in fixed-size chunks reached through a per-shard
//     chunk directory that is itself published atomically. Chunks never
//     move once allocated, so readers can hold *slot pointers without any
//     lifetime coordination; growth copies only the (small) directory of
//     chunk pointers, mirroring the paper's mmap-then-demand-page table.
//   - Per-shard free lists recycle IDs (free list before bump, §4.2.1).
//     Shard mutexes guard only allocation bookkeeping (free list + bump +
//     growth); they are never taken on the translation path.
//
// The speculative-move protocol of §7 is exactly the CAS it is in the
// paper: BeginSpeculativeMove CASes a valid entry to an invalid ("moving")
// one; a concurrent accessor that faults CASes it back (Revalidate, the
// abort); CommitSpeculativeMove CASes the moving entry to a valid one at
// the new address and observes defeat when the accessor won. Commit and
// Revalidate re-load the word and test the bit rather than compare against
// Begin's snapshot, so a CAS on the word is exposed to ABA exactly as a
// CAS on a pointer to an immutable entry was; movers stay exclusive of one
// another above the table (Service.mu, copyMu).
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

// Layout of a slot's word: two flag bits placed so that word>>62 is the
// Entry.Flags byte, a bit standing for the one size the 32-bit field cannot
// hold, the publication counter, and the backing address.
const (
	wInvalid   = uint64(FlagInvalid) << 62
	wAllocated = uint64(FlagAllocated) << 62
	wMaxSize   = 1 << 61 // Size is MaxObjectSize (2^32)
	genShift   = 48
	genMask    = (wMaxSize - 1) &^ addrMask
	addrMask   = uint64(mem.AddrLimit - 1)
)

// slot is one handle table entry. size is stored only while the word says
// unallocated; pins (CountedPins) is apart from the word so the pin path
// never contends with a mover's CAS.
type slot struct {
	w    atomic.Uint64
	size atomic.Uint32
	pins atomic.Int32
}

// load returns the word and the size published with it: the size load sits
// between two loads of the word, which must agree.
func (s *slot) load() (w, size uint64) {
	for {
		w, size = s.w.Load(), uint64(s.size.Load())
		if s.w.Load() != w {
			continue
		}
		if w&wMaxSize != 0 {
			size = MaxObjectSize
		}
		return w, size
	}
}

// entryOf unpacks a word and its size.
func entryOf(w, size uint64) Entry {
	return Entry{Backing: mem.Addr(w & addrMask), Size: size, Flags: uint8(w >> 62)}
}

// pack returns backing as word bits. An address the field cannot hold got
// past mem.Space's bound; masked it would alias another object: panic.
func pack(backing mem.Addr) uint64 {
	if backing >= mem.AddrLimit {
		panic(fmt.Sprintf("handle: backing %#x does not fit the 48-bit HTE field", uint64(backing)))
	}
	return uint64(backing)
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

// locate returns an ID's slot, nil if its shard's storage never grew that
// far.
func (t *ShardedTable) locate(id uint32) *slot {
	return t.shards[id&shardMask].slotAt(id >> shardBits)
}

// makeID reassembles a handle ID from shard and local index.
func makeID(shard, local uint32) uint32 { return local<<shardBits | shard }

// Alloc reserves a handle ID and publishes its entry in one call, for
// callers that know the backing address up front.
func (t *ShardedTable) Alloc(backing mem.Addr, size uint64) (uint32, error) {
	id, err := t.Reserve(size)
	if err == nil {
		t.Publish(id, backing, size)
	}
	return id, err
}

// Publish installs the entry of a reserved ID — size first, then the word
// under the next publication count — and maintains live/peak accounting.
func (t *ShardedTable) Publish(id uint32, backing mem.Addr, size uint64) {
	s := t.locate(id)
	w := wAllocated | pack(backing) | (s.w.Load()+1<<genShift)&genMask
	if size == MaxObjectSize {
		w |= wMaxSize
	}
	s.pins.Store(0)
	s.size.Store(uint32(size))
	s.w.Store(w)
	l := t.live.Add(1)
	for {
		p := t.peak.Load()
		if l <= p || t.peak.CompareAndSwap(p, l) {
			return
		}
	}
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

// swing is every mutation of a published entry: one CAS taking a word
// whose bits under mask equal want to old&^clear|set, retried while other
// bits change underneath it. It returns the word (and size) it replaced or
// that failed the test (zero for a nil slot: an ID never allocated).
func (s *slot) swing(mask, want, clear, set uint64) (old, size uint64, ok bool) {
	if s == nil {
		return 0, 0, false
	}
	for {
		old, size = s.load()
		if old&mask != want {
			return old, size, false
		}
		if s.w.CompareAndSwap(old, old&^clear|set) {
			return old, size, true
		}
	}
}

func unallocated(id uint32, what string) error {
	return &ErrBadHandle{Make(id, 0), what + " of unallocated handle"}
}

// Free unpublishes an entry (keeping its publication count) and recycles
// its ID. The unpublish is a CAS so a concurrent double-free is detected
// rather than corrupting the free list.
func (t *ShardedTable) Free(id uint32) error {
	s := t.locate(id)
	if _, _, ok := s.swing(wAllocated, wAllocated, ^genMask, 0); !ok {
		return unallocated(id, "free")
	}
	s.pins.Store(0)
	t.Unreserve(id)
	t.live.Add(-1)
	return nil
}

// Translate resolves a handle word to a raw simulated address without a
// lock or a store: shard → chunk directory → slot, then the slot's one
// line. Raw pointers pass through unchanged (§4.1.2). FlagInvalid yields
// ErrHandleFault so the runtime can run the §7 fault path.
func (t *ShardedTable) Translate(h Handle) (mem.Addr, error) {
	if !h.IsHandle() {
		return mem.Addr(h), nil
	}
	s := t.locate(h.ID())
	if s == nil {
		return 0, &ErrBadHandle{h, "id out of range"}
	}
	w, size := s.load()
	if w&wAllocated == 0 {
		return 0, &ErrBadHandle{h, "translate of freed handle"}
	}
	if w&wInvalid != 0 {
		return 0, ErrHandleFault
	}
	if uint64(h.Offset()) >= size {
		return 0, &ErrBadHandle{h, fmt.Sprintf("offset %d outside %d-byte object", h.Offset(), size)}
	}
	return mem.Addr(w&addrMask) + mem.Addr(h.Offset()), nil
}

// Get returns the entry for id (with the live pin count folded in, for the
// CountedPins ablation).
func (t *ShardedTable) Get(id uint32) (Entry, error) {
	s := t.locate(id)
	if s == nil {
		return Entry{}, unallocated(id, "get")
	}
	w, size := s.load()
	if w&wAllocated == 0 {
		return Entry{}, unallocated(id, "get")
	}
	e := entryOf(w, size)
	e.Pins = s.pins.Load()
	return e, nil
}

// SetBacking points the entry's backing storage at a new address — the
// O(1) relocation update: one store in the paper, one CAS here.
func (t *ShardedTable) SetBacking(id uint32, backing mem.Addr) error {
	if _, _, ok := t.locate(id).swing(wAllocated, wAllocated, addrMask, pack(backing)); !ok {
		return unallocated(id, "SetBacking")
	}
	return nil
}

// SetInvalid sets or clears the handle-fault bit on an entry.
func (t *ShardedTable) SetInvalid(id uint32, invalid bool) error {
	var set uint64
	if invalid {
		set = wInvalid
	}
	if _, _, ok := t.locate(id).swing(wAllocated, wAllocated, wInvalid, set); !ok {
		return unallocated(id, "SetInvalid")
	}
	return nil
}

// BeginSpeculativeMove CASes a valid entry into the invalid ("moving")
// state and returns a snapshot of the pre-move entry — the first step of
// the §7 concurrent relocation protocol. It fails if the entry is free or
// already moving.
func (t *ShardedTable) BeginSpeculativeMove(id uint32) (Entry, error) {
	old, size, ok := t.locate(id).swing(wAllocated|wInvalid, wAllocated, 0, wInvalid)
	switch {
	case ok:
		return entryOf(old, size), nil
	case old&wAllocated == 0:
		return Entry{}, unallocated(id, "speculative move")
	}
	return Entry{}, &ErrBadHandle{Make(id, 0), "entry already moving/invalid"}
}

// CommitSpeculativeMove attempts the protocol's closing CAS: if the entry
// is still in the moving state it is swung to newAddr and revalidated in
// one atomic publication, returning true. If a concurrent accessor already
// revalidated it (the abort path) or it was freed mid-move, it returns
// false and the entry — which the accessor restored to its original
// backing — is left untouched.
func (t *ShardedTable) CommitSpeculativeMove(id uint32, newAddr mem.Addr) bool {
	_, _, ok := t.locate(id).swing(wAllocated|wInvalid, wAllocated|wInvalid, addrMask|wInvalid, pack(newAddr))
	return ok
}

// Revalidate CASes a moving entry back to valid with its original backing —
// the accessor's side of the §7 protocol (run from the handle-fault
// handler). It returns true if this call performed the transition (thereby
// aborting any in-flight move), false if the entry was already valid.
func (t *ShardedTable) Revalidate(id uint32) (bool, error) {
	old, _, ok := t.locate(id).swing(wAllocated|wInvalid, wAllocated|wInvalid, wInvalid, 0)
	if !ok && old&wAllocated == 0 {
		return false, unallocated(id, "revalidate")
	}
	return ok, nil
}

// AddPin adjusts the per-entry atomic pin count (the CountedPins ablation
// path). With the sharded table this is the naïve design's true cost — one
// contended atomic RMW — rather than that plus a global table lock.
func (t *ShardedTable) AddPin(id uint32, delta int32) error {
	s := t.locate(id)
	if s == nil || s.w.Load()&wAllocated == 0 {
		return unallocated(id, "pin")
	}
	if s.pins.Add(delta) < 0 {
		return &ErrBadHandle{Make(id, 0), "pin count underflow"}
	}
	return nil
}

// PinCount returns the per-entry pin count (ablation path only).
func (t *ShardedTable) PinCount(id uint32) int32 {
	s := t.locate(id)
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
				w, size := c[k].load()
				if w&wAllocated == 0 {
					continue
				}
				e := entryOf(w, size)
				e.Pins = c[k].pins.Load()
				fn(makeID(shard, uint32(ci)<<chunkBits|uint32(k)), e)
			}
		}
	}
}
