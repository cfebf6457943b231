package kv

import (
	"errors"
	"time"
)

// This file holds ShardedStore's per-entry bookkeeping: the entry
// struct, its charged cost (memcached's `bytes` accounting — value + key
// + per-item overhead, not allocator-level bytes), the intrusive LRU
// list each shard links entries into, and the free list evicted entry
// structs are recycled through so eviction churn under a fixed `-m`
// ceiling stays allocation-free on the set path.

// EntryOverhead is the per-entry bookkeeping charge added to key+value
// bytes when an item is costed against the memory ceiling — the moral
// equivalent of memcached's item-header overhead. It keeps `bytes`
// honest about index/LRU footprint, so a million tiny values cannot
// blow past `-m` on bookkeeping alone.
const EntryOverhead = 64

// ErrTooLarge reports a value whose charged cost exceeds the store's
// entire memory ceiling: no amount of eviction could make it fit, so it
// is rejected up front with the LRU untouched (memcached's "SERVER_ERROR
// object too large for cache").
var ErrTooLarge = errors.New("object too large for cache")

// ErrNoRoom reports that the budget could not be reserved even after
// exhausting every evictable entry — transiently possible when
// concurrent inserts hold reservations on every spare byte.
var ErrNoRoom = errors.New("out of memory storing object")

// entry is one stored item: its key, the backend reference to its value
// and the bookkeeping the shard keeps beside it.
type entry struct {
	key  string
	ref  Ref
	size uint64
	// expireAt is the absolute expiry deadline; the zero time means the
	// entry never expires.
	expireAt time.Time
	// storedAt is when the value was stored — the timestamp flush_all's
	// store-wide epoch compares against (touch moves expireAt only, so a
	// touched value cannot escape a flush).
	storedAt time.Time
	// prev/next link the entry into its shard's LRU list; next doubles
	// as the free-list chain once the entry is recycled.
	prev, next *entry
	// fetched records whether the value has been read since it was last
	// stored — evicting a never-fetched entry counts as evicted_unfetched.
	fetched bool
	// lastUsed is the unixnano of the entry's last store or LRU touch;
	// the shard publishes its tail's stamp for coldest-shard eviction
	// spill.
	lastUsed int64
}

// entryCost is the charged cost of an item against the memory ceiling.
func entryCost(keyLen, valLen int) uint64 {
	return uint64(keyLen) + uint64(valLen) + EntryOverhead
}

// cost is the entry's charged cost (see entryCost).
func (e *entry) cost() uint64 { return entryCost(len(e.key), int(e.size)) }

// lruList is an intrusive doubly-linked LRU over entry structs
// (front = most recently used). Intrusive rather than container/list so
// that linking, unlinking, and moving never allocate a node — an entry
// recycled off the free list re-enters the LRU with zero allocations.
// sweep is the expiry sweep's cursor: the next entry it examines, walking
// from tail to head (nil = start over at the tail).
type lruList struct {
	head, tail *entry
	sweep      *entry
}

// pushFront links e at the MRU end. e must be unlinked.
func (l *lruList) pushFront(e *entry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	} else {
		l.tail = e
	}
	l.head = e
}

// remove unlinks e. e must be linked. A sweep cursor on e moves on to
// the next entry it would have reached.
func (l *lruList) remove(e *entry) {
	if l.sweep == e {
		l.sweep = e.prev
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront makes e the MRU entry.
func (l *lruList) moveToFront(e *entry) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// back returns the LRU entry (eviction victim), nil when empty.
func (l *lruList) back() *entry { return l.tail }

// freeListMax bounds how many evicted entry structs a free list retains
// for reuse; beyond it, evicted entries are left to the garbage
// collector so an emptied store does not pin its high-water bookkeeping.
const freeListMax = 256

// entryFreeList recycles evicted/removed entry structs so that
// eviction-pressure sets (evict one, insert one, forever) reuse structs
// instead of allocating. The next pointer chains free entries.
type entryFreeList struct {
	head *entry
	n    int
}

// put offers e for reuse. The entry is scrubbed so the free list pins
// neither the key string nor a stale ref.
func (f *entryFreeList) put(e *entry) {
	if f.n >= freeListMax {
		return
	}
	*e = entry{next: f.head}
	f.head = e
	f.n++
}

// get returns a zeroed entry, or nil when the list is empty.
func (f *entryFreeList) get() *entry {
	e := f.head
	if e == nil {
		return nil
	}
	f.head = e.next
	e.next = nil
	f.n--
	return e
}
