// Package handle implements Alaska's handle representation and the
// single-level handle table (§3.3 and §4.2.1 of the paper).
//
// A handle is a 64-bit word that coexists with raw pointers in the same
// values: bit 63 distinguishes the two (1 = handle, 0 = pointer). Bits
// 62..32 hold a 31-bit handle ID that indexes the handle table, and bits
// 31..0 hold a byte offset into the object, capping object size at 4 GiB —
// exactly the layout of the paper's Figure 4. Because any real (simulated)
// virtual address in this repository is far below 2^63, an un-translated
// handle dereferenced as an address faults, as footnote 5 of the paper
// intends.
//
// The handle table is an array of fixed-size entries (HTEs), one per live
// object, so translation is table[id] + offset: the backing address is
// packed into one atomic word of the entry's 16-byte slot, and a move is
// one CAS on that word. Entries are allocated with per-shard bump pointers
// and recycled through free lists (free list consulted first), matching
// §4.2.1. See sharded.go for the sharded, read-lock-free implementation.
package handle

import (
	"fmt"

	"alaska/internal/mem"
)

// Handle is a 64-bit value that is either a raw pointer (top bit clear) or
// an encoded handle (top bit set).
type Handle uint64

const (
	// TopBit marks a word as a handle rather than a raw pointer.
	TopBit Handle = 1 << 63
	// idBits is the width of the handle ID field.
	idBits = 31
	// offsetBits is the width of the intra-object offset field.
	offsetBits = 32
	// MaxID is the largest representable handle ID (2^31 - 1).
	MaxID = 1<<idBits - 1
	// MaxObjectSize is the largest object addressable through a handle
	// (4 GiB); the paper argues larger objects are better served by paging.
	MaxObjectSize = uint64(1) << offsetBits
)

// Make builds a handle word from an ID and an intra-object offset.
func Make(id uint32, offset uint32) Handle {
	return TopBit | Handle(id&MaxID)<<offsetBits | Handle(offset)
}

// IsHandle reports whether the word has the handle bit set.
func (h Handle) IsHandle() bool { return h&TopBit != 0 }

// ID extracts the 31-bit handle table index.
func (h Handle) ID() uint32 { return uint32(h>>offsetBits) & MaxID }

// Offset extracts the 32-bit intra-object byte offset.
func (h Handle) Offset() uint32 { return uint32(h) }

// Add returns the handle displaced by delta bytes. This is what pointer
// arithmetic (getelementptr) on a handle compiles to: only the low 32 bits
// change, so the identity of the object is preserved. Callers may produce
// offsets outside the allocation; per §3.2 such programs are out of
// contract and translation of the result is unspecified (we fault).
func (h Handle) Add(delta int64) Handle {
	return (h &^ Handle(MaxObjectSize-1)) | Handle(uint32(int64(h.Offset())+delta))
}

// String formats the handle for diagnostics.
func (h Handle) String() string {
	if !h.IsHandle() {
		return fmt.Sprintf("ptr(%#x)", uint64(h))
	}
	return fmt.Sprintf("handle(id=%d, off=%d)", h.ID(), h.Offset())
}

// Entry flag bits.
const (
	// FlagAllocated marks a live HTE.
	FlagAllocated uint8 = 1 << iota
	// FlagInvalid marks a "handle fault" entry (§7): translation must trap
	// to the runtime so a service can swap the object back in.
	FlagInvalid
)

// Entry is a handle table entry (HTE) as the value Get, ForEachLive and
// BeginSpeculativeMove return; the table stores none. The paper's HTE is
// eight bytes, just the backing pointer: the slot's word is that pointer
// with the flags in its spare high bits, and the size sits beside it because
// the simulation has no out-of-band allocator metadata to consult.
type Entry struct {
	// Backing is the current address of the object's storage. The runtime
	// updates it when a service moves the object; that single store is the
	// O(1) relocation step handles exist to enable.
	Backing mem.Addr
	// Size is the object's allocation size in bytes.
	Size uint64
	// Pins is used only by the CountedPins tracking variant (the "naïve
	// atomic pin_count" design of §3.4, kept for the ablation benchmark).
	Pins int32
	// Flags holds FlagAllocated / FlagInvalid.
	Flags uint8
}

// ErrTableFull is returned when all 2^31 handle IDs are in use.
var ErrTableFull = fmt.Errorf("handle: table full (2^31 entries)")

// ErrBadHandle is returned for operations on words that are not live
// handles.
type ErrBadHandle struct {
	H      Handle
	Reason string
}

func (e *ErrBadHandle) Error() string {
	return fmt.Sprintf("handle: %v: %s", e.H, e.Reason)
}

// ErrHandleFault signals that a translation hit an invalidated entry and
// the runtime's fault path must run.
var ErrHandleFault = fmt.Errorf("handle: fault (entry invalid)")

// Table is the handle table type the rest of the repository programs
// against. It is an alias for the sharded, read-lock-free implementation
// (sharded.go), kept so the seed's call sites — which predate sharding —
// migrate without source changes. New code may use ShardedTable directly.
type Table = ShardedTable

// NewTable returns an empty handle table.
func NewTable() *Table { return NewShardedTable() }
