// Package swap implements the §7 extension the paper sketches: object-
// granularity swapping built on "handle faults". A service marks a cold
// object's handle table entry invalid, compresses the object's bytes to a
// backing store, and frees its memory; the next translation of the handle
// traps to the runtime, which swaps the object back in and retries — the
// handle-table analogue of a page fault, at object granularity.
//
// The paper reports that enabling the fault check costs ~1-2% (modelled by
// vm.CostModel.FaultCheck); this package supplies the service half and is
// exercised by examples/faults and the swap benchmarks.
package swap

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"alaska/internal/handle"
	"alaska/internal/rt"
)

// Store is the cold-object backing store ("disk"). Implementations must be
// safe for concurrent use.
type Store interface {
	Put(id uint32, data []byte) error
	Get(id uint32) ([]byte, error)
	Delete(id uint32)
	// Bytes reports the store's current footprint.
	Bytes() uint64
}

// MemStore is an in-memory compressed store — the simulation's disk.
type MemStore struct {
	mu       sync.Mutex
	blobs    map[uint32][]byte
	compress bool
	bytes    uint64
}

// NewMemStore returns a store; with compress, blobs are DEFLATE-packed
// (the paper mentions compression as one use of the swap mechanism).
func NewMemStore(compress bool) *MemStore {
	return &MemStore{blobs: make(map[uint32][]byte), compress: compress}
}

// Put implements Store.
func (m *MemStore) Put(id uint32, data []byte) error {
	blob := data
	if m.compress {
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		blob = buf.Bytes()
	} else {
		blob = append([]byte(nil), data...)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.blobs[id]; ok {
		m.bytes -= uint64(len(old))
	}
	m.blobs[id] = blob
	m.bytes += uint64(len(blob))
	return nil
}

// Get implements Store.
func (m *MemStore) Get(id uint32) ([]byte, error) {
	m.mu.Lock()
	blob, ok := m.blobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("swap: object %d not in store", id)
	}
	if !m.compress {
		return append([]byte(nil), blob...), nil
	}
	r := flate.NewReader(bytes.NewReader(blob))
	defer r.Close()
	return io.ReadAll(r)
}

// Delete implements Store.
func (m *MemStore) Delete(id uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.blobs[id]; ok {
		m.bytes -= uint64(len(old))
		delete(m.blobs, id)
	}
}

// Bytes implements Store.
func (m *MemStore) Bytes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// Swapper adds swap-out/swap-in on top of any backing service. It is not
// itself an rt.Service; it wraps the runtime a service is attached to.
type Swapper struct {
	mu    sync.Mutex
	rt    *rt.Runtime
	store Store
	// sizes remembers swapped objects' sizes (the HTE keeps the size, but
	// keeping our own copy lets us sanity-check the restore).
	sizes map[uint32]uint64

	// Stats.
	SwappedOut, SwappedIn int64
	BytesOut, BytesIn     int64
}

// New creates a Swapper for the runtime using the given store.
func New(r *rt.Runtime, store Store) *Swapper {
	return &Swapper{rt: r, store: store, sizes: make(map[uint32]uint64)}
}

// SwapOut evicts the object behind id: its bytes go to the store, its
// backing memory is freed, and its HTE is invalidated. It must only be
// called for unpinned objects — use it from within a barrier, or on
// objects the caller knows are cold. The object keeps its handle; users
// notice nothing except latency on next access.
func (s *Swapper) SwapOut(scope *rt.BarrierScope, id uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if scope.Pinned(id) {
		return fmt.Errorf("swap: object %d is pinned", id)
	}
	e, err := s.rt.Table.Get(id)
	if err != nil {
		return err
	}
	if e.Flags&handle.FlagInvalid != 0 {
		return fmt.Errorf("swap: object %d already swapped", id)
	}
	buf := make([]byte, e.Size)
	if err := s.rt.Space.Read(e.Backing, buf); err != nil {
		return err
	}
	if err := s.store.Put(id, buf); err != nil {
		return err
	}
	if err := s.rt.Table.SetInvalid(id, true); err != nil {
		return err
	}
	if err := s.rt.Service().Free(id, e.Backing, e.Size); err != nil {
		return err
	}
	s.sizes[id] = e.Size
	s.SwappedOut++
	s.BytesOut += int64(e.Size)
	return nil
}

// SwapIn restores the object behind id: fresh backing memory is allocated
// from the service, the stored bytes are copied back, and the HTE is
// revalidated. Called from the runtime's fault path.
func (s *Swapper) SwapIn(id uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, ok := s.sizes[id]
	if !ok {
		return fmt.Errorf("swap: fault on object %d that was never swapped", id)
	}
	data, err := s.store.Get(id)
	if err != nil {
		return err
	}
	if uint64(len(data)) != size {
		return fmt.Errorf("swap: object %d restored %d bytes, want %d", id, len(data), size)
	}
	addr, err := s.rt.Service().Alloc(id, size)
	if err != nil {
		return err
	}
	if err := s.rt.Space.Write(addr, data); err != nil {
		return err
	}
	if err := s.rt.Table.SetBacking(id, addr); err != nil {
		return err
	}
	if err := s.rt.Table.SetInvalid(id, false); err != nil {
		return err
	}
	s.store.Delete(id)
	delete(s.sizes, id)
	s.SwappedIn++
	s.BytesIn += int64(size)
	return nil
}
