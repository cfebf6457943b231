package mallocsim

import (
	"alaska/internal/mem"
	"alaska/internal/rt"
)

// Service adapts the allocator to the runtime's service interface. This is
// the "Alaska without a service" configuration of §5.4: backing memory
// comes from a conventional malloc and no movement policy is attached, so
// the only costs measured are translation and pin tracking.
type Service struct {
	a *Allocator
}

var _ rt.Service = (*Service)(nil)

// NewService returns a service backed by a fresh allocator on space.
func NewService(space *mem.Space) *Service {
	return &Service{a: New(space)}
}

// Init implements rt.Service.
func (s *Service) Init(*rt.Runtime) error { return nil }

// Deinit implements rt.Service.
func (s *Service) Deinit() error { return nil }

// Alloc implements rt.Service; the handle id is not needed because this
// service never moves objects.
func (s *Service) Alloc(_ uint32, size uint64) (mem.Addr, error) { return s.a.Alloc(size) }

// Free implements rt.Service.
func (s *Service) Free(_ uint32, addr mem.Addr, _ uint64) error { return s.a.Free(addr) }

// UsableSize implements rt.Service.
func (s *Service) UsableSize(addr mem.Addr) uint64 { return s.a.UsableSize(addr) }

// HeapExtent implements rt.Service.
func (s *Service) HeapExtent() uint64 { return s.a.HeapExtent() }

// ActiveBytes implements rt.Service.
func (s *Service) ActiveBytes() uint64 { return s.a.ActiveBytes() }

// Name implements rt.Service.
func (s *Service) Name() string { return "malloc" }
