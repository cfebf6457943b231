package server

import "time"

// maintainLoop is the background maintenance goroutine: a tick every
// MaintainInterval until Shutdown.
func (s *Server) maintainLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.MaintainInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
			s.tick(time.Since(s.start))
		}
	}
}

// tick is one maintenance step at server age now. Log compaction is not
// part of it: the WAL's writer decides and runs that in its own Step.
func (s *Server) tick(now time.Duration) {
	// The store's Maintain, as the figures call it: the backend's
	// machinery (on Anchorage the §4.3 controller with its pause-free
	// pass, then the grace-period drain) and one expiry-sweep increment
	// (the next stretch of each shard's LRU list), so dead values release
	// heap (and un-hostage their sub-heaps for truncation) even if never
	// touched again.
	s.store.Maintain(now)
	s.reapIdle()
	// Poller-side hardening rides the same tick: the sweep enforces
	// IdleTimeout and WriteTimeout over the parked population with the
	// same clock and counters.
	if s.poller != nil {
		s.poller.sweep()
	}
}

// reapIdle closes connections that have not completed a command within
// IdleTimeout. The blocked read errors out and the handler exits through
// its normal cleanup path; because the wait was spent in the session's
// idle (external) state, no barrier ever waited on the dead client — the
// reap just returns its slot and handle pins to the system.
func (s *Server) reapIdle() {
	if s.cfg.IdleTimeout <= 0 {
		return
	}
	now := s.cfg.Clock().UnixNano()
	s.mu.Lock()
	for c := range s.conns {
		if now-c.pc.lastActive.Load() > int64(s.cfg.IdleTimeout) {
			if c.kill() {
				s.idleKicks.Add(1)
			}
		}
	}
	s.mu.Unlock()
}
