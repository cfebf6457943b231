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

// tick is one maintenance step at server age now: the store's Maintain,
// then the one connection sweep over both transports' registry. Log
// compaction is not part of it: the WAL's writer decides and runs that in
// its own Step.
func (s *Server) tick(now time.Duration) {
	// The store's Maintain, as the figures call it: the backend's
	// machinery (on Anchorage the §4.3 controller with its pause-free
	// pass, then the grace-period drain) and one expiry-sweep increment
	// (the next stretch of each shard's LRU list), so dead values release
	// heap (and un-hostage their sub-heaps for truncation) even if never
	// touched again.
	s.store.Maintain(now)
	s.sweep()
}

// kickReason says why kill wants a connection closed, i.e. which kick
// counter (if any) the reap belongs to.
type kickReason int

const (
	kickShutdown kickReason = iota
	kickIdle
	kickSlow
)

// aborter is a transport's last step of kill, chosen when the connection
// enters the registry: the poller closes a parked connection itself and
// leaves one a worker holds to that worker (epollPoller.abort); the
// goroutine transport closes the socket so the blocked read returns
// (conn.abort).
type aborter interface{ abort(pc *pollConn) }

// sweep is the one reaper, over the registry of both transports, on the
// configured clock (so the mock-clock reaper tests drive it
// deterministically). It kills a connection that has not completed a
// command (or made write progress) within IdleTimeout, and one whose
// replies have waited on the socket past WriteTimeout. Because a reaped
// connection waited in the idle state (a bare fd, or a read made in the
// session's external state), no barrier ever waited on the dead client —
// the reap just returns its slot and handle pins to the system.
func (s *Server) sweep() {
	idle, wto := int64(s.cfg.IdleTimeout), int64(s.cfg.WriteTimeout)
	if idle <= 0 && wto <= 0 {
		return
	}
	now := s.cfg.Clock().UnixNano()
	s.reap(func(pc *pollConn) (kickReason, bool) {
		if idle > 0 && now-pc.lastActive.Load() > idle {
			return kickIdle, true
		}
		ws := pc.writeStall.Load()
		return kickSlow, wto > 0 && ws != 0 && now-ws > wto
	})
}

// reap kills every registered connection pick chooses, for the reason it
// gives: the sweep's, and Shutdown's force-close. It picks under mu and
// kills after unlocking, because a parked event connection closes
// synchronously and endConn takes mu.
func (s *Server) reap(pick func(pc *pollConn) (kickReason, bool)) {
	type victim struct {
		pc  *pollConn
		a   aborter
		why kickReason
	}
	var vs []victim
	s.mu.Lock()
	for pc, a := range s.conns {
		if why, ok := pick(pc); ok {
			vs = append(vs, victim{pc, a, why})
		}
	}
	s.mu.Unlock()
	for _, v := range vs {
		s.kill(v.pc, v.a, v.why)
	}
}

// kill requests a close. Only the call that wins the killed CAS counts the
// reap, and it does so before the close can become visible to the peer:
// idle_kicks here, slow_client_kicks in endConn. A connection that ends by
// itself sets killed before it closes, so a late kill counts nothing.
func (s *Server) kill(pc *pollConn, a aborter, why kickReason) {
	if !pc.killed.CompareAndSwap(false, true) {
		return
	}
	switch why {
	case kickIdle:
		s.idleKicks.Add(1)
	case kickSlow:
		pc.slow.Store(true)
	}
	a.abort(pc)
}
