//go:build linux

package server

// The Linux readiness poller: a raw-syscall epoll shim (the module is
// dependency-free, so no golang.org/x/sys — the stdlib syscall package
// provides everything epoll needs) plus the fixed worker pool that
// serves ready connections.
//
// Ownership protocol (see pollConn.sched in event.go): the accepted
// socket's fd is dup'd out of the Go runtime's netpoller and registered
// edge-triggered, armed once at registration — readiness edges hand the
// connection to the run queue via wake(), and edges arriving while an
// owner holds it are absorbed into the rewake flag, so no wakeup is
// ever lost and the steady-state burst needs zero epoll syscalls (the
// interest mask only changes — one EPOLL_CTL_MOD — when a park must
// also watch writability). The ET contract is upheld structurally: the
// engine's burst loop reads until EAGAIN before parking, and its flush
// writevs until EAGAIN. All fd syscalls — read, writev, EPOLL_CTL_MOD/DEL,
// close — happen only while holding the sched token; the polling
// leader and the maintenance sweep communicate through claim()/wake()
// and the killed flag, never by touching the fd. Stale events after an
// fd is closed and reused are dropped by the per-slot generation
// counter carried in EpollEvent.Pad.

import (
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

const (
	epollIn    = uint32(syscall.EPOLLIN)
	epollOut   = uint32(syscall.EPOLLOUT)
	epollRDHup = uint32(syscall.EPOLLRDHUP)
	// syscall.EPOLLET is a negative untyped constant; spell the bit out.
	epollET = uint32(1) << 31
)

// fdSlot maps an fd to its live pollConn. Entries are allocated once
// and never replaced, so a reader may hold the *fdSlot across the
// RWMutex that only guards growth of the table itself.
type fdSlot struct {
	pc  atomic.Pointer[pollConn]
	gen atomic.Uint32
}

type epollPoller struct {
	srv  *Server
	epfd int
	// The epoll fd wrapped as a pollable file and registered with the
	// Go runtime's netpoller (nested epoll — an epoll fd reports
	// readable while its ready list is non-empty). The polling leader
	// parks on epWait.Read instead of a blocking raw epoll_wait: a raw
	// blocking syscall holds its P hostage until sysmon retakes it
	// (hundreds of µs of added latency at GOMAXPROCS=1), while a
	// netpoller park releases the P through the scheduler like any
	// blocked goroutine. Events are then reaped with epoll_wait(0).
	epFile *os.File
	epWait syscall.RawConn
	// Self-pipe for waking the polling leader at shutdown.
	wakeR, wakeW int
	stopFlag     atomic.Bool

	mu       sync.Mutex
	cond     *sync.Cond
	runq     []*pollConn
	runqHead int
	stopped  bool
	// polling marks that one worker (the leader) is parked in
	// epoll_wait; other idle workers follow on the cond instead of
	// stacking up in the kernel.
	polling bool

	slotMu sync.RWMutex
	slots  []*fdSlot

	parked atomic.Int64
	live   atomic.Int64
	active atomic.Int64
	bursts atomic.Int64

	startOnce sync.Once
	wg        sync.WaitGroup
}

// newPoller builds the epoll instance and wake pipe; workers start in
// start() (from Serve), so a Server that never serves starts nothing.
func newPoller(s *Server) (connPoller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	var pipeFds [2]int
	if err := syscall.Pipe2(pipeFds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		_ = syscall.Close(epfd)
		return nil, err
	}
	p := &epollPoller{srv: s, epfd: epfd, wakeR: pipeFds[0], wakeW: pipeFds[1]}
	p.cond = sync.NewCond(&p.mu)
	// The wake pipe is identified by gen 0 (connection gens start at 1).
	ev := syscall.EpollEvent{Events: epollIn, Fd: int32(p.wakeR), Pad: 0}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p.wakeR, &ev); err != nil {
		_ = syscall.Close(epfd)
		_ = syscall.Close(pipeFds[0])
		_ = syscall.Close(pipeFds[1])
		return nil, err
	}
	// Hand the epoll fd to the runtime netpoller. The O_NONBLOCK flag is
	// meaningless to epoll itself but tells os.NewFile to register the
	// fd for polling; epFile owns epfd from here (closed in stop).
	_ = syscall.SetNonblock(epfd, true)
	p.epFile = os.NewFile(uintptr(epfd), "epoll")
	rc, err := p.epFile.SyscallConn()
	if err != nil {
		_ = p.epFile.Close()
		_ = syscall.Close(pipeFds[0])
		_ = syscall.Close(pipeFds[1])
		return nil, err
	}
	p.epWait = rc
	return p, nil
}

func (p *epollPoller) start() {
	p.startOnce.Do(func() {
		for i := 0; i < p.srv.cfg.Workers; i++ {
			p.wg.Add(1)
			go p.worker()
		}
	})
}

// slot returns fd's slot, nil when the table never grew that far.
func (p *epollPoller) slot(fd int) *fdSlot {
	p.slotMu.RLock()
	var s *fdSlot
	if fd >= 0 && fd < len(p.slots) {
		s = p.slots[fd]
	}
	p.slotMu.RUnlock()
	return s
}

// slotFor returns fd's slot, growing the table as needed. Every entry
// of a published table is non-nil and the backing array is never
// written again after publication — growth copies into a fresh array
// and pre-fills the new tail — so sweep/killAll may walk a snapshot
// taken under RLock without holding the lock.
func (p *epollPoller) slotFor(fd int) *fdSlot {
	if s := p.slot(fd); s != nil {
		return s
	}
	p.slotMu.Lock()
	if fd >= len(p.slots) {
		grown := make([]*fdSlot, fd+64)
		n := copy(grown, p.slots)
		for i := n; i < len(grown); i++ {
			grown[i] = &fdSlot{}
		}
		p.slots = grown
	}
	s := p.slots[fd]
	p.slotMu.Unlock()
	return s
}

func dupCloexec(fd int) (int, error) {
	nfd, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_DUPFD_CLOEXEC, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(nfd), nil
}

// register dups the accepted socket's fd out of the runtime netpoller,
// parks it in epoll, and closes the original net.Conn. On any error the
// original connection is untouched and the caller falls back to the
// goroutine transport.
func (p *epollPoller) register(nc net.Conn, id uint64) error {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return syscall.ENOTSUP
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return err
	}
	fd := -1
	var derr error
	if cerr := rc.Control(func(ufd uintptr) { fd, derr = dupCloexec(int(ufd)) }); cerr != nil {
		return cerr
	}
	if derr != nil {
		return derr
	}
	// Go sockets are already O_NONBLOCK (the flag rides the shared file
	// description); assert it anyway for listeners that aren't.
	_ = syscall.SetNonblock(fd, true)
	pc := &pollConn{fd: fd, id: id}
	pc.touch(p.srv.cfg.Clock().UnixNano())
	// Hold the sched token through registration so a racing sweep or
	// shutdown can't close the fd mid-arm; release() below parks it.
	pc.sched.Store(schedScheduled)
	slot := p.slotFor(fd)
	gen := slot.gen.Add(1)
	if gen == 0 {
		gen = slot.gen.Add(1) // 0 is the wake-pipe sentinel
	}
	pc.gen = gen
	slot.pc.Store(pc)
	p.live.Add(1)
	// Edge-triggered, armed once: readable edges (and a possible
	// already-readable edge delivered at ADD) drive the connection's
	// whole lifetime with no per-burst re-arm. EPOLLOUT joins the mask
	// only while replies are backed up.
	pc.armed = epollIn | epollRDHup | epollET
	ev := syscall.EpollEvent{
		Events: pc.armed,
		Fd:     int32(fd),
		Pad:    int32(gen),
	}
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		slot.pc.CompareAndSwap(pc, nil)
		p.live.Add(-1)
		_ = syscall.Close(fd)
		return err
	}
	_ = nc.Close() // our dup keeps the socket's file description alive
	p.release(pc)
	return nil
}

// claim moves a ready connection parked→scheduled, or flags a rewake if
// an owner already holds it. Lost-wakeup-free: arm-then-release parking
// (release below) rechecks the rewake flag after every failed CAS. True
// only when this call took the sched token — the caller must then serve
// or enqueue the connection.
func (p *epollPoller) claim(pc *pollConn) bool {
	for {
		switch pc.sched.Load() {
		case schedParked:
			if pc.sched.CompareAndSwap(schedParked, schedScheduled) {
				p.parked.Add(-1)
				return true
			}
		case schedScheduled:
			if pc.sched.CompareAndSwap(schedScheduled, schedRewake) {
				return false
			}
		default:
			return false // already rewake-flagged
		}
	}
}

// wake claims a ready connection and hands it to the run queue.
func (p *epollPoller) wake(pc *pollConn) {
	if p.claim(pc) {
		p.enqueue(pc)
	}
}

func (p *epollPoller) enqueue(pc *pollConn) {
	p.mu.Lock()
	p.runq = append(p.runq, pc)
	p.mu.Unlock()
	p.cond.Signal()
}

// next blocks for the next ready connection; nil means the poller is
// stopping. Callers wrap it in the session's idle state so waiting
// workers never delay a defrag barrier.
//
// There is no dedicated poll thread: idle workers run a leader/follower
// rotation. One worker at a time (the leader) parks in epoll_wait and
// claims the first connection it wakes for itself, so the common path
// from kernel readiness to burst runs on a single thread with no
// handoff; surplus events are enqueued and followers signalled. A
// worker leaving with work signals a follower into the vacant poll
// seat, so whenever any worker is idle, someone is watching the epoll
// fd. Events that fire while every worker is mid-burst simply pend in
// the kernel until the next worker comes back around.
func (p *epollPoller) next(r *epollReaper) *pollConn {
	p.mu.Lock()
	for {
		if p.runqHead < len(p.runq) {
			pc := p.runq[p.runqHead]
			p.runq[p.runqHead] = nil
			p.runqHead++
			if p.runqHead == len(p.runq) {
				p.runq = p.runq[:0]
				p.runqHead = 0
			}
			if !p.polling {
				p.cond.Signal() // hand the poll seat to an idle follower
			}
			p.mu.Unlock()
			return pc
		}
		if p.stopped {
			p.mu.Unlock()
			return nil
		}
		if !p.polling {
			p.polling = true
			p.mu.Unlock()
			direct, ok := p.pollOnce(r)
			p.mu.Lock()
			p.polling = false
			if !ok {
				// Shutdown (or a dead epoll fd): cascade the exit so no
				// follower is left waiting on a seat nobody fills.
				p.cond.Broadcast()
				p.mu.Unlock()
				return nil
			}
			if direct != nil {
				p.cond.Signal()
				p.mu.Unlock()
				return direct
			}
			continue
		}
		p.cond.Wait()
	}
}

// release gives up the sched token after (re-)arming epoll: park if
// nothing happened meanwhile, requeue on a rewake, close on a kill. The
// post-park killed recheck closes the race where a sweeper sets killed
// between our check and the CAS to parked.
func (p *epollPoller) release(pc *pollConn) {
	for {
		if pc.killed.Load() {
			p.closeConn(pc)
			return
		}
		if pc.sched.Load() == schedRewake {
			pc.sched.Store(schedScheduled)
			p.enqueue(pc)
			return
		}
		if pc.sched.CompareAndSwap(schedScheduled, schedParked) {
			p.parked.Add(1)
			if pc.killed.Load() && pc.sched.CompareAndSwap(schedParked, schedScheduled) {
				p.parked.Add(-1)
				p.closeConn(pc)
			}
			return
		}
	}
}

// closeConn tears a connection down through the one teardown
// (Server.endConn), which counts a slow client's kick before the close: the
// peer sees EOF the moment the fd closes and may read the stat right after.
// Caller must hold the sched token (worker, registering thread, or a
// sweeper that won the parked CAS); sched intentionally stays scheduled
// afterwards so late wakes are inert no-ops.
func (p *epollPoller) closeConn(pc *pollConn) {
	if slot := p.slot(pc.fd); slot != nil {
		slot.pc.CompareAndSwap(pc, nil)
	}
	_ = syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, pc.fd, nil)
	p.srv.endConn(pc, pc)
	pc.inSpill, pc.outSpill = nil, nil
	p.live.Add(-1)
}

// kickReason says why kill wants a connection closed, i.e. which kick
// counter (if any) the reap belongs to.
type kickReason int

const (
	kickShutdown kickReason = iota
	kickIdle
	kickSlow
)

// kill requests a close. Only the call that wins the close intent counts
// the reap (so each is counted exactly once), and it does so before the
// close can become visible to the peer: idle_kicks here,
// slow_client_kicks in closeConn. The close itself happens here if the
// connection was parked, or on its current owner's next check.
func (p *epollPoller) kill(pc *pollConn, why kickReason) {
	if !pc.killed.CompareAndSwap(false, true) {
		return
	}
	switch why {
	case kickIdle:
		p.srv.idleKicks.Add(1)
	case kickSlow:
		pc.slow.Store(true)
	}
	if pc.sched.CompareAndSwap(schedParked, schedScheduled) {
		p.parked.Add(-1)
		p.closeConn(pc)
	}
}

// pollOnce runs one epoll_wait batch as the leader: validate each event
// against the slot table's generation, claim the first ready connection
// directly for the calling worker (no queue round-trip), enqueue the
// rest. ok=false means shutdown was signalled (or the epoll fd died).
//
// The wait itself is delegated to the runtime netpoller via epWait: the
// reaper callback runs epoll_wait with a zero timeout and returns false
// to park the goroutine until the epoll fd signals readable.
// RawConn.Read always invokes the callback once before parking, so a
// backlog left by a previous full batch is drained without waiting for
// a new edge.
func (p *epollPoller) pollOnce(r *epollReaper) (direct *pollConn, ok bool) {
	for {
		err := p.epWait.Read(r.fn)
		if err != nil || r.n < 0 {
			return nil, false // epoll fd closed or dead: shutting down
		}
		n, evs := r.n, r.evs[:]
		for i := 0; i < n; i++ {
			fd := int(evs[i].Fd)
			if fd == p.wakeR && evs[i].Pad == 0 {
				if p.stopFlag.Load() {
					if direct != nil {
						p.enqueue(direct) // stop() drains the queue
					}
					return nil, false
				}
				var buf [64]byte
				_, _ = syscall.Read(p.wakeR, buf[:])
				continue
			}
			slot := p.slot(fd)
			if slot == nil {
				continue
			}
			pc := slot.pc.Load()
			if pc == nil || pc.gen != uint32(evs[i].Pad) {
				continue // stale event for a closed/reused fd
			}
			if direct == nil && p.claim(pc) {
				direct = pc
				continue
			}
			p.wake(pc)
		}
		if direct != nil || n > 0 {
			return direct, true
		}
	}
}

// worker serves ready connections with one persistent kv.Session and
// one reusable protocol engine. The session idles while the worker
// waits for work, so a defrag barrier only ever rendezvouses with
// workers mid-burst — a bounded set, however many connections park.
func (p *epollPoller) worker() {
	defer p.wg.Done()
	sess := p.srv.store.NewSession()
	defer sess.Close()
	e := p.srv.newEngine(sess, nil, nil)
	r := newEpollReaper()
	for {
		sess.EnterIdle()
		pc := p.next(r)
		sess.ExitIdle()
		if pc == nil {
			return
		}
		p.active.Add(1)
		p.bursts.Add(1)
		p.serve(e, pc)
		p.active.Add(-1)
	}
}

// epollReaper is a worker's reusable epoll_wait(0) callback. The bound
// method value is built once so parking in the netpoller is
// allocation-free — a literal closure here would put one (plus its
// captures) on the heap for every burst.
type epollReaper struct {
	evs [128]syscall.EpollEvent
	n   int
	fn  func(uintptr) bool
}

func newEpollReaper() *epollReaper {
	r := &epollReaper{}
	r.fn = r.reap
	return r
}

func (r *epollReaper) reap(fd uintptr) bool {
	n, err := syscall.EpollWait(int(fd), r.evs[:], 0)
	if err == syscall.EINTR || (err == nil && n == 0) {
		return false // nothing ready: park in the netpoller
	}
	if err != nil {
		n = -1
	}
	r.n = n
	return true
}

func (p *epollPoller) serve(e *engine, pc *pollConn) {
	if pc.killed.Load() {
		p.closeConn(pc)
		return
	}
	e.begin(pc, pc)
	st := e.burst()
	if st == brClosed {
		pc.killed.Store(true)
		p.closeConn(pc)
		return
	}
	hasOut := e.pendingOut() > 0
	e.park()
	if st == brYield {
		if pc.sched.Load() == schedRewake {
			pc.sched.Store(schedScheduled)
		}
		p.enqueue(pc)
		return
	}
	events := epollRDHup | epollET
	if st == brParkWrite {
		events |= epollOut // backpressured: don't take input edges until drained
	} else {
		events |= epollIn
		if hasOut {
			events |= epollOut
		}
	}
	// Edge-triggered: the steady-state mask never changes, and an
	// unchanged registration needs no re-arm — future readiness
	// transitions still fire. When the mask does change, EPOLL_CTL_MOD
	// re-checks current readiness too, so a socket that became ready
	// while unwatched delivers its edge immediately.
	if events != pc.armed {
		ev := syscall.EpollEvent{Events: events, Fd: int32(pc.fd), Pad: int32(pc.gen)}
		if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, pc.fd, &ev); err != nil {
			pc.killed.Store(true)
			p.closeConn(pc)
			return
		}
		pc.armed = events
	}
	p.release(pc)
}

// sweep enforces IdleTimeout and WriteTimeout over the parked
// population, on the maintenance tick and the configured clock (so the
// mock-clock reaper tests drive it deterministically).
func (p *epollPoller) sweep() {
	srv := p.srv
	idle, wto := srv.cfg.IdleTimeout, srv.cfg.WriteTimeout
	if idle <= 0 && wto <= 0 {
		return
	}
	now := srv.cfg.Clock().UnixNano()
	p.slotMu.RLock()
	slots := p.slots
	p.slotMu.RUnlock()
	for _, slot := range slots {
		if slot == nil {
			continue
		}
		pc := slot.pc.Load()
		if pc == nil {
			continue
		}
		if idle > 0 && now-pc.lastActive.Load() > int64(idle) {
			p.kill(pc, kickIdle)
			continue
		}
		if wto > 0 {
			if ws := pc.writeStall.Load(); ws != 0 && now-ws > int64(wto) {
				p.kill(pc, kickSlow)
			}
		}
	}
}

func (p *epollPoller) killAll() {
	p.slotMu.RLock()
	slots := p.slots
	p.slotMu.RUnlock()
	for _, slot := range slots {
		if slot == nil {
			continue
		}
		if pc := slot.pc.Load(); pc != nil {
			p.kill(pc, kickShutdown)
		}
	}
}

func (p *epollPoller) drained() bool { return p.live.Load() == 0 }

// stop shuts the worker pool and poll loop down. All connections must
// already be closed (killAll + drained); queued stragglers are still
// drained here so no fd leaks.
func (p *epollPoller) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.stopFlag.Store(true)
	_, _ = syscall.Write(p.wakeW, []byte{1})
	p.wg.Wait()
	// Close any connections still sitting in the run queue (their owner
	// token is the queue itself; workers are gone).
	for _, pc := range p.runq[p.runqHead:] {
		if pc != nil {
			pc.killed.Store(true)
			p.closeConn(pc)
		}
	}
	_ = p.epFile.Close() // owns epfd
	_ = syscall.Close(p.wakeR)
	_ = syscall.Close(p.wakeW)
}

func (p *epollPoller) gauges() (parked, active, queued int64) {
	parked = p.parked.Load()
	active = p.live.Load() - parked
	p.mu.Lock()
	queued = int64(len(p.runq) - p.runqHead)
	p.mu.Unlock()
	return parked, active, queued
}

func (p *epollPoller) burstCount() int64 { return p.bursts.Load() }

// --- the event worker's seam: the raw nonblocking fd ------------------

// read reads into p; again reports EAGAIN/EWOULDBLOCK. n==0 with
// again==false and err==nil is EOF.
func (pc *pollConn) read(p []byte) (n int, again bool, err error) {
	for {
		n, err = syscall.Read(pc.fd, p)
		if err == syscall.EINTR {
			continue
		}
		if err == syscall.EAGAIN {
			return 0, true, nil
		}
		if n < 0 {
			n = 0
		}
		return n, false, err
	}
}

// writev gather-writes [a, b] in one syscall; again reports EAGAIN.
// Zero-length members are skipped (writev with an empty iovec is legal but
// pointless).
func (pc *pollConn) writev(a, b []byte) (n int, again bool, err error) {
	var iov [2]syscall.Iovec
	cnt := 0
	if len(a) > 0 {
		iov[cnt].Base = &a[0]
		iov[cnt].SetLen(len(a))
		cnt++
	}
	if len(b) > 0 {
		iov[cnt].Base = &b[0]
		iov[cnt].SetLen(len(b))
		cnt++
	}
	if cnt == 0 {
		return 0, false, nil
	}
	for {
		r, _, errno := syscall.Syscall(syscall.SYS_WRITEV, uintptr(pc.fd),
			uintptr(unsafe.Pointer(&iov[0])), uintptr(cnt))
		if errno == syscall.EINTR {
			continue
		}
		if errno == syscall.EAGAIN {
			return 0, true, nil
		}
		if errno != 0 {
			return 0, false, errno
		}
		return int(r), false, nil
	}
}

// Close closes the fd: the event transport's socket close, which the
// teardown (Server.endConn) runs.
func (pc *pollConn) Close() error { return syscall.Close(pc.fd) }
