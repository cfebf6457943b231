package server

// One engine, two transports. eventIO.process() is the server's only
// protocol engine: a buffer-in / buffer-out state machine that frames
// commands out of an input buffer, dispatches each once its whole frame is
// there, and appends replies to an output buffer. It never reads a socket;
// a transport feeds it and drains it:
//
//   - the event transport (poller_linux.go): a parked connection is nothing
//     but a registered fd plus the pollConn below (~200 B and usually-nil
//     spill slices — no goroutine stack, no buffers, no rt.Thread). When
//     epoll reports the fd, one of a fixed pool of workers attaches its own
//     eventIO — buffers grow-only and reused across every connection the
//     worker serves — reads until EAGAIN, and writevs the replies.
//   - the goroutine transport (Server.handleConn, every platform): one
//     goroutine and one eventIO per connection, over a detached pollConn
//     (fd < 0), with blocking reads and deadline-bounded blocking writes.
//
// Both run the same instructions per command, so the zero-alloc contract,
// the conformance transcripts and the per-command clock hold on either.

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"time"
)

const (
	// burstCmdBudget bounds commands served in one scheduling quantum: a
	// connection pipelining an endless stream is requeued behind other
	// ready connections instead of monopolizing its worker.
	burstCmdBudget = 128
	// eventReadChunk is the minimum socket read size per readiness.
	eventReadChunk = 16 << 10
	// eventFlushHighWater forces a (non-blocking) writev once this many
	// reply bytes are pending, so pipelined bursts stream to the kernel
	// instead of accumulating a whole burst's output in user memory.
	eventFlushHighWater = 32 << 10
	// connSpillRetain caps the per-connection spill capacity kept across
	// parks: a connection that once parked mid-command keeps a small
	// buffer for next time, but large one-off spills are released so an
	// idle connection's cost returns to the bare struct.
	connSpillRetain = 4 << 10
	// workerBufRetain caps the per-worker working buffers retained
	// between bursts; a pathological burst (one huge multi-get) doesn't
	// pin its peak memory on the worker forever.
	workerBufRetain = 1 << 20
)

// scheduling states of pollConn.sched. The token protocol: exactly one
// thread "owns" a connection (may touch its fd or spill buffers) at a
// time — the worker serving it, the registering accept loop, or a
// sweeper that won the CAS from schedParked. Epoll readiness and kill
// requests never touch the fd themselves; they hand the connection to
// an owner via wake().
const (
	schedParked    = 0 // owned by nobody; fd armed in epoll
	schedScheduled = 1 // owned: queued or being served
	schedRewake    = 2 // owned, and readiness arrived meanwhile
)

// pollConn is the entire per-connection state of a parked connection —
// and, detached (fd < 0, embedded in a conn), what the engine keeps of a
// goroutine-transport connection, which uses none of the scheduling or
// spill fields.
type pollConn struct {
	fd  int
	id  uint64 // slow-op / debug-log attribution (Server.connIDs)
	gen uint32 // registration generation; stale epoll events are dropped
	// armed is the epoll interest mask currently registered for fd,
	// owned (like the spill buffers) by whoever holds the sched token.
	// With edge-triggered registration the mask only changes when a park
	// must also watch writability, so comparing against it lets the
	// common park skip the EPOLL_CTL_MOD syscall entirely.
	armed uint32

	sched  atomic.Int32
	killed atomic.Bool
	slow   atomic.Bool
	// lastActive is the Config.Clock unixnano of the last burst that
	// completed a command, or of the last write progress — the idle
	// reaper's input, on both transports. It is stamped once per process()
	// call, not per command, with the time of the call's last command: a
	// burst is at most burstCmdBudget commands and the reaper works in
	// seconds, so the sweep cannot tell, and no command reads the clock for
	// it. Partial request bytes never touch it (memcached's last_cmd_time
	// rule).
	lastActive atomic.Int64
	// writeStall is the Config.Clock unixnano since which reply bytes
	// have been pending with no write progress (0 = none pending): the
	// event-mode form of the per-write deadline. The sweep kicks the
	// connection once now-writeStall exceeds WriteTimeout.
	writeStall atomic.Int64

	// Spill buffers, owned by whoever holds the sched token. Nil on a
	// connection idling between commands — only a park mid-command (or
	// with undrained replies) pays for them.
	inSpill  []byte
	outSpill []byte

	// Persistent framing state surviving parks.
	resync      bool    // dropping input until the next newline
	discardLeft int     // >0: dropping an oversized value body (incl. CRLF)
	discardTail [2]byte // rolling last-2-bytes window for the CRLF check
	discardCmd  cmdCode // opcode to attribute the discard's reply to
}

// touch stamps activity (a burst's completed commands / write progress).
func (pc *pollConn) touch(nowNano int64) { pc.lastActive.Store(nowNano) }

// evStatus is process()'s verdict on why it stopped consuming input.
type evStatus int

const (
	evNeedInput    evStatus = iota // buffered input exhausted mid-frame
	evYield                        // burst budget spent with input remaining
	evBackpressure                 // reply backlog over cap; wait for writability
	evQuit                         // client sent quit
	evFatal                        // I/O or framing failure: drop the connection
)

// errEventShortBody guards the framing invariant: a storage command only
// runs once its full data block is buffered, so the in-buffer body reads can
// never come up short. Hitting it is a framing bug; the connection is
// dropped rather than desynced.
var errEventShortBody = errors.New("server: event engine dispatched with incomplete body")

// eventIO is the protocol engine's framing and buffer half (connHandler is
// its command half). Its buffers are grow-only; a worker's are recycled
// across every connection it serves, a connection's own residue living in
// pollConn spill slices only while parked mid-command. dispatch and the do*
// handlers read a data block with readBody and reply with writeFull /
// writeString.
type eventIO struct {
	h  *connHandler
	pc *pollConn
	// c is the socket of a goroutine-transport connection: with fd < 0,
	// tryFlush writes to it, blocking. nil on a worker's engine, and on a
	// detached engine with no socket at all (tests, benchmarks).
	c *conn

	in       []byte // unconsumed input is in[rpos:]
	rpos     int
	needHint int // bytes still missing for the pending command's body

	spill    []byte // pc.outSpill loaded at begin; [spillOff:] undrained
	spillOff int
	out      []byte // replies generated this burst; [outOff:] undrained
	outOff   int

	// stamped is set once process() has stamped pc.lastActive in this
	// wake, so a write that drains everything need not read the clock to
	// stamp it again.
	stamped bool
}

// begin attaches the engine to a woken connection, loading its spill.
func (e *eventIO) begin(pc *pollConn) {
	e.pc = pc
	if len(pc.inSpill) > 0 {
		e.in = append(e.in[:0], pc.inSpill...)
	} else {
		e.in = e.in[:0]
	}
	e.rpos = 0
	e.needHint = 0
	e.spill = pc.outSpill
	e.spillOff = 0
	e.out = e.out[:0]
	e.outOff = 0
	e.stamped = false
}

// park writes unconsumed input and undrained output back to the
// connection's spill slices and detaches. Empty residue releases the
// spill entirely (capacity above connSpillRetain is dropped), so an
// idle parked connection holds no buffer memory at all.
func (e *eventIO) park() {
	pc := e.pc
	left := e.in[e.rpos:]
	if len(left) == 0 {
		pc.inSpill = shedSpill(pc.inSpill)
	} else {
		pc.inSpill = append(pc.inSpill[:0], left...)
	}
	a := e.spill[e.spillOff:]
	b := e.out[e.outOff:]
	if len(a) == 0 && len(b) == 0 {
		pc.outSpill = shedSpill(pc.outSpill)
	} else {
		// e.spill aliases pc.outSpill: compact the remainder in place,
		// then append this burst's residue (append reallocates only on
		// growth).
		if e.spillOff > 0 && len(a) > 0 {
			copy(e.spill, a)
		}
		pc.outSpill = append(e.spill[:len(a)], b...)
	}
	e.in = trimWorkerBuf(e.in)
	e.rpos = 0
	e.out = trimWorkerBuf(e.out)
	e.outOff = 0
	e.spill = nil
	e.spillOff = 0
	e.pc = nil
}

func shedSpill(b []byte) []byte {
	if cap(b) > connSpillRetain {
		return nil
	}
	return b[:0]
}

func trimWorkerBuf(b []byte) []byte {
	if cap(b) > workerBufRetain {
		return nil
	}
	return b[:0]
}

// readBuf compacts consumed input and returns free space (at least
// eventReadChunk, or whatever the pending command's body still needs)
// for the next socket read; extend commits n read bytes.
func (e *eventIO) readBuf() []byte {
	if e.rpos > 0 {
		n := copy(e.in, e.in[e.rpos:])
		e.in = e.in[:n]
		e.rpos = 0
	}
	need := eventReadChunk
	if e.needHint > need {
		need = e.needHint
	}
	if cap(e.in)-len(e.in) < need {
		grown := make([]byte, len(e.in), len(e.in)+need)
		copy(grown, e.in)
		e.in = grown
	}
	return e.in[len(e.in):cap(e.in)]
}

func (e *eventIO) extend(n int) { e.in = e.in[:len(e.in)+n] }

// pendingOut is the undrained reply byte count (the event-mode reply
// backlog).
func (e *eventIO) pendingOut() int {
	return (len(e.spill) - e.spillOff) + (len(e.out) - e.outOff)
}

// tryFlush writevs [spill remainder, burst output] to the socket until
// it would block or everything drained. EAGAIN is not an error — the
// residue parks with the connection and EPOLLOUT finishes the job.
// Write progress counts as activity; pending bytes with no progress
// start the write-stall clock the sweeper enforces WriteTimeout with.
// The common case — this wake ran commands and the write drained their
// replies whole — reads no clock: process() already stamped the activity.
// A partial write always reads it (the stall origin must be fresh), as
// does a wake that only drained a parked spill.
func (e *eventIO) tryFlush() error {
	pc := e.pc
	if pc.fd < 0 {
		return e.flushBlocking()
	}
	srv := e.h.srv
	for {
		a := e.spill[e.spillOff:]
		b := e.out[e.outOff:]
		if len(a)+len(b) == 0 {
			pc.writeStall.Store(0)
			return nil
		}
		n, again, err := writevRawFd(pc.fd, a, b)
		if n > 0 {
			srv.bytesWritten.Add(int64(n))
			if n >= len(a) {
				e.spillOff = len(e.spill)
				e.outOff += n - len(a)
			} else {
				e.spillOff += n
			}
			if e.pendingOut() == 0 {
				if !e.stamped {
					pc.touch(srv.cfg.Clock().UnixNano())
				}
				pc.writeStall.Store(0)
				return nil
			}
			now := srv.cfg.Clock().UnixNano()
			pc.touch(now)
			pc.writeStall.Store(now) // progress resets the stall deadline
		}
		if err != nil {
			return err
		}
		if again {
			if pc.writeStall.Load() == 0 {
				pc.writeStall.Store(srv.cfg.Clock().UnixNano())
			}
			return nil
		}
	}
}

// flushBlocking is tryFlush on the goroutine transport: one blocking write
// of everything pending (nothing is ever spilled — the connection never
// parks), made in the session's idle state so a slow reader delays no
// barrier, and bounded by the write deadline conn.Write applies. A detached
// engine has no socket: its output accumulates in e.out.
func (e *eventIO) flushBlocking() error {
	if e.c == nil || len(e.out) == 0 {
		return nil
	}
	e.h.sess.EnterIdle()
	_, err := e.c.Write(e.out)
	e.h.sess.ExitIdle()
	e.out = trimWorkerBuf(e.out)
	return err
}

// errEventBacklog drops a connection whose single command produced more
// than the whole reply-backlog budget while the socket absorbed none of
// it. (Between commands the event transport parks for EPOLLOUT instead;
// this fires only when one command alone overruns the entire cap. The
// goroutine transport's flush blocks until everything is written or the
// write deadline kicks the client, so it never gets here.)
var errEventBacklog = errors.New("server: reply backlog exceeded mid-command")

func (e *eventIO) maybeFlush() error {
	if e.pendingOut() < eventFlushHighWater {
		return nil
	}
	if err := e.tryFlush(); err != nil {
		return err
	}
	if cap := e.h.srv.cfg.MaxReplyBacklog; cap > 0 && e.pendingOut() > cap {
		e.pc.slow.Store(true)
		return errEventBacklog
	}
	return nil
}

// writeFull and writeString append reply bytes, streaming them out once
// eventFlushHighWater are pending.

func (e *eventIO) writeFull(p []byte) error {
	e.out = append(e.out, p...)
	return e.maybeFlush()
}

func (e *eventIO) writeString(s string) error {
	e.out = append(e.out, s...)
	return e.maybeFlush()
}

// readBody returns a storage command's data block straight out of the
// input buffer — dispatchBuffered waited for all of it before running
// the command, so this never blocks and never copies.
func (e *eventIO) readBody(n int) ([]byte, bool, error) {
	buf := e.in[e.rpos:]
	if len(buf) < n+2 {
		return nil, false, errEventShortBody
	}
	data := buf[:n]
	ok := buf[n] == '\r' && buf[n+1] == '\n'
	e.rpos += n + 2
	if !ok {
		return nil, false, nil
	}
	return data, true, nil
}

// storageCmd maps a storage command's name to its opcode.
func storageCmd(name []byte) (cmdCode, bool) {
	switch string(name) {
	case "set":
		return cmdSet, true
	case "add":
		return cmdAdd, true
	case "replace":
		return cmdReplace, true
	case "cas":
		return cmdCas, true
	case "append":
		return cmdAppend, true
	case "prepend":
		return cmdPrepend, true
	}
	return 0, false
}

// parseStorageLine parses a tokenized line as a storage command, which
// is how the framing layer learns the data-block length before anything
// runs. ok is false for a line dispatch handles — any other command, and
// a malformed storage line, which is answered CLIENT_ERROR with no body
// read. This is the only parse a storage line gets: doStore is handed
// the result, so what sized the body wait and the MaxValueSize check is
// what executes.
func parseStorageLine(f [][]byte) (code cmdCode, sa storageArgsB, ok bool) {
	if len(f) == 0 {
		return 0, sa, false
	}
	if code, ok = storageCmd(f[0]); !ok {
		return 0, sa, false
	}
	sa, err := parseStorageB(f[1:], code == cmdCas)
	return code, sa, err == nil
}

// updateTail slides the rolling 2-byte terminator window over a
// discarded chunk.
func updateTail(tail *[2]byte, chunk []byte) {
	switch n := len(chunk); {
	case n >= 2:
		tail[0], tail[1] = chunk[n-2], chunk[n-1]
	case n == 1:
		tail[0], tail[1] = tail[1], chunk[0]
	}
}

// process consumes buffered input: completes persistent framing states
// (resync, oversized-body discard), then dispatches every fully
// buffered command. It only ever dispatches a command whose complete
// line — and, for storage commands, complete data block — is already in
// memory, so the shared dispatch code never blocks mid-command and the
// "resumable state machine" lives entirely in this framing layer. A call
// that completed at least one command stamps the connection active on its
// way out, at the time of the last of them.
func (e *eventIO) process(cmds *int) evStatus {
	before := *cmds
	st := e.dispatchBuffered(cmds)
	if *cmds > before {
		e.pc.touch(e.h.now.UnixNano())
		e.stamped = true
	}
	return st
}

// dispatchBuffered is process()'s loop, counting completed commands into
// *cmds. It reads the clock once per command: a base taken just before the
// first dispatch of the call (not at entry — most calls in a burst find
// nothing to dispatch), then one monotonic reading after each command,
// whose latency is the step from the reading before it. See recordOp for
// what that interval covers.
//
// The same readings are the commands' times (h.now): base for the first,
// base plus the reading taken after the command before for each later one
// — a sequence that only advances, so a deadline, a flush epoch or a
// storedAt written by one command of a burst is in the past for the next,
// exactly as if each had read the clock itself. An operator-supplied
// Config.Clock is called per command instead.
func (e *eventIO) dispatchBuffered(cmds *int) evStatus {
	h := e.h
	srv := h.srv
	maxLine := srv.cfg.MaxLineLen
	var base time.Time
	var prev time.Duration
	for {
		if *cmds >= burstCmdBudget && e.rpos < len(e.in) {
			return evYield
		}
		// Reply-backlog gate at command boundaries: a client that
		// pipelines retrievals without draining them parks for EPOLLOUT
		// (and, past WriteTimeout with no progress, is kicked by the
		// sweep) instead of growing an unbounded queue.
		if cap := srv.cfg.MaxReplyBacklog; cap > 0 && e.pendingOut() > cap {
			if err := e.tryFlush(); err != nil {
				return evFatal
			}
			if e.pendingOut() > cap {
				return evBackpressure
			}
		}
		pc := e.pc
		if pc.resync {
			buf := e.in[e.rpos:]
			i := bytes.IndexByte(buf, '\n')
			if i < 0 {
				e.rpos = len(e.in)
				return evNeedInput
			}
			e.rpos += i + 1
			pc.resync = false
			continue
		}
		if pc.discardLeft > 0 {
			buf := e.in[e.rpos:]
			n := len(buf)
			if n > pc.discardLeft {
				n = pc.discardLeft
			}
			updateTail(&pc.discardTail, buf[:n])
			e.rpos += n
			pc.discardLeft -= n
			if pc.discardLeft > 0 {
				return evNeedInput
			}
			// Discard complete (replyError even under noreply).
			resp := respTooLarge
			if pc.discardTail != [2]byte{'\r', '\n'} {
				resp = respBadChunk
			}
			if h.replyError(resp) != nil {
				return evFatal
			}
			h.lastCmd = pc.discardCmd
			e.commandTime(&base, prev)
			srv.recordOp(h, pc.id, 0)
			*cmds++
			continue
		}
		buf := e.in[e.rpos:]
		if len(buf) == 0 {
			return evNeedInput
		}
		i := bytes.IndexByte(buf, '\n')
		if i < 0 {
			if len(buf) > maxLine+1 {
				if h.replyError(respLineTooLong) != nil {
					return evFatal
				}
				e.rpos = len(e.in)
				pc.resync = true
				continue
			}
			e.needHint = 0
			return evNeedInput
		}
		if i > maxLine+1 {
			// The newline is already buffered: report and resume right
			// after it (the resync is instantaneous).
			if h.replyError(respLineTooLong) != nil {
				return evFatal
			}
			e.rpos += i + 1
			continue
		}
		line := buf[:i]
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		// The line is tokenized in place, once (no per-command string
		// materializes); the fields alias the input buffer, which does not
		// move while the command runs.
		h.fields = tokenize(line, h.fields[:0])
		code, sa, isStore := parseStorageLine(h.fields)
		if isStore {
			if sa.nbytes > srv.cfg.MaxValueSize {
				// Oversized value: consume the line now and drop the
				// body as a framing state — it may dribble in across
				// many readiness events and must never be buffered.
				h.noteOp(code, sa.key)
				e.rpos += i + 1
				pc.discardLeft = sa.nbytes + 2
				pc.discardTail = [2]byte{}
				pc.discardCmd = code
				continue
			}
			if total := i + 1 + sa.nbytes + 2; len(buf) < total {
				e.needHint = total - len(buf)
				return evNeedInput
			}
		}
		e.rpos += i + 1
		e.commandTime(&base, prev)
		var quit bool
		var err error
		if isStore {
			h.noteOp(code, sa.key)
			err = h.doStore(code, sa)
		} else {
			quit, err = h.dispatch(h.fields)
		}
		if err != nil {
			return evFatal
		}
		t := time.Since(base)
		srv.recordOp(h, pc.id, t-prev)
		prev = t
		h.sess.Safepoint()
		*cmds++
		if quit {
			return evQuit
		}
	}
}

// commandTime sets h.now for the command about to complete or dispatch:
// the loop's latest reading (taking the base on first use), or one call
// of the operator's clock.
func (e *eventIO) commandTime(base *time.Time, prev time.Duration) {
	h := e.h
	if base.IsZero() {
		*base = time.Now()
	}
	if h.srv.ownClock {
		h.now = h.srv.cfg.Clock()
		return
	}
	h.now = base.Add(prev)
}

// connPoller is what Server sees of the event transport; the epoll
// implementation lives in poller_linux.go, and newPoller on platforms
// without one reports unsupported (the server then serves every connection
// on the goroutine transport).
type connPoller interface {
	start()
	// register transfers ownership of an accepted connection to the
	// poller (dup + park). On error the caller still owns c and falls
	// back to a goroutine handler.
	register(c net.Conn, id uint64) error
	sweep()
	killAll()
	drained() bool
	stop()
	gauges() (parked, active, queued int64)
	burstCount() int64
}
