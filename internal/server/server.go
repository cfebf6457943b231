package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/health"
	"alaska/internal/kv"
	"alaska/internal/logx"
	"alaska/internal/stats"
	"alaska/internal/wal"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the TCP listen address (e.g. ":11211").
	Addr string
	// MaxValueSize rejects larger set payloads with SERVER_ERROR
	// (memcached's -I limit). Default 1 MiB.
	MaxValueSize int
	// MaintainInterval is the background maintenance goroutine's tick.
	// Default 50 ms.
	MaintainInterval time.Duration
	// DefragFragHigh is F_ub of the Anchorage backend's §4.3 controller,
	// which the server steps with the pause-free pass: past it
	// (fragmentation = extent/active) the controller runs passes until
	// fragmentation falls under the backend's F_lb or a pass moves
	// nothing. Default 1.3. Ignored on non-Anchorage backends.
	DefragFragHigh float64
	// DefragBudget caps the bytes one pause-free pass moves, below the
	// controller's own α share of the heap. Default 1 MiB.
	DefragBudget uint64
	// Version is reported by the `version` command and `stats`.
	Version string
	// Clock supplies the wall-clock time used for TTL decisions — exptime
	// normalization here and expiry checks in the store (the server
	// installs it as the store's Clock). It also drives the idle reaper's
	// notion of "now". Every command has exactly one time, which its
	// deadline, flush epoch, expiry checks, storedAt and LRU stamp all
	// share, and which is taken only once the command's whole frame — line
	// and data block — is buffered, on either transport: a `set` whose body
	// arrives a second after its line counts its TTL from the body. nil (the
	// default): the engine derives it from one monotonic reading per
	// process() call — the i-th command of a call is that reading plus i ns,
	// and never at or before the previous call's last command, so times
	// strictly increase — and maintenance reads time.Now. Non-nil: Clock
	// is called once per command; swap in a fake to make expiry and idle
	// reaping deterministically testable.
	Clock func() time.Time

	// MaxConns caps concurrent connections (memcached's -c): at the cap
	// the accept loop simply stops accepting — connections queue in the
	// kernel's listen backlog — and resumes when a slot frees. Deferred
	// accepts are counted in listen_disabled_num. 0 = unlimited.
	MaxConns int
	// IdleTimeout reaps a connection that has not completed a command
	// line (or made write progress) for this long — a slow-loris socket
	// is closed instead of pinning its kv.Session and connection slot
	// forever. The maintenance tick's one sweep (Server.sweep) enforces it
	// over every connection of either transport. Counted in idle_kicks.
	// 0 = never reap.
	IdleTimeout time.Duration
	// WriteTimeout bounds how long a client that stops reading its own
	// responses keeps its connection once the kernel buffers fill: the
	// same sweep kicks a connection whose replies have waited on the
	// socket this long, and the goroutine transport also puts it on every
	// socket write as a deadline, because a blocked write has no other way
	// to return. Counted in slow_client_kicks. 0 = no limit.
	WriteTimeout time.Duration
	// MaxReplyBacklog caps reply bytes pending for a client that is not
	// draining them. The engine streams replies to the socket once
	// eventFlushHighWater are pending; past the budget it stops running
	// that connection's commands, so a client that pipelines retrievals
	// without reading them is made to drain — or is disconnected — instead
	// of being streamed at from an unbounded queue. On the event transport
	// the connection parks for writability and WriteTimeout kicks it; on
	// the goroutine transport every flush blocks under the write deadline,
	// so a backlog never builds. A client that is reading is unaffected.
	// Default 64 MiB; -1 disables the cap.
	MaxReplyBacklog int
	// MaxLineLen bounds one command line (memcached caps these at 2 KiB);
	// an over-length line is answered with CLIENT_ERROR line too long and
	// the stream resynced at the next newline, instead of growing the
	// read buffer without bound. Default 2048.
	MaxLineLen int
	// SlowOpThreshold records any process() call — the commands the
	// engine runs back to back from one buffer, one for a client that
	// does not pipeline — this slow or slower into the slow-op ring
	// (`stats slow`, /debug/slowops on the admin port), as one entry under
	// its first command. Default 10ms; negative disables capture entirely.
	SlowOpThreshold time.Duration
	// Logger receives the server's leveled log output: errors always,
	// connection churn at debug (the wire `verbosity` command moves the
	// level at runtime). nil = silent.
	Logger *logx.Logger
	// WAL, when non-nil, is the persistence layer (already opened,
	// replayed, started, and attached to the store via SetMutationLog —
	// see Boot). The server owns its remaining lifecycle: `stats`,
	// /metrics and /readyz surface its counters, and Shutdown closes it
	// after the last connection drains, so a clean stop loses nothing.
	WAL *wal.Log
	// Health is the readiness registry behind the admin /readyz endpoint.
	// Boot passes one that tracked the boot sequence (booting →
	// replaying → ready); New registers the server's own subsystem checks
	// (WAL degradation, accept-gate saturation) on it. nil = a registry
	// that is already past boot, so embedded/test servers report ok.
	Health *health.Registry
	// ConnModel selects the transport under the one protocol engine: "auto"
	// (default) uses the readiness poller where the platform has one (epoll
	// on Linux) and a goroutine per connection elsewhere; "event" insists on
	// the poller (still falling back, with an error logged, if
	// unsupported); "goroutine" forces a goroutine per connection. Either
	// way the connection lifecycle — one registry (Server.conns), one sweep,
	// one shutdown drain — is the server's, not the transport's. Under the
	// poller, idle connections are parked as bare fds — no goroutine stack,
	// no buffers, no rt.Thread — and a fixed worker pool serves the ready
	// ones, so the defrag barrier only ever waits on the worker set.
	ConnModel string
	// Workers sizes the event-model worker pool. Default GOMAXPROCS×2.
	Workers int
	// SpacePaddedDecr enables memcached's classic decr compatibility
	// behavior: a decrement whose result has fewer digits than the stored
	// value is right-padded with spaces to the old length (so the item
	// never shrinks in place). Off by default — modern clients expect the
	// bare number — but available for clients that parse fixed-width
	// counters (alaskad -space-padded-decr).
	SpacePaddedDecr bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxValueSize == 0 {
		out.MaxValueSize = 1 << 20
	}
	if out.MaintainInterval == 0 {
		out.MaintainInterval = 50 * time.Millisecond
	}
	if out.DefragFragHigh == 0 {
		out.DefragFragHigh = 1.3
	}
	if out.DefragBudget == 0 {
		out.DefragBudget = 1 << 20
	}
	if out.Version == "" {
		out.Version = "0.3.0-alaska"
	}
	if out.Clock == nil {
		out.Clock = time.Now
	}
	if out.MaxReplyBacklog == 0 {
		out.MaxReplyBacklog = 64 << 20
	}
	if out.MaxLineLen == 0 {
		out.MaxLineLen = 2048
	}
	if out.SlowOpThreshold == 0 {
		out.SlowOpThreshold = 10 * time.Millisecond
	}
	if out.ConnModel == "" {
		out.ConnModel = "auto"
	}
	if out.Workers <= 0 {
		out.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	return out
}

// Accept-error backoff bounds: transient failures (EMFILE under fd
// pressure, ECONNABORTED) are retried with capped exponential backoff
// instead of killing the server.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// Server is a memcached-ASCII-protocol server over a kv.ShardedStore.
type Server struct {
	cfg   Config
	store *kv.ShardedStore
	// anch is non-nil when the store runs on the Anchorage backend; the
	// maintenance loop then drives defragmentation under live traffic.
	anch *kv.AnchorageBackend

	ln    net.Listener
	quit  chan struct{}
	wg    sync.WaitGroup // maintenance + accept loop
	connW sync.WaitGroup // one per registered connection (track … endConn)
	// connSem is the -max-conns accept gate (nil = unlimited): the accept
	// loop acquires a slot before accepting and the teardown (endConn)
	// releases it, so at the cap the loop blocks — listen disabled — until a
	// disconnect.
	connSem chan struct{}

	mu sync.Mutex
	// conns is the registry of every live connection, both transports:
	// each enters once (track) and leaves once (endConn), mapped to its
	// transport's last step of kill. The maintenance sweep and Shutdown's
	// force-close walk it through reap.
	conns map[*pollConn]aborter
	start time.Time

	// poller is the event-driven connection core (nil when the platform
	// has none or ConnModel forces goroutines). Accepted connections are
	// registered as parked fds instead of getting a goroutine; a fixed
	// worker pool serves the ready ones.
	poller connPoller

	// Counters surfaced by `stats`.
	currConns      atomic.Int64
	totalConns     atomic.Int64
	protocolErrors atomic.Int64
	listenDisabled atomic.Int64
	acceptErrors   atomic.Int64
	idleKicks      atomic.Int64
	slowKicks      atomic.Int64
	cmdFlush       atomic.Int64
	casCounter     atomic.Uint64
	bytesRead      atomic.Int64
	bytesWritten   atomic.Int64

	// Observability plane. lat and perOp are the published command-latency
	// recorders (all opcodes, and split by opcode behind /metrics). No
	// command records into them: an engine records into its own latStripe
	// and every reader calls foldLatency first, which drains the stripes
	// in. slowOps is the slow-command flight recorder and slowThreshNs its
	// precomputed hot-path gate. connIDs labels connections for slow-op
	// attribution — it is separate from totalConns so `stats reset` never
	// reuses an id.
	slowThreshNs int64
	lat          *stats.LatencyRecorder
	perOp        [cmdCount]*stats.LatencyRecorder
	stripes      []latStripe
	nextStripe   atomic.Uint32
	foldMu       sync.Mutex // held to fold the stripes in, and to reset what they fold into
	slowOps      *slowRing
	connIDs      atomic.Uint64
	// ownClock records that the operator supplied Config.Clock, so each
	// command's time is one call of it rather than its place in the call's
	// one monotonic reading (a fake clock must be what every command sees).
	ownClock bool

	// passLat times the pause-free defrag passes the maintenance tick runs.
	passLat *stats.LatencyRecorder

	// rows is the stat table (statTable) that `stats`, /metrics and
	// `stats reset` render from; metricRows is its /metrics order.
	rows       []statRow
	metricRows []*statRow

	// admin is the -admin-addr HTTP server once AttachAdmin has run;
	// Shutdown drains it (in-flight scrapes complete, then the port is
	// released) instead of leaking the listener.
	admin *http.Server

	closeOnce sync.Once
}

// conn is a goroutine-transport connection: the accepted socket plus a
// per-write deadline, so a stalled client cannot wedge a flush forever. It
// is its engine's seam (read, writev). pc is the engine's per-connection
// state: the connection's id, the sweep's activity stamp, the slow flag the
// teardown counts slow_client_kicks from, and the framing state process()
// keeps between reads.
type conn struct {
	net.Conn
	srv  *Server
	sess kv.Session
	pc   pollConn
	// woke is set by a read that returned bytes: the next read reports
	// again instead of blocking, so the burst ends there and every blocking
	// read starts a burst — and a burst budget — of its own, as every
	// readiness does on the event transport.
	woke bool
}

// read is a blocking socket read, made in the session's idle (external)
// state so a quiet client never delays a barrier. A read that moved
// nothing and failed nothing (a peer's empty write) reports again too.
func (c *conn) read(p []byte) (int, bool, error) {
	if c.woke {
		c.woke = false
		return 0, true, nil
	}
	c.sess.EnterIdle()
	n, err := c.Conn.Read(p)
	c.sess.ExitIdle()
	c.woke = n > 0
	return n, n == 0 && err == nil, err
}

// writev writes a, then b, blocking, in the session's idle state so a slow
// reader delays no barrier. It never reports again.
func (c *conn) writev(a, b []byte) (int, bool, error) {
	c.sess.EnterIdle()
	n, err := c.write(a)
	if err == nil {
		var m int
		m, err = c.write(b)
		n += m
	}
	c.sess.ExitIdle()
	return n, false, err
}

// write applies the write deadline, so every socket write a slow client can
// stall is bounded. A completed write is client-side drain progress and
// counts as activity for the idle reaper — a client reading a large reply
// slowly but steadily is making progress, not idling. (The engine stamps
// activity once per burst; a blocking write can outlast that stamp.)
func (c *conn) write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil // writev's spill half: a conn never parks, so never has one
	}
	if wt := c.srv.cfg.WriteTimeout; wt > 0 {
		_ = c.Conn.SetWriteDeadline(time.Now().Add(wt))
	}
	n, err := c.Conn.Write(p)
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		c.pc.slow.Store(true)
	}
	if n > 0 {
		c.pc.touch(c.srv.cfg.Clock().UnixNano())
	}
	return n, err
}

// abort is kill's last step on the goroutine transport: closing the socket
// returns the handler's blocked read, and the handler tears the connection
// down. A socket closes more than once harmlessly.
func (c *conn) abort(*pollConn) { _ = c.Conn.Close() }

// New builds a server over the store. The store's backend decides the
// maintenance behavior: on Anchorage, the §4.3 controller carrying out
// its passes with the pause-free mover (New installs it; the server never
// stops the world); on other backends, whatever Maintain does (meshing
// rounds, nothing for malloc).
func New(store *kv.ShardedStore, cfg Config) *Server {
	s := &Server{
		cfg:   cfg.withDefaults(),
		store: store,
		quit:  make(chan struct{}),
		conns: make(map[*pollConn]aborter),
		lat:   stats.NewLatencyRecorder(),
		// Stamped at construction, not in Serve: the admin plane (and
		// its uptime gauge) can be serving scrapes before the accept
		// loop starts, and a late overwrite would race them.
		start: time.Now(),
	}
	s.ownClock = cfg.Clock != nil // before withDefaults filled it in
	// Stripe by stripe, so one worker's recorders sit together and apart
	// from the next worker's.
	s.stripes = make([]latStripe, s.cfg.Workers)
	for i := range s.stripes {
		for op := range s.stripes[i] {
			s.stripes[i][op] = stats.NewLatencyRecorder()
		}
	}
	for i := range s.perOp {
		s.perOp[i] = stats.NewLatencyRecorder()
	}
	s.slowOps = newSlowRing()
	if s.cfg.SlowOpThreshold > 0 {
		s.slowThreshNs = s.cfg.SlowOpThreshold.Nanoseconds()
	}
	s.passLat = stats.NewLatencyRecorder()
	if s.cfg.MaxConns > 0 {
		s.connSem = make(chan struct{}, s.cfg.MaxConns)
	}
	if ab, ok := store.Backend().(*kv.AnchorageBackend); ok {
		s.anch = ab
		// The backend's controller, with F_ub = DefragFragHigh and the
		// pause-free pass as its step: each pass moves at most DefragBudget
		// bytes and its wall time is both T_defrag and a passLat sample.
		acfg := ab.Svc.Config()
		acfg.FragHigh = s.cfg.DefragFragHigh
		pass := anchorage.ConcurrentPass(ab.Svc)
		ab.Ctl = anchorage.NewController(ab.Svc, acfg, func(budget uint64) (uint64, time.Duration) {
			moved, took := pass(min(budget, s.cfg.DefragBudget))
			s.passLat.Record(took)
			return moved, took
		})
	}
	if s.cfg.Health == nil {
		s.cfg.Health = health.NewReady()
	}
	if w := s.cfg.WAL; w != nil {
		s.cfg.Health.Register("wal", func() (health.Status, string) {
			if w.Degraded() {
				ws := w.Stats()
				return health.Degraded, fmt.Sprintf("degraded since %s; %d appends dropped",
					w.DegradedSince().Format(time.RFC3339), ws.DroppedDegraded)
			}
			// An overflow drops records the way a cache does, not a disk
			// fault: still ready, with the heal pending in the detail.
			if w.GapOpen() {
				ws := w.Stats()
				return health.OK, fmt.Sprintf("durability gap open: %d records dropped, heal pending",
					ws.DroppedRecords+ws.DroppedDegraded)
			}
			return health.OK, "persisting"
		})
	}
	if s.connSem != nil {
		s.cfg.Health.Register("accept-gate", func() (health.Status, string) {
			used, limit := len(s.connSem), cap(s.connSem)
			if used >= limit {
				return health.Degraded, fmt.Sprintf("saturated: %d/%d conns; accepts deferred", used, limit)
			}
			return health.OK, fmt.Sprintf("%d/%d conns", used, limit)
		})
	}
	// One clock for exptime normalization and the store's expiry checks:
	// a value stored "for 5 seconds" dies exactly when both agree it does.
	store.Clock = s.cfg.Clock
	switch s.cfg.ConnModel {
	case "goroutine":
	case "auto", "event":
		p, err := newPoller(s)
		if err != nil {
			if s.cfg.ConnModel != "auto" {
				s.cfg.Logger.Errorf("conn model %q unavailable (%v); falling back to goroutine-per-connection", s.cfg.ConnModel, err)
			}
		} else {
			s.poller = p
		}
	default:
		s.cfg.Logger.Errorf("unknown ConnModel %q; using goroutine-per-connection", s.cfg.ConnModel)
	}
	s.rows = s.statTable()
	s.metricRows = familyOrder(s.rows)
	return s
}

// ConnModel reports the connection architecture actually in effect.
func (s *Server) ConnModel() string {
	if s.poller != nil {
		return "event"
	}
	return "goroutine"
}

// pollerGauges reports the event core's instantaneous population:
// parked fds, connections on a worker (queued-or-running), and the
// ready-queue depth. All zero under the goroutine transport, where every
// connection is "active" by construction.
func (s *Server) pollerGauges() (parked, active, queued int64) {
	if s.poller == nil {
		return 0, 0, 0
	}
	return s.poller.gauges()
}

// Listen binds the configured address. Addr() reports the bound address
// afterwards (useful with ":0").
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.cfg.Logger.Infof("listening on %s (backend %s)", ln.Addr(), s.store.Backend().Name())
	return nil
}

// Addr returns the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve runs the accept loop until Shutdown. Listen must have been
// called. Transient accept errors (EMFILE under fd pressure,
// ECONNABORTED) are retried with capped exponential backoff — only
// Shutdown or a closed listener terminate the loop — so one bad accept
// never kills a server holding thousands of live connections. It always
// returns nil after a clean shutdown. Callers run `go srv.Serve()`, so
// what it starts it starts under s.mu, where Shutdown closes quit: either
// Shutdown finds the WaitGroup reference taken and the poller started, and
// waits for both, or Serve finds quit closed and starts nothing.
func (s *Server) Serve() error {
	s.mu.Lock()
	select {
	case <-s.quit:
		s.mu.Unlock()
		return nil
	default:
	}
	s.wg.Add(1)
	go s.maintainLoop()
	if s.poller != nil {
		s.poller.start()
	}
	s.mu.Unlock()
	backoff := acceptBackoffMin
	for {
		waited, ok := s.acquireConnSlot()
		if !ok {
			return nil
		}
		var c net.Conn
		var err error
		deferred := false
		if waited {
			// The gate was closed: a connection accepted *right now* was
			// sitting in the listen backlog while we were at capacity —
			// that is a deferred accept. One that arrives later was not.
			c, err = s.pollPendingAccept()
			deferred = c != nil
		}
		if c == nil && err == nil {
			c, err = s.ln.Accept()
		}
		if err != nil {
			s.releaseConnSlot()
			select {
			case <-s.quit:
				return nil
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			s.acceptErrors.Add(1)
			s.cfg.Logger.Errorf("accept: %v (retrying in %v)", err, backoff)
			select {
			case <-time.After(backoff):
			case <-s.quit:
				return nil
			}
			if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = acceptBackoffMin
		if deferred {
			s.listenDisabled.Add(1)
		}
		id := s.connIDs.Add(1)
		s.cfg.Logger.Debugf("conn %d: accepted %s", id, c.RemoteAddr())
		s.totalConns.Add(1)
		if s.poller != nil {
			// Event transport: the connection becomes a parked fd in the
			// poller — no goroutine, no session, no buffers until it
			// turns readable. On registration failure (non-syscall conn,
			// fd-table pressure, Shutdown) the original connection is
			// untouched and goes to the goroutine transport below.
			if err := s.poller.register(c, id); err == nil {
				continue
			} else {
				s.cfg.Logger.Debugf("conn %d: poller register failed (%v); using goroutine handler", id, err)
			}
		}
		s.serveConn(c, id)
	}
}

// serveConn hands an accepted connection to the goroutine transport, or
// closes it if Shutdown has begun.
func (s *Server) serveConn(nc net.Conn, id uint64) {
	c := &conn{Conn: nc, srv: s}
	c.pc.id = id
	c.pc.touch(s.cfg.Clock().UnixNano())
	if !s.track(&c.pc, c) {
		_ = nc.Close()
		s.releaseConnSlot()
		return
	}
	go s.handleConn(c)
}

// track enters a connection into the registry with a as its transport's
// close step, counting it in curr_connections and connW. Once Shutdown has
// closed quit it enters nothing and reports false; the caller then closes
// the connection. The check and the Add share mu with Shutdown's close of
// quit, as Serve's start does, so Shutdown's wait covers every connection
// that got in.
func (s *Server) track(pc *pollConn, a aborter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.quit:
		return false
	default:
	}
	s.conns[pc] = a
	s.currConns.Add(1)
	s.connW.Add(1)
	return true
}

// acquireConnSlot blocks while the server sits at -max-conns, reporting
// whether it had to wait (the accept that follows is a deferred one) and
// whether the server is still running.
func (s *Server) acquireConnSlot() (waited, ok bool) {
	if s.connSem == nil {
		return false, true
	}
	select {
	case s.connSem <- struct{}{}:
		return false, true
	default:
	}
	select {
	case s.connSem <- struct{}{}:
		return true, true
	case <-s.quit:
		return false, false
	}
}

func (s *Server) releaseConnSlot() {
	if s.connSem != nil {
		<-s.connSem
	}
}

// pollPendingAccept checks — via a near-immediate accept deadline —
// whether a connection is already queued in the listen backlog, and
// accepts it if so. (nil, nil) means nothing was waiting. On listeners
// without deadlines, the first accept after a wait is simply treated as
// deferred.
func (s *Server) pollPendingAccept() (net.Conn, error) {
	d, ok := s.ln.(interface{ SetDeadline(time.Time) error })
	if !ok {
		return s.ln.Accept()
	}
	_ = d.SetDeadline(time.Now().Add(time.Millisecond))
	c, err := s.ln.Accept()
	_ = d.SetDeadline(time.Time{})
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return nil, nil
		}
		return nil, err
	}
	return c, nil
}

// Shutdown stops accepting, waits up to drain for in-flight connections
// to finish their current commands and disconnect, then force-closes the
// stragglers through the one reap and waits for their teardown. Both waits
// are the one connW, on either transport. Safe to call multiple times.
func (s *Server) Shutdown(drain time.Duration) error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		close(s.quit)
		s.mu.Unlock()
		if s.ln != nil {
			_ = s.ln.Close()
		}
		done := make(chan struct{})
		go func() {
			s.connW.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(drain):
			s.reap(func(*pollConn) (kickReason, bool) { return kickShutdown, true })
			<-done
		}
		if s.poller != nil {
			s.poller.stop()
		}
		s.wg.Wait()
		// The admin plane stays up while the data plane drains (operators
		// can watch the drain on /metrics), then shuts down gracefully:
		// http.Server.Shutdown releases the port immediately and waits for
		// in-flight scrapes to complete, bounded by the same drain budget.
		if s.admin != nil {
			ctx, cancel := context.WithTimeout(context.Background(), max(drain, time.Second))
			if err := s.admin.Shutdown(ctx); err != nil {
				_ = s.admin.Close()
			}
			cancel()
		}
		// The WAL closes last — every connection and the maintain loop
		// have stopped, so the final ring drain + fsync makes a clean
		// shutdown byte-complete on disk.
		if s.cfg.WAL != nil {
			_ = s.cfg.WAL.Close()
		}
	})
	return nil
}

// latStripe is one worker's private command-latency recorders, by opcode.
// There are cfg.Workers of them, so each event-transport worker records
// into lines no other worker writes; goroutine-transport engines share
// them round-robin.
type latStripe [cmdCount]*stats.LatencyRecorder

// foldLatency drains every stripe into the published recorders; every
// reader of s.lat or s.perOp calls it first. Nothing else adds to them
// and only a reset subtracts, so a caller taking deltas of Sum/Count
// never sees one go backwards.
func (s *Server) foldLatency() {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	s.foldLatencyLocked()
}

func (s *Server) foldLatencyLocked() {
	for i := range s.stripes {
		for op, rec := range s.stripes[i] {
			rec.DrainInto(s.perOp[op], s.lat)
		}
	}
}

// handleConn is the goroutine transport: one goroutine and one engine per
// connection, whose seam is the conn, calling the engine's burst loop until
// the connection ends. It costs a connection one goroutine and one engine's
// buffers for its lifetime, where the event transport parks a bare fd; it is
// what every platform without a poller serves from. Every socket read and
// write happens in the session's idle (external) state, so a quiet or slow
// client never delays a barrier, and every write carries the WriteTimeout
// deadline (conn.write).
func (s *Server) handleConn(c *conn) {
	c.sess = s.store.NewSession()
	e := s.newEngine(c.sess, &c.pc, c)
	for e.burst() != brClosed {
	}
	c.pc.killed.Store(true) // it ended: a late sweep counts no kick
	c.sess.Close()
	s.endConn(&c.pc, c)
}

// endConn is the one teardown, run by a connection's owner on either
// transport once the connection is done, and the one way out of the
// registry. It settles the counters a client may read the moment it sees
// EOF — curr_connections and slow_client_kicks (kill counts idle_kicks
// before it closes) — then closes the socket, then frees the -max-conns
// slot, so the accept gate never admits a connection while the closed one
// still holds its fd. Its connW.Done is last, so a drained Shutdown has
// nothing left to close.
func (s *Server) endConn(pc *pollConn, sock io.Closer) {
	s.mu.Lock()
	delete(s.conns, pc)
	s.mu.Unlock()
	s.currConns.Add(-1)
	if pc.slow.Load() {
		s.slowKicks.Add(1)
		s.cfg.Logger.Debugf("conn %d: kicked (slow client)", pc.id)
	} else {
		s.cfg.Logger.Debugf("conn %d: closed", pc.id)
	}
	_ = sock.Close()
	s.releaseConnSlot()
	s.connW.Done()
}

// SlowOps returns the slow-op ring's current contents, newest first.
// Reporting surfaces only.
func (s *Server) SlowOps() []SlowOp { return s.slowOps.snapshot() }

// slowOpTotal counts slow ops ever recorded (not just those still in
// the ring).
func (s *Server) slowOpTotal() uint64 { return s.slowOps.cur.Load() }

// OpLatency returns the latency recorder for one opcode label (e.g.
// "get"), or nil when unknown. The recorder is the published one, brought
// up to date by this call: a caller that keeps it reads it as of its last
// OpLatency call (or the last `stats` or scrape). For what one observation
// covers, see foldCall. The benchmark ledger and tests read histograms
// through this.
func (s *Server) OpLatency(op string) *stats.LatencyRecorder {
	s.foldLatency()
	for i, name := range cmdNames {
		if name == op {
			return s.perOp[i]
		}
	}
	return nil
}
