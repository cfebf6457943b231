package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
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
	// default): the engine derives it from one monotonic reading per command
	// — a pipelined burst reads time.Now once and then steps it by the same
	// time.Since that times each command — and maintenance reads time.Now.
	// Non-nil: Clock is called once per command; swap in a fake to make
	// expiry and idle reaping deterministically testable.
	Clock func() time.Time

	// MaxConns caps concurrent connections (memcached's -c): at the cap
	// the accept loop simply stops accepting — connections queue in the
	// kernel's listen backlog — and resumes when a slot frees. Deferred
	// accepts are counted in listen_disabled_num. 0 = unlimited.
	MaxConns int
	// IdleTimeout reaps a connection that has not completed a command
	// line (or made write progress) for this long — a slow-loris socket
	// is closed instead of pinning its kv.Session and connection slot
	// forever. Counted in idle_kicks. 0 = never reap.
	IdleTimeout time.Duration
	// WriteTimeout is the deadline applied to every socket write: a client
	// that stops reading its own responses is disconnected once the kernel
	// buffers fill and a write misses the deadline. Counted in
	// slow_client_kicks. 0 = no deadline.
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
	// SlowOpThreshold records any command slower than this into the
	// slow-op ring (`stats slow`, /debug/slowops on the admin port).
	// Default 10ms; negative disables capture entirely.
	SlowOpThreshold time.Duration
	// Logger receives the server's leveled log output: errors always,
	// connection churn at debug (the wire `verbosity` command moves the
	// level at runtime). nil = silent.
	Logger *logx.Logger
	// WAL, when non-nil, is the persistence layer (already opened,
	// replayed, started, and attached to the store via SetMutationLog —
	// see cmd/alaskad). The server owns its remaining lifecycle: the
	// Maintain loop drives compaction next to defrag, `stats` and
	// /metrics surface its counters, and Shutdown closes it after the
	// last connection drains, so a clean stop loses nothing.
	WAL *wal.Log
	// Health is the readiness registry behind the admin /readyz endpoint.
	// cmd/alaskad passes one that tracked the boot sequence (booting →
	// replaying → ready); New registers the server's own subsystem checks
	// (WAL degradation, accept-gate saturation) on it. nil = a registry
	// that is already past boot, so embedded/test servers report ok.
	Health *health.Registry
	// ConnModel selects the transport under the one protocol engine: "auto"
	// (default) uses the readiness poller where the platform has one (epoll
	// on Linux) and a goroutine per connection elsewhere; "epoll" / "event"
	// insist on the poller (still falling back, with an error logged, if
	// unsupported); "goroutine" forces a goroutine per connection. Under the
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
	connW sync.WaitGroup // one per live connection
	// connSem is the -max-conns accept gate (nil = unlimited): the accept
	// loop acquires a slot before accepting and the handler releases it on
	// exit, so at the cap the loop blocks — listen disabled — until a
	// disconnect.
	connSem chan struct{}

	mu    sync.Mutex
	conns map[*conn]struct{}
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
	// command records into them: a handler records into its own latStripe
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
	// command's time is one call of it rather than a step of the engine's
	// monotonic reading (a fake clock must be what every command sees).
	ownClock bool

	// Defragmentation telemetry, fed by the maintenance tick: the
	// pause-free pass duration histogram and the sampled
	// RSS/fragmentation gauges the metrics endpoint reports.
	passLat     *stats.LatencyRecorder
	sampledRSS  atomic.Uint64
	sampledFrag atomic.Uint64 // math.Float64bits

	registryOnce sync.Once
	registry     *registryState

	// admin is the -admin-addr HTTP server once AttachAdmin has run;
	// Shutdown drains it (in-flight scrapes complete, then the port is
	// released) instead of leaking the listener.
	admin *http.Server

	closeOnce sync.Once
}

// conn is a goroutine-transport connection: the accepted socket plus the
// safety bookkeeping a blocking driver needs around it — an idempotent
// close (the handler's exit path, the idle reaper, and Shutdown may each
// try to close it; whoever gets there first wins and the rest are no-ops),
// a per-write deadline so a stalled client cannot wedge a flush forever,
// and the socket byte counters. pc is the detached (fd < 0) pollConn its
// engine runs over: the connection's id, the idle reaper's activity stamp,
// the slow flag the exit path counts slow_client_kicks from, and the
// framing state process() keeps between reads.
type conn struct {
	net.Conn
	srv       *Server
	pc        pollConn
	closeOnce sync.Once
	closeErr  error
}

// Write applies the write deadline, so every socket write a slow client can
// stall is bounded. A successful write is client-side drain progress and
// counts as activity for the idle reaper — a client reading a large reply
// slowly but steadily is making progress, not idling.
func (c *conn) Write(p []byte) (int, error) {
	if wt := c.srv.cfg.WriteTimeout; wt > 0 {
		_ = c.Conn.SetWriteDeadline(time.Now().Add(wt))
	}
	n, err := c.Conn.Write(p)
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		c.pc.slow.Store(true)
	}
	if n > 0 {
		c.srv.bytesWritten.Add(int64(n))
		c.pc.touch(c.srv.cfg.Clock().UnixNano())
	}
	return n, err
}

// Read counts socket bytes into the server's bytes_read.
func (c *conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.srv.bytesRead.Add(int64(n))
	}
	return n, err
}

// kill closes the socket exactly once, reporting whether this call was
// the one that performed the close (so each reap is counted once even
// when the reaper, Shutdown, and the handler race).
func (c *conn) kill() bool {
	killed := false
	c.closeOnce.Do(func() {
		c.closeErr = c.Conn.Close()
		killed = true
	})
	return killed
}

// Close makes the wrapper itself idempotent for every other closer.
func (c *conn) Close() error {
	c.kill()
	return c.closeErr
}

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
		conns: make(map[*conn]struct{}),
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
	case "auto", "epoll", "event":
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
		s.currConns.Add(1)
		if s.poller != nil {
			// Event transport: the connection becomes a parked fd in the
			// poller — no goroutine, no session, no buffers until it
			// turns readable. On registration failure (non-syscall conn,
			// fd-table pressure) the original connection is untouched and
			// serves through the goroutine transport below.
			if err := s.poller.register(c, id); err == nil {
				continue
			} else {
				s.cfg.Logger.Debugf("conn %d: poller register failed (%v); using goroutine handler", id, err)
			}
		}
		s.serveConn(c, id)
	}
}

// serveConn hands an accepted connection to the goroutine transport.
func (s *Server) serveConn(nc net.Conn, id uint64) {
	c := &conn{Conn: nc, srv: s}
	c.pc.fd, c.pc.id = -1, id
	c.pc.touch(s.cfg.Clock().UnixNano())
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.connW.Add(1)
	go s.handleConn(c)
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

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe() error {
	if err := s.Listen(); err != nil {
		return err
	}
	return s.Serve()
}

// Shutdown stops accepting, waits up to drain for in-flight connections
// to finish their current commands and disconnect, then force-closes the
// stragglers. Safe to call multiple times.
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
			// Poller-owned connections count too: wait for clients to
			// disconnect voluntarily during the drain window (killAll
			// below unblocks this after the deadline).
			if s.poller != nil {
				for !s.poller.drained() {
					time.Sleep(time.Millisecond)
				}
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(drain):
			// Connections idling in a read only notice via conn close. The
			// close is idempotent, so racing the idle reaper or a handler's
			// own exit path is harmless.
			s.mu.Lock()
			for c := range s.conns {
				_ = c.Close()
			}
			s.mu.Unlock()
			if s.poller != nil {
				s.poller.killAll()
			}
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
			ctx, cancel := context.WithTimeout(context.Background(), maxDur(drain, time.Second))
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

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

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

// tick is one maintenance step at server age now.
func (s *Server) tick(now time.Duration) {
	// The store's Maintain, as the figures call it: the backend's
	// machinery (on Anchorage the §4.3 controller with its pause-free
	// pass, then the grace-period drain) and one expiry-sweep increment,
	// so dead values release heap (and un-hostage their sub-heaps for
	// truncation) even if never touched again.
	s.store.Maintain(now)
	// Log compaction rides the same tick: the check is a couple of atomic
	// loads; the rewrite itself runs on the WAL's writer goroutine.
	if s.cfg.WAL != nil {
		s.cfg.WAL.MaybeCompact()
	}
	s.sampleGauges()
	s.reapIdle()
	// Poller-side hardening rides the same tick: the sweep enforces
	// IdleTimeout and WriteTimeout over the parked population with the
	// same clock and counters.
	if s.poller != nil {
		s.poller.sweep()
	}
}

// sampleGauges refreshes the sampled RSS/fragmentation gauges at the
// maintenance tick. /metrics reports the sampled values instead of
// walking the store per scrape, so a scrape storm cannot add store
// traffic and the gauges line up in time with the defrag telemetry
// captured on the same tick.
func (s *Server) sampleGauges() {
	snap := s.store.Snapshot()
	s.sampledRSS.Store(uint64(snap.RSS))
	frag := 0.0
	if s.anch != nil {
		frag = s.anch.Svc.Fragmentation()
	} else if snap.Used > 0 {
		frag = float64(snap.RSS) / float64(snap.Used)
	}
	s.sampledFrag.Store(math.Float64bits(frag))
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

// connHandler is the command half of the protocol engine: dispatch and the
// do* handlers, over their own kv.Session (an rt.Thread under Alaska) and
// scratch buffers. An event-transport worker owns one for its lifetime and
// serves every ready connection through it; a goroutine-transport connection
// owns one for the connection's. Its I/O half is always ev — commands read
// their data block from, and write their replies into, the engine's buffers,
// and the transport moves those to and from the socket.
type connHandler struct {
	srv  *Server
	sess kv.Session
	ev   *eventIO

	// Pooled scratch memory: every buffer below is owned by this handler's
	// goroutine, grows to the workload's steady state, and is reused for
	// every subsequent command — the request path performs no per-op
	// allocation once warm. None of them may be shared across handlers
	// (pool_race_test.go proves they never alias).
	fields [][]byte // tokenized command fields (slices into the input buffer)
	val    []byte   // kv copy-out / RMW old-value scratch
	val2   []byte   // encoded write-back value scratch (may not alias val)
	hdr    []byte   // response header / numeric reply scratch

	// Per-command observability capture, written by dispatch: the opcode
	// for the per-op histograms and a fixed-array key prefix for the
	// slow-op ring. Fixed storage — recording stays allocation-free.
	lastCmd  cmdCode
	opKey    [slowOpKeyLen]byte
	opKeyLen uint8
	stripe   *latStripe // where recordOp records; taken once, at construction

	// now is the time of the command being dispatched — the only time it
	// uses: its deadline, its flush epoch, every store call it makes (so
	// expiry, storedAt and the LRU stamp agree with both), and its slow-op
	// stamp. The engine sets it before each dispatch from the one reading
	// it takes per command (see Config.Clock); successive commands on a
	// connection never see it go backwards.
	now time.Time
}

// latStripe is one worker's private command-latency recorders, by opcode.
// There are cfg.Workers of them, so each event-transport worker records
// into lines no other worker writes; goroutine-transport handlers share
// them round-robin.
type latStripe [cmdCount]*stats.LatencyRecorder

// newConnHandler builds a handler over sess, with its engine, and hands it
// the next stripe. The transport attaches the engine to a connection
// (eventIO.begin).
func (s *Server) newConnHandler(sess kv.Session) *connHandler {
	n := s.nextStripe.Add(1) - 1
	h := &connHandler{srv: s, sess: sess, stripe: &s.stripes[n%uint32(len(s.stripes))]}
	h.ev = &eventIO{h: h}
	return h
}

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

// handleConn is the goroutine transport: a blocking driver over the one
// protocol engine. It runs process() over what is buffered, writes what
// that produced, and — once the engine has consumed every complete frame —
// reads more. It costs a connection one goroutine and one eventIO (input
// and reply buffers) for its lifetime, where the event transport parks a
// bare fd; it is what every platform without a poller serves from. Every
// socket read and write happens in the session's idle (external) state, so
// a quiet or slow client never delays a barrier, and every write carries
// the WriteTimeout deadline (conn.Write).
func (s *Server) handleConn(c *conn) {
	defer s.connW.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.currConns.Add(-1)
		if c.pc.slow.Load() {
			s.slowKicks.Add(1)
			s.cfg.Logger.Debugf("conn %d: kicked (slow client)", c.pc.id)
		} else {
			s.cfg.Logger.Debugf("conn %d: closed", c.pc.id)
		}
		_ = c.Close()
		s.releaseConnSlot()
	}()
	h := s.newConnHandler(s.store.NewSession())
	defer h.sess.Close()
	e := h.ev
	e.c = c
	e.begin(&c.pc)
	for {
		// The burst budget is the workers' fairness rule; a connection
		// with a goroutine of its own starts a fresh one every pass.
		cmds := 0
		st := e.process(&cmds)
		if st == evFatal || e.tryFlush() != nil || st == evQuit {
			return
		}
		if st != evNeedInput {
			continue
		}
		h.sess.EnterIdle()
		n, err := c.Read(e.readBuf())
		h.sess.ExitIdle()
		e.extend(n)
		if n == 0 && err != nil {
			return // EOF, reap, or connection failure
		}
	}
}

// recordOp records one completed command's latency — once, into the
// handler's stripe (the per-opcode recorder; the all-opcodes aggregate is
// their sum, made by foldLatency) — and, past the slow threshold, into the
// slow-op ring. Atomics and fixed arrays only — the allocation guards run
// this exact path.
//
// d never covers a client's think time, on either transport: a command is
// dispatched, timed and given its time only once its whole frame (line and
// data block) is buffered. (The goroutine transport used to dispatch on the
// line and wait for the body inside the timed region.) The engine reads the
// clock once per command, after it: the first command of a process() call
// is timed from just before its dispatch to reply generation, and each
// later one from the end of the command before it, so its d also covers
// that command's recordOp and safepoint poll and its own framing scan.
//
// A slow op is stamped with the command's own time (h.now, when it began),
// not a fresh reading.
func (s *Server) recordOp(h *connHandler, connID uint64, d time.Duration) {
	h.stripe[h.lastCmd].Record(d)
	if s.slowThreshNs > 0 && d.Nanoseconds() >= s.slowThreshNs {
		s.slowOps.record(h.lastCmd, h.opKey[:h.opKeyLen], d, connID, h.now)
	}
}

func (h *connHandler) reply(line string) error {
	if err := h.ev.writeString(line); err != nil {
		return err
	}
	return h.ev.writeString(crlf)
}

// replyError counts a protocol error and sends the error line.
func (h *connHandler) replyError(line string) error {
	h.srv.protocolErrors.Add(1)
	return h.reply(line)
}

// cmdCode labels a command for the per-opcode latency histograms and
// the slow-op ring, and names the storage command doStore is running.
type cmdCode uint8

const (
	cmdGet cmdCode = iota
	cmdGat
	cmdSet
	cmdAdd
	cmdReplace
	cmdCas
	cmdAppend
	cmdPrepend
	cmdIncr
	cmdDecr
	cmdDelete
	cmdTouch
	cmdFlushAll
	cmdStats
	cmdOther // version, verbosity, quit, protocol errors
	cmdCount
)

// cmdNames are the wire/metric labels, indexed by cmdCode.
var cmdNames = [cmdCount]string{
	"get", "gat", "set", "add", "replace", "cas", "append", "prepend",
	"incr", "decr", "delete", "touch", "flush_all", "stats", "other",
}

// noteOp records the dispatched opcode and a fixed-size key prefix for
// the observability plane. key aliases the input buffer; the copy into the
// handler-owned array is what lets the slow-op ring reference it later
// without holding (or allocating) request memory.
func (h *connHandler) noteOp(code cmdCode, key []byte) {
	h.lastCmd = code
	h.opKeyLen = uint8(copy(h.opKey[:], key))
}

// firstKey returns the leading argument (the key for single- and
// multi-key commands alike), or nil for a bare command.
func firstKey(args [][]byte) []byte {
	if len(args) > 0 {
		return args[0]
	}
	return nil
}

// dispatch executes one tokenized command that is not a well-formed
// storage command — the engine's dispatchBuffered, its only caller, runs
// those itself (doStore). The returned error is an I/O failure (drop the
// connection); protocol errors are answered in-band. fields alias the
// input buffer.
func (h *connHandler) dispatch(fields [][]byte) (quit bool, err error) {
	if len(fields) == 0 {
		h.noteOp(cmdOther, nil)
		return false, h.replyError(respError)
	}
	cmd, args := fields[0], fields[1:]
	switch string(cmd) { // compiles to allocation-free comparisons
	case "get", "gets":
		h.noteOp(cmdGet, firstKey(args))
		return false, h.doGet(args, len(cmd) == 4)
	case "gat", "gats":
		// args[0] is the exptime; the first key follows it.
		h.noteOp(cmdGat, firstKey(args[min(len(args), 1):]))
		return false, h.doGat(args, len(cmd) == 4)
	case "set", "add", "replace", "cas", "append", "prepend":
		// Malformed, or parseStorageLine would have claimed it: no data
		// block was waited for and none is read.
		code, _ := storageCmd(cmd)
		h.noteOp(code, firstKey(args))
		return false, h.replyError(respBadFormat)
	case "incr", "decr":
		if cmd[0] == 'i' {
			h.noteOp(cmdIncr, firstKey(args))
		} else {
			h.noteOp(cmdDecr, firstKey(args))
		}
		return false, h.doIncrDecr(args, cmd[0] == 'i')
	case "delete":
		h.noteOp(cmdDelete, firstKey(args))
		return false, h.doDelete(args)
	case "touch":
		h.noteOp(cmdTouch, firstKey(args))
		return false, h.doTouch(args)
	case "flush_all":
		h.noteOp(cmdFlushAll, nil)
		return false, h.doFlushAll(args)
	case "verbosity":
		h.noteOp(cmdOther, nil)
		return false, h.doVerbosity(args)
	case "stats":
		h.noteOp(cmdStats, nil)
		return false, h.doStats(args)
	case "version":
		h.noteOp(cmdOther, nil)
		return false, h.reply("VERSION " + h.srv.cfg.Version)
	case "quit":
		h.noteOp(cmdOther, nil)
		return true, nil
	default:
		h.noteOp(cmdOther, nil)
		return false, h.replyError(respError)
	}
}

// emitValue writes one VALUE line (+ data block) for a stored
// representation, decoding the flags/cas header. The header line is
// assembled in the handler's hdr scratch and the data region is
// appended straight to the reply buffer — a hit serializes with zero
// allocation. ok is false when the header failed to decode: the
// SERVER_ERROR line has already been sent and the caller must abort the
// retrieval (no further VALUEs, no END) — interleaving an error line
// between VALUE blocks would be unframeable.
func (h *connHandler) emitValue(key []byte, stored []byte, withCAS bool) (ok bool, err error) {
	flags, cas, data, derr := decodeValue(stored)
	if derr != nil {
		return false, h.replyError("SERVER_ERROR " + derr.Error())
	}
	hdr := append(h.hdr[:0], "VALUE "...)
	hdr = append(hdr, key...)
	hdr = append(hdr, ' ')
	hdr = strconv.AppendUint(hdr, uint64(flags), 10)
	hdr = append(hdr, ' ')
	hdr = strconv.AppendUint(hdr, uint64(len(data)), 10)
	if withCAS {
		hdr = append(hdr, ' ')
		hdr = strconv.AppendUint(hdr, cas, 10)
	}
	hdr = append(hdr, crlf...)
	h.hdr = hdr
	if err := h.ev.writeFull(hdr); err != nil {
		return false, err
	}
	if err := h.ev.writeFull(data); err != nil {
		return false, err
	}
	return true, h.ev.writeString(crlf)
}

func (h *connHandler) doGet(keys [][]byte, withCAS bool) error {
	if len(keys) == 0 {
		return h.replyError(respBadFormat)
	}
	for _, key := range keys {
		if !validKeyB(key) {
			return h.replyError(respBadFormat)
		}
		stored, hit, err := h.srv.store.GetIntoAt(h.sess, key, h.val[:0], h.now)
		if cap(stored) > cap(h.val) {
			h.val = stored // keep the grown scratch for the next hit
		}
		if err != nil {
			return h.replyError("SERVER_ERROR " + err.Error())
		}
		if !hit {
			continue // miss: omitted from the response
		}
		ok, err := h.emitValue(key, stored, withCAS)
		if err != nil || !ok {
			return err
		}
	}
	return h.reply(respEnd)
}

// doGat is get-and-touch: retrieval that also moves each hit key's expiry
// deadline, as one critical section per key.
func (h *connHandler) doGat(args [][]byte, withCAS bool) error {
	exptime, keys, perr := parseGatB(args)
	if perr != nil {
		return h.replyError(respBadFormat)
	}
	deadline := deadlineFor(exptime, h.now)
	for _, key := range keys {
		stored, hit, err := h.srv.store.GetAndTouchInto(h.sess, key, deadline, h.val[:0], h.now)
		if cap(stored) > cap(h.val) {
			h.val = stored
		}
		if err != nil {
			return h.replyError("SERVER_ERROR " + err.Error())
		}
		if !hit {
			continue
		}
		ok, err := h.emitValue(key, stored, withCAS)
		if err != nil || !ok {
			return err
		}
	}
	return h.reply(respEnd)
}

// doStore runs the storage command op with the arguments the engine
// parsed off its line (parseStorageLine), once the whole data block is
// buffered. An oversized value never gets here: the engine turns it into
// the discard framing state instead.
func (h *connHandler) doStore(op cmdCode, sa storageArgsB) error {
	data, ok, err := h.ev.readBody(sa.nbytes)
	if err != nil {
		return err
	}
	if !ok {
		// The data block wasn't CRLF-terminated: the stream is desynced.
		// Report and have the framing layer drop input through the next
		// newline, memcached-style. It discards rather than buffers — the
		// desynced remainder is client-controlled and may be huge — and a
		// client that goes quiet here gets the error flushed before the
		// transport waits for more.
		h.ev.pc.resync = true
		return h.replyError(respBadChunk)
	}
	resp, errLine, err := h.executeStore(op, sa, data)
	if err != nil {
		if sa.noreply {
			h.srv.protocolErrors.Add(1)
			return nil
		}
		// A value that cannot fit under the memory ceiling at all is
		// its own canonical line, whatever the command.
		if errors.Is(err, kv.ErrTooLarge) {
			return h.replyError(respTooLarge)
		}
		// Plain stores fail on allocation (memcached's canonical line);
		// an RMW failure may equally be a read fault mid-Apply, so
		// surface the real error there.
		if op == cmdSet || op == cmdAdd || op == cmdReplace {
			return h.replyError(respOutOfMemory)
		}
		return h.replyError("SERVER_ERROR " + err.Error())
	}
	if sa.noreply {
		if errLine {
			h.srv.protocolErrors.Add(1)
		}
		return nil
	}
	if errLine {
		return h.replyError(resp)
	}
	return h.reply(resp)
}

// executeStore runs a parsed storage command against the store and
// returns the response line; errLine marks an in-band error reply
// (oversized concatenation, header decode failure) that must be counted
// in protocol_errors. Every variant consumes a fresh cas unique: any
// successful store makes previously handed-out uniques stale, which is
// exactly the cas contract.
//
// Write-back values are encoded into the connection's val2 scratch (the
// RMW old value lives in val), so the whole family — plain stores, cas,
// append/prepend — stores without allocating.
func (h *connHandler) executeStore(op cmdCode, sa storageArgsB, data []byte) (resp string, errLine bool, err error) {
	newCas := h.srv.casCounter.Add(1)
	deadline := deadlineFor(sa.exptime, h.now)
	switch op {
	case cmdSet, cmdAdd, cmdReplace:
		mode := kv.SetAlways
		switch op {
		case cmdAdd:
			mode = kv.SetAdd
		case cmdReplace:
			mode = kv.SetReplace
		}
		h.val2 = appendValue(h.val2[:0], sa.flags, newCas, data)
		stored, serr := h.srv.store.SetExBytesAt(h.sess, sa.key, h.val2, mode, deadline, h.now)
		if serr != nil {
			return "", false, serr
		}
		if stored {
			return respStored, false, nil
		}
		return respNotStored, false, nil
	case cmdCas:
		// Compare the stored unique and swap under the shard lock: the
		// read, the comparison, and the write-back are one critical
		// section, so exactly one of N racing cas commands with the same
		// unique can win.
		resp = respStored
		h.val, err = h.srv.store.ApplyInto(h.sess, sa.key, h.val, h.now, func(old []byte, found bool) kv.ApplyOp {
			if !found {
				resp = respNotFound
				return kv.ApplyOp{Stat: kv.StatCasMiss}
			}
			_, oldCas, _, derr := decodeValue(old)
			if derr != nil {
				resp, errLine = "SERVER_ERROR "+derr.Error(), true
				return kv.ApplyOp{}
			}
			if oldCas != sa.casUnique {
				resp = respExists
				return kv.ApplyOp{Stat: kv.StatCasBadval}
			}
			h.val2 = appendValue(h.val2[:0], sa.flags, newCas, data)
			return kv.ApplyOp{
				Verdict: kv.ApplyStore,
				Value:   h.val2,
				Expire:  deadline,
				Stat:    kv.StatCasHit,
			}
		})
		return resp, errLine, err
	case cmdAppend, cmdPrepend:
		// Concatenation keeps the original flags and TTL (memcached
		// ignores the flags/exptime arguments of append/prepend) but
		// issues a new cas unique.
		resp = respStored
		h.val, err = h.srv.store.ApplyInto(h.sess, sa.key, h.val, h.now, func(old []byte, found bool) kv.ApplyOp {
			if !found {
				resp = respNotStored
				return kv.ApplyOp{}
			}
			oldFlags, _, oldData, derr := decodeValue(old)
			if derr != nil {
				resp, errLine = "SERVER_ERROR "+derr.Error(), true
				return kv.ApplyOp{}
			}
			// The merged body must respect the item size cap too: each
			// append individually fitting must not let an item grow
			// without bound (memcached rejects the concatenation the
			// same way).
			if len(oldData)+len(data) > h.srv.cfg.MaxValueSize {
				resp, errLine = respTooLarge, true
				return kv.ApplyOp{}
			}
			h.val2 = appendValue(h.val2[:0], oldFlags, newCas, nil)
			if op == cmdAppend {
				h.val2 = append(append(h.val2, oldData...), data...)
			} else {
				h.val2 = append(append(h.val2, data...), oldData...)
			}
			return kv.ApplyOp{
				Verdict:    kv.ApplyStore,
				Value:      h.val2,
				KeepExpire: true,
			}
		})
		return resp, errLine, err
	}
	return "", false, fmt.Errorf("server: unreachable storage command %q", cmdNames[op])
}

// doIncrDecr implements incr/decr: 64-bit unsigned arithmetic on the
// decimal value, read-modify-write as one critical section. incr wraps at
// 2^64; decr clamps at 0 (memcached's underflow rule). The new value
// keeps the item's flags and TTL but gets a fresh cas unique. The result
// digits are formatted once into the hdr scratch and serve as both the
// write-back body and the reply — no allocation on a hit. With
// SpacePaddedDecr, a shrinking decr result is stored right-padded with
// spaces to the old value's length (memcached's classic in-place-update
// artifact, visible to a subsequent get) while the reply stays the bare
// number, exactly like memcached's out_string path.
func (h *connHandler) doIncrDecr(args [][]byte, incr bool) error {
	key, delta, noreply, perr := parseIncrDecrB(args)
	if perr == errBadDelta {
		if noreply {
			h.srv.protocolErrors.Add(1)
			return nil
		}
		return h.replyError(respBadDelta)
	}
	if perr != nil {
		return h.replyError(respBadFormat)
	}
	newCas := h.srv.casCounter.Add(1)
	hitStat, missStat := kv.StatIncrHit, kv.StatIncrMiss
	if !incr {
		hitStat, missStat = kv.StatDecrHit, kv.StatDecrMiss
	}
	var errResp string // in-band error line ("" = h.hdr carries the reply)
	found := true
	var err error
	h.val, err = h.srv.store.ApplyInto(h.sess, key, h.val, h.now, func(old []byte, ok bool) kv.ApplyOp {
		if !ok {
			found = false
			return kv.ApplyOp{Stat: missStat}
		}
		flags, _, data, derr := decodeValue(old)
		if derr != nil {
			errResp = "SERVER_ERROR " + derr.Error()
			return kv.ApplyOp{}
		}
		val, numeric := parseNumericValueB(data)
		if !numeric {
			errResp = respNonNumeric
			return kv.ApplyOp{}
		}
		var next uint64
		if incr {
			next = val + delta // wraps modulo 2^64, like memcached
		} else if delta > val {
			next = 0 // underflow clamps
		} else {
			next = val - delta
		}
		h.hdr = strconv.AppendUint(h.hdr[:0], next, 10)
		h.val2 = appendValue(h.val2[:0], flags, newCas, h.hdr)
		if !incr && h.srv.cfg.SpacePaddedDecr {
			// memcached-classic: the stored value keeps the old length,
			// right-padded with spaces (the in-place-update artifact a
			// subsequent get exposes); the reply is the bare number.
			for len(h.val2)-valueHeaderLen < len(data) {
				h.val2 = append(h.val2, ' ')
			}
		}
		return kv.ApplyOp{
			Verdict:    kv.ApplyStore,
			Value:      h.val2,
			KeepExpire: true,
			Stat:       hitStat,
		}
	})
	if err != nil {
		// An Apply failure here is a read or write-back fault, not
		// necessarily memory pressure: surface the real error.
		if noreply {
			h.srv.protocolErrors.Add(1)
			return nil
		}
		return h.replyError("SERVER_ERROR " + err.Error())
	}
	if noreply {
		if errResp != "" {
			h.srv.protocolErrors.Add(1)
		}
		return nil
	}
	if errResp != "" {
		return h.replyError(errResp)
	}
	if !found {
		return h.reply(respNotFound)
	}
	if werr := h.ev.writeFull(h.hdr); werr != nil {
		return werr
	}
	return h.ev.writeString(crlf)
}

// doTouch updates a key's expiry deadline without touching its value.
func (h *connHandler) doTouch(args [][]byte) error {
	key, exptime, noreply, perr := parseTouchB(args)
	if perr != nil {
		return h.replyError(respBadFormat)
	}
	deadline := deadlineFor(exptime, h.now)
	found, err := h.srv.store.TouchBytes(h.sess, key, deadline, h.now)
	if err != nil {
		return h.replyError("SERVER_ERROR " + err.Error())
	}
	if noreply {
		return nil
	}
	if found {
		return h.reply(respTouched)
	}
	return h.reply(respNotFound)
}

func (h *connHandler) doDelete(args [][]byte) error {
	key, noreply, perr := parseDeleteB(args)
	if perr != nil {
		return h.replyError(respBadFormat)
	}
	existed, err := h.srv.store.DelBytes(h.sess, key, h.now)
	if err != nil {
		return h.replyError("SERVER_ERROR " + err.Error())
	}
	if noreply {
		return nil
	}
	if existed {
		return h.reply(respDeleted)
	}
	return h.reply(respNotFound)
}

// doFlushAll implements `flush_all [delay] [noreply]`: a store-wide
// expiry epoch. Every value stored before now+delay is dead once the
// clock reaches that moment, honored by the same lazy-expiry paths as
// per-entry TTLs (plus one reclamation sweep by Maintain after the epoch
// passes), so the command is O(1) regardless of item count.
func (h *connHandler) doFlushAll(args [][]byte) error {
	delay, noreply, perr := parseFlushAllB(args)
	if perr != nil {
		return h.replyError(respBadFormat)
	}
	at := h.now
	if delay > 0 {
		// The delay follows the exptime rules: relative seconds up to 30
		// days, an absolute unix timestamp beyond.
		at = deadlineFor(delay, h.now)
	}
	h.srv.store.FlushAll(at)
	h.srv.cmdFlush.Add(1)
	if noreply {
		return nil
	}
	return h.reply(respOK)
}

// doVerbosity implements `verbosity <level> [noreply]`, wired to the
// server's leveled logger: 0 = errors only, 1 = info, 2+ = per-connection
// debug. With no logger configured the level is parsed for conformance
// and dropped, which is how most memcached deployments treat the
// command anyway.
func (h *connHandler) doVerbosity(args [][]byte) error {
	level, noreply, perr := parseVerbosityB(args)
	if perr != nil {
		return h.replyError(respBadFormat)
	}
	switch {
	case level == 0:
		h.srv.cfg.Logger.SetLevel(logx.LevelError)
	case level == 1:
		h.srv.cfg.Logger.SetLevel(logx.LevelInfo)
	default:
		h.srv.cfg.Logger.SetLevel(logx.LevelDebug)
	}
	if noreply {
		return nil
	}
	return h.reply(respOK)
}

// statLine is one `STAT name value` row.
type statLine struct {
	name  string
	value string
}

// StatsSnapshot assembles the server's full stats view: store counters,
// memory metrics, connection counts, command latency percentiles, and —
// on Anchorage — the defragmentation counters that show the heap being
// compacted under traffic.
func (s *Server) StatsSnapshot() []struct{ Name, Value string } {
	lines := s.statLines()
	out := make([]struct{ Name, Value string }, len(lines))
	for i, l := range lines {
		out[i] = struct{ Name, Value string }{l.name, l.value}
	}
	return out
}

func (s *Server) statLines() []statLine {
	s.foldLatency()
	snap := s.store.Snapshot()
	uptime := time.Since(s.start)
	parked, active, queued := s.pollerGauges()
	lines := []statLine{
		{"version", s.cfg.Version},
		{"backend", s.store.Backend().Name()},
		{"uptime_s", fmt.Sprintf("%.1f", uptime.Seconds())},
		{"curr_connections", fmt.Sprintf("%d", s.currConns.Load())},
		{"total_connections", fmt.Sprintf("%d", s.totalConns.Load())},
		{"max_connections", fmt.Sprintf("%d", s.cfg.MaxConns)},
		{"listen_disabled_num", fmt.Sprintf("%d", s.listenDisabled.Load())},
		{"accept_errors", fmt.Sprintf("%d", s.acceptErrors.Load())},
		{"idle_kicks", fmt.Sprintf("%d", s.idleKicks.Load())},
		{"slow_client_kicks", fmt.Sprintf("%d", s.slowKicks.Load())},
		{"conn_model", s.ConnModel()},
		{"conns_parked", fmt.Sprintf("%d", parked)},
		{"conns_active", fmt.Sprintf("%d", active)},
		{"worker_queue_depth", fmt.Sprintf("%d", queued)},
		{"cmd_flush", fmt.Sprintf("%d", s.cmdFlush.Load())},
		{"cmd_get", fmt.Sprintf("%d", snap.Gets)},
		{"cmd_set", fmt.Sprintf("%d", snap.Sets)},
		{"get_hits", fmt.Sprintf("%d", snap.Hits)},
		{"get_misses", fmt.Sprintf("%d", snap.Misses)},
		{"delete_hits", fmt.Sprintf("%d", snap.DeleteHits)},
		{"delete_misses", fmt.Sprintf("%d", snap.DeleteMisses)},
		{"cas_hits", fmt.Sprintf("%d", snap.CasHits)},
		{"cas_badval", fmt.Sprintf("%d", snap.CasBadval)},
		{"cas_misses", fmt.Sprintf("%d", snap.CasMisses)},
		{"incr_hits", fmt.Sprintf("%d", snap.IncrHits)},
		{"incr_misses", fmt.Sprintf("%d", snap.IncrMisses)},
		{"decr_hits", fmt.Sprintf("%d", snap.DecrHits)},
		{"decr_misses", fmt.Sprintf("%d", snap.DecrMisses)},
		{"touch_hits", fmt.Sprintf("%d", snap.TouchHits)},
		{"touch_misses", fmt.Sprintf("%d", snap.TouchMisses)},
		{"expired", fmt.Sprintf("%d", snap.Expired)},
		{"expiry_sweeps", fmt.Sprintf("%d", snap.ExpirySweeps)},
		{"evictions", fmt.Sprintf("%d", snap.Evictions)},
		{"reclaimed", fmt.Sprintf("%d", snap.Reclaimed)},
		{"evicted_unfetched", fmt.Sprintf("%d", snap.EvictedUnfetched)},
		{"curr_items", fmt.Sprintf("%d", snap.Keys)},
		// bytes is memcached's charged item total (value + key + per-item
		// overhead) — what limit_maxbytes caps; used_bytes is the
		// allocator-level live-byte count underneath it.
		{"bytes", fmt.Sprintf("%d", snap.Bytes)},
		{"limit_maxbytes", fmt.Sprintf("%d", snap.LimitMaxbytes)},
		{"used_bytes", fmt.Sprintf("%d", snap.Used)},
		{"rss_bytes", fmt.Sprintf("%d", snap.RSS)},
		{"protocol_errors", fmt.Sprintf("%d", s.protocolErrors.Load())},
		{"bytes_read", fmt.Sprintf("%d", s.bytesRead.Load())},
		{"bytes_written", fmt.Sprintf("%d", s.bytesWritten.Load())},
		{"slow_ops", fmt.Sprintf("%d", s.slowOpTotal())},
		{"latency_mean_us", fmt.Sprintf("%.1f", float64(s.lat.Mean().Nanoseconds())/1e3)},
		{"latency_p50_us", fmt.Sprintf("%.1f", float64(s.lat.Percentile(50).Nanoseconds())/1e3)},
		{"latency_p99_us", fmt.Sprintf("%.1f", float64(s.lat.Percentile(99).Nanoseconds())/1e3)},
		{"latency_p999_us", fmt.Sprintf("%.1f", float64(s.lat.Percentile(99.9).Nanoseconds())/1e3)},
	}
	if snap.Used > 0 {
		lines = append(lines, statLine{"fragmentation", fmt.Sprintf("%.3f", float64(snap.RSS)/float64(snap.Used))})
	}
	if s.anch != nil {
		m := s.anch.Svc.MetricsSnapshot()
		lines = append(lines,
			statLine{"defrag_concurrent_passes", fmt.Sprintf("%d", m.ConcurrentPasses)},
			statLine{"defrag_barrier_passes", fmt.Sprintf("%d", m.Passes)},
			statLine{"defrag_moved_bytes", fmt.Sprintf("%d", m.MovedBytes)},
			statLine{"defrag_move_aborts", fmt.Sprintf("%d", m.MoveAborts)},
			statLine{"defrag_truncated_bytes", fmt.Sprintf("%d", m.Truncated)},
			statLine{"defrag_deferred_blocks", fmt.Sprintf("%d", m.DeferredBlocks)},
			statLine{"defrag_pass_p99_us", fmt.Sprintf("%.1f", float64(s.passLat.Percentile(99).Nanoseconds())/1e3)},
			statLine{"heap_fragmentation", fmt.Sprintf("%.3f", s.anch.Svc.Fragmentation())},
		)
	}
	if w := s.cfg.WAL; w != nil {
		ws := w.Stats()
		lines = append(lines,
			statLine{"wal_appended_records", fmt.Sprintf("%d", ws.AppendedRecords)},
			statLine{"wal_appended_bytes", fmt.Sprintf("%d", ws.AppendedBytes)},
			statLine{"wal_dropped_records", fmt.Sprintf("%d", ws.DroppedRecords)},
			statLine{"wal_state", ws.State},
			statLine{"wal_dropped_degraded", fmt.Sprintf("%d", ws.DroppedDegraded)},
			statLine{"wal_degraded_entries", fmt.Sprintf("%d", ws.DegradedEntries)},
			statLine{"wal_recoveries", fmt.Sprintf("%d", ws.Recoveries)},
			statLine{"wal_fsyncs", fmt.Sprintf("%d", ws.Fsyncs)},
			statLine{"wal_fsync_p99_us", fmt.Sprintf("%.1f", float64(w.FsyncLatency().Percentile(99).Nanoseconds())/1e3)},
			statLine{"wal_io_errors", fmt.Sprintf("%d", ws.IOErrors)},
			statLine{"wal_disk_bytes", fmt.Sprintf("%d", ws.DiskBytes)},
			statLine{"wal_segments", fmt.Sprintf("%d", ws.Segments)},
			statLine{"wal_rotations", fmt.Sprintf("%d", ws.Rotations)},
			statLine{"wal_compactions", fmt.Sprintf("%d", ws.Compactions)},
			statLine{"wal_snapshot_records", fmt.Sprintf("%d", ws.SnapshotRecords)},
			statLine{"wal_replay_records", fmt.Sprintf("%d", ws.Replay.Records)},
			statLine{"wal_replay_bytes", fmt.Sprintf("%d", ws.Replay.Bytes)},
			statLine{"wal_replay_skipped_dead", fmt.Sprintf("%d", ws.Replay.SkippedDead)},
			statLine{"wal_replay_torn_records", fmt.Sprintf("%d", ws.Replay.TornRecords)},
			statLine{"wal_replay_crc_errors", fmt.Sprintf("%d", ws.Replay.CrcErrors)},
			statLine{"wal_audit_runs", fmt.Sprintf("%d", ws.AuditRuns)},
			statLine{"wal_audit_records", fmt.Sprintf("%d", ws.AuditRecords)},
			statLine{"wal_audit_errors", fmt.Sprintf("%d", ws.AuditErrors)},
		)
	}
	return lines
}

// ResetStats implements `stats reset`: the statistics counters — op
// counts, hit/miss tallies, byte totals, latency histograms — go back
// to zero, while state gauges (live connections, items, memory, the
// ceiling) and protocol invariants (the cas unique counter, connection
// ids) are untouched, memcached's split exactly.
func (s *Server) ResetStats() {
	s.store.ResetStats()
	s.totalConns.Store(0)
	s.protocolErrors.Store(0)
	s.listenDisabled.Store(0)
	s.acceptErrors.Store(0)
	s.idleKicks.Store(0)
	s.slowKicks.Store(0)
	s.cmdFlush.Store(0)
	s.bytesRead.Store(0)
	s.bytesWritten.Store(0)
	// Fold first, or observations still in a stripe from before the reset
	// would reappear after it.
	s.foldMu.Lock()
	s.foldLatencyLocked()
	s.lat.Reset()
	for _, r := range s.perOp {
		r.Reset()
	}
	s.foldMu.Unlock()
	s.passLat.Reset()
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
// covers, see recordOp. The benchmark ledger and tests read histograms
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

func (h *connHandler) doStats(args [][]byte) error {
	if len(args) > 0 {
		if len(args) == 1 {
			switch string(args[0]) {
			case "items":
				return h.doStatsItems()
			case "reset":
				h.srv.ResetStats()
				return h.reply(respReset)
			case "slow":
				return h.doStatsSlow()
			}
		}
		// Unknown stats sub-command: memcached answers ERROR.
		return h.replyError(respError)
	}
	for _, l := range h.srv.statLines() {
		if err := h.reply("STAT " + l.name + " " + l.value); err != nil {
			return err
		}
	}
	return h.reply(respEnd)
}

// doStatsSlow renders the slow-op ring, newest first: one row set per
// captured op with its command, key prefix, latency, connection id,
// and age. The reporting path allocates freely — only recording is on
// the hot path.
func (h *connHandler) doStatsSlow() error {
	for i, op := range h.srv.SlowOps() {
		p := fmt.Sprintf("STAT slow:%d:", i)
		lines := []string{
			p + "cmd " + op.Cmd,
			p + "key " + op.Key,
			fmt.Sprintf("%slatency_us %.1f", p, float64(op.Latency.Nanoseconds())/1e3),
			fmt.Sprintf("%sconn %d", p, op.ConnID),
			fmt.Sprintf("%sage_s %.1f", p, h.now.Sub(op.When).Seconds()),
		}
		for _, l := range lines {
			if err := h.reply(l); err != nil {
				return err
			}
		}
	}
	return h.reply(respEnd)
}

// doStatsItems emits `stats items`-style per-shard accounting: one row
// set per shard (the closest analogue of memcached's per-slab-class
// item stats), covering live counts, charged bytes, LRU-tail age, and
// the pressure counters.
func (h *connHandler) doStatsItems() error {
	for i, row := range h.srv.store.ItemsSnapshot() {
		p := fmt.Sprintf("STAT items:%d:", i)
		lines := []string{
			fmt.Sprintf("%snumber %d", p, row.Number),
			fmt.Sprintf("%sbytes %d", p, row.Bytes),
			fmt.Sprintf("%sage %.0f", p, row.AgeSeconds),
			fmt.Sprintf("%snumber_with_ttl %d", p, row.NumberWithTTL),
			fmt.Sprintf("%snumber_fetched %d", p, row.NumberFetched),
			fmt.Sprintf("%sevicted %d", p, row.Evictions),
			fmt.Sprintf("%sevicted_unfetched %d", p, row.EvictedUnfetched),
			fmt.Sprintf("%sreclaimed %d", p, row.Reclaimed),
			fmt.Sprintf("%sexpired %d", p, row.Expired),
		}
		for _, l := range lines {
			if err := h.reply(l); err != nil {
				return err
			}
		}
	}
	return h.reply(respEnd)
}
