// Command alaskad is a network-facing memcached-protocol server on the
// Alaska heap: the paper's "production-scale system serving heavy
// traffic" claim made concrete. It speaks the full memcached ASCII
// storage surface (get/gets/gat/gats, set/add/replace/cas/append/
// prepend, incr/decr, delete/touch, stats/version/quit) with enforced
// TTLs over TCP, serves every value out of a pluggable heap backend,
// and — on the Anchorage backend — defragments the heap under live
// traffic: the §4.3 controller decides when and how much, and every pass
// it runs is the §7 pause-free concurrent one. -defrag-frag-high is the
// controller's F_ub and -defrag-budget its per-pass cap.
//
// Usage:
//
//	alaskad -addr :11211 -backend anchorage
//	alaskad -backend malloc -shards 32 -max-memory 256MiB
//
// Drive it with alaska-loadgen, or telnet and type memcached commands.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/fault"
	"alaska/internal/health"
	"alaska/internal/kv"
	"alaska/internal/logx"
	"alaska/internal/rlimit"
	"alaska/internal/rt"
	"alaska/internal/server"
	"alaska/internal/wal"
)

const version = "0.3.0-alaska"

// parseBytes accepts "1048576", "1MiB", "256KiB", "2GiB".
func parseBytes(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	mult := uint64(1)
	for suffix, m := range map[string]uint64{"KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30} {
		if strings.HasSuffix(s, suffix) {
			mult = m
			s = strings.TrimSuffix(s, suffix)
			break
		}
	}
	v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, err
	}
	return v * mult, nil
}

func main() {
	addr := flag.String("addr", ":11211", "TCP listen address")
	adminAddr := flag.String("admin-addr", "", "admin HTTP listen address serving /metrics, /healthz, /readyz, /debug/pprof, /debug/vars, /debug/slowops; empty = disabled")
	backendName := flag.String("backend", "anchorage", "heap backend: malloc|mesh|anchorage")
	shards := flag.Int("shards", 32, "store shard count")
	maxMemory := flag.String("max-memory", "0", "total value-memory cap with LRU eviction (bytes, KiB/MiB/GiB suffixes; 0 = unlimited)")
	maxValue := flag.String("max-value-size", "1MiB", "largest accepted value")
	maxConns := flag.Int("max-conns", 0, "max concurrent connections (memcached -c): at the cap the accept loop pauses until a disconnect; 0 = unlimited")
	idleTimeout := flag.Duration("idle-timeout", 0, "reap connections with no completed command for this long; 0 = never")
	writeTimeout := flag.Duration("write-timeout", 5*time.Second, "deadline per socket write; a client that stops reading its responses is disconnected; 0 = none")
	replyBacklog := flag.String("max-reply-backlog", "64MiB", "reply bytes buffered for a non-reading client before disconnect")
	padDecr := flag.Bool("space-padded-decr", false, "memcached-classic decr compatibility: right-pad shrinking decr results with spaces to the old value length")
	maintain := flag.Duration("maintain-interval", 50*time.Millisecond, "background maintenance tick")
	fragHigh := flag.Float64("defrag-frag-high", 1.3, "F_ub of the defrag controller: past this fragmentation (extent/live) it runs pause-free passes until under F_lb (anchorage)")
	budget := flag.String("defrag-budget", "1MiB", "most bytes one pause-free defrag pass moves")
	seed := flag.Int64("seed", 1, "seed for the mesh backend's probe randomness")
	persist := flag.Bool("persist", false, "enable the append-only pack log: every mutation is batch-appended to -data-dir and replayed at boot for a warm restart")
	dataDir := flag.String("data-dir", "", "pack-log directory (required with -persist)")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "pack-log batch/fsync window: a hard kill loses at most this much acknowledged traffic")
	faultScript := flag.String("fault-script", "", "DEV ONLY: inject scripted pack-log I/O faults, e.g. \"sync:after=40:times=6:err=eio\" (requires -persist; see internal/fault)")
	slowOp := flag.Duration("slow-op-threshold", 10*time.Millisecond, "record commands slower than this in the slow-op ring (stats slow, /debug/slowops); negative = disabled")
	connModel := flag.String("conn-model", "auto", "connection architecture: auto|event|goroutine (auto = epoll readiness poller on Linux, goroutine-per-connection elsewhere)")
	workers := flag.Int("conn-workers", 0, "event-model worker pool size; 0 = 2 x GOMAXPROCS")
	verbose := flag.Int("verbose", 0, "log verbosity: 0 errors, 1 lifecycle, 2+ per-connection churn (the wire `verbosity` command changes it at runtime)")
	flag.Parse()

	logLevel := logx.LevelError
	switch {
	case *verbose == 1:
		logLevel = logx.LevelInfo
	case *verbose >= 2:
		logLevel = logx.LevelDebug
	}
	logger := logx.New(os.Stderr, "alaskad: ", logLevel)
	fatalf := func(format string, args ...any) {
		logger.Errorf(format, args...)
		os.Exit(1)
	}

	maxMem, err := parseBytes(*maxMemory)
	if err != nil {
		fatalf("bad -max-memory: %v", err)
	}
	maxVal, err := parseBytes(*maxValue)
	if err != nil {
		fatalf("bad -max-value-size: %v", err)
	}
	defragBudget, err := parseBytes(*budget)
	if err != nil {
		fatalf("bad -defrag-budget: %v", err)
	}
	maxBacklog, err := parseBytes(*replyBacklog)
	if err != nil {
		fatalf("bad -max-reply-backlog: %v", err)
	}
	if *shards < 1 {
		fatalf("-shards must be >= 1")
	}
	if maxMem > 0 && maxMem < maxVal {
		fatalf("-max-memory (%s) must be at least -max-value-size (%s): a cache that cannot hold its largest value rejects every store of that size", *maxMemory, *maxValue)
	}
	if *faultScript != "" && !*persist {
		fatalf("-fault-script injects pack-log I/O faults and requires -persist")
	}

	var backend kv.Backend
	switch *backendName {
	case "malloc":
		backend = kv.NewMallocBackend()
	case "mesh":
		backend = kv.NewMeshBackend(*seed)
	case "anchorage":
		// CountedPins makes every connection's pins visible to the
		// pause-free mover — the §7 requirement for running
		// ConcurrentDefragPass concurrently with writing clients.
		ab, err := kv.NewAnchorageBackend(anchorage.DefaultConfig(), rt.WithPinMode(rt.CountedPins))
		if err != nil {
			fatalf("anchorage backend: %v", err)
		}
		backend = ab
	default:
		fatalf("unknown -backend %q (want malloc|mesh|anchorage)", *backendName)
	}

	// The ceiling is store-wide, memcached -m style: the shards share one
	// budget, so hot shards can use room cold shards don't need (the old
	// per-shard maxMem/shards split also truncated to 0 when the cap was
	// smaller than the shard count).
	store := kv.NewShardedStore(backend, *shards, maxMem)

	// Readiness: the registry tracks boot (booting → replaying → ok) and
	// then follows the subsystem checks the server registers (WAL state,
	// accept-gate saturation). Served as /readyz on the admin plane.
	healthReg := health.New()

	// Persistence: open the pack log, replay it into the store (warm
	// restart), then start the writer and attach the mutation hooks —
	// strictly in that order, so replay itself is never re-logged.
	var wlog *wal.Log
	if *persist || *dataDir != "" {
		if !*persist || *dataDir == "" {
			fatalf("-persist and -data-dir must be used together")
		}
		wopt := wal.Options{
			Dir:           *dataDir,
			FsyncInterval: *fsyncInterval,
			Logger:        logger,
		}
		if *faultScript != "" {
			rules, err := fault.ParseScript(*faultScript)
			if err != nil {
				fatalf("bad -fault-script: %v", err)
			}
			wopt.FS = fault.NewScriptFS(nil, rules...)
			fmt.Fprintf(os.Stderr, "alaskad: WARNING: -fault-script is armed (%s) — pack-log I/O WILL fail on schedule; chaos/dev use only\n", *faultScript)
		}
		var err error
		wlog, err = wal.Open(wopt)
		if err != nil {
			fatalf("wal open: %v", err)
		}
		healthReg.StartReplay()
		rsess := store.NewSession()
		replayStart := time.Now()
		rs, err := wlog.Replay(store, rsess)
		_ = rsess.Close()
		if err != nil {
			fatalf("wal replay: %v", err)
		}
		if err := wlog.Start(store); err != nil {
			fatalf("wal start: %v", err)
		}
		store.SetMutationLog(wlog)
		fmt.Fprintf(os.Stderr, "alaskad: warm restart: replayed %d records (%d sets, %d deletes, %d live items) from %s in %v; torn=%d crc_errors=%d\n",
			rs.Records, rs.Sets, rs.Deletes, store.Len(), *dataDir, time.Since(replayStart).Round(time.Millisecond), rs.TornRecords, rs.CrcErrors)
	}

	srv := server.New(store, server.Config{
		Addr:             *addr,
		MaxValueSize:     int(maxVal),
		MaintainInterval: *maintain,
		DefragFragHigh:   *fragHigh,
		DefragBudget:     defragBudget,
		Version:          version + "-" + *backendName,
		MaxConns:         *maxConns,
		IdleTimeout:      *idleTimeout,
		WriteTimeout:     *writeTimeout,
		MaxReplyBacklog:  int(maxBacklog),
		SpacePaddedDecr:  *padDecr,
		ConnModel:        *connModel,
		Workers:          *workers,
		SlowOpThreshold:  *slowOp,
		Logger:           logger,
		WAL:              wlog,
		Health:           healthReg,
	})
	// A server built to park 100k sockets should not die at a 1024-fd
	// default soft limit: lift NOFILE to the hard ceiling up front.
	if nofile, err := rlimit.RaiseNOFILE(); err != nil {
		logger.Errorf("could not raise RLIMIT_NOFILE (still %d fds): %v", nofile, err)
	} else if nofile > 0 {
		logger.Infof("RLIMIT_NOFILE soft limit now %d", nofile)
	}
	if err := srv.Listen(); err != nil {
		fatalf("listen: %v", err)
	}
	// The startup line goes to stderr unconditionally (not through the
	// leveled logger): scripted runs resolve ":0" addresses from it, and
	// it is the one-line proof the process came up.
	fmt.Fprintf(os.Stderr, "alaskad: serving memcached protocol on %s (backend=%s shards=%d max-memory=%s conn-model=%s)\n",
		srv.Addr(), backend.Name(), *shards, *maxMemory, srv.ConnModel())

	// The admin plane listens on its own socket so operators can firewall
	// it independently and scrape storms never occupy data-plane
	// connection slots.
	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fatalf("admin listen: %v", err)
		}
		fmt.Fprintf(os.Stderr, "alaskad: admin endpoint on http://%s (/metrics /healthz /readyz /debug/pprof /debug/vars /debug/slowops)\n", aln.Addr())
		// Owned by the server: Shutdown drains in-flight scrapes and
		// releases the port instead of leaking the listener.
		srv.AttachAdmin(aln)
	}

	// Boot is complete: listeners are up and replay (if any) finished.
	// /readyz now follows the live subsystem checks.
	healthReg.Ready()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Infof("received %v, draining connections", s)
		_ = srv.Shutdown(5 * time.Second)
	}()

	if err := srv.Serve(); err != nil {
		fatalf("serve: %v", err)
	}
	// Print a final stats block so a scripted run (CI smoke test) can
	// check the server's own view of the session.
	for _, l := range srv.StatsSnapshot() {
		fmt.Printf("STAT %s %s\n", l.Name, l.Value)
	}
}
