// Command alaskad serves the memcached ASCII protocol out of a pluggable
// heap backend; on Anchorage, the Alaska heap, the §4.3 controller's §7
// pause-free passes defragment it under live traffic. server.Boot
// assembles the server; main binds its flags, boots it and serves.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"alaska/internal/fault"
	"alaska/internal/logx"
	"alaska/internal/rlimit"
	"alaska/internal/server"
)

// parseBytes accepts "1048576", "1MiB", "256KiB", "2GiB", up to 2^64-1.
func parseBytes(in string) (uint64, error) {
	s, mult := strings.TrimSpace(in), uint64(1)
	for i, suffix := range []string{"KiB", "MiB", "GiB"} {
		if t, ok := strings.CutSuffix(s, suffix); ok {
			s, mult = t, 1<<(10*(i+1))
		}
	}
	v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err == nil && v > math.MaxUint64/mult {
		err = fmt.Errorf("%q overflows 64 bits", in)
	}
	if err != nil {
		return 0, err
	}
	return v * mult, nil
}

// bytesVar binds a byte-count flag (parseBytes syntax) to *p, whose value
// is its default, and rejects a count *p cannot hold.
func bytesVar[T int | uint64](fs *flag.FlagSet, p *T, name, usage string) {
	fs.Func(name, fmt.Sprintf("%s (default %d)", usage, *p), func(s string) error {
		v, err := parseBytes(s)
		if err == nil && (T(v) < 0 || uint64(T(v)) != v) {
			return fmt.Errorf("%d does not fit in %T", v, T(v))
		} else if err == nil {
			*p = T(v)
		}
		return err
	})
}

// parseFlags binds each flag to a field of server.Defaults(), whose value
// is the flag's default; persist, faultScript and verbose are main's own.
func parseFlags(fs *flag.FlagSet, args []string) (c server.BootConfig, persist bool, faultScript string, verbose int) {
	c = server.Defaults()
	fs.StringVar(&c.Addr, "addr", c.Addr, "TCP listen address")
	fs.StringVar(&c.AdminAddr, "admin-addr", c.AdminAddr, "admin HTTP listen address serving /metrics, /healthz, /readyz, /debug/pprof, /debug/vars, /debug/slowops; empty = disabled")
	fs.StringVar(&c.Backend, "backend", c.Backend, "heap backend: malloc|mesh|anchorage")
	fs.IntVar(&c.Shards, "shards", c.Shards, "store shard count")
	bytesVar(fs, &c.MaxMemory, "max-memory", "total value-memory cap with LRU eviction (bytes, KiB/MiB/GiB suffixes; 0 = unlimited)")
	bytesVar(fs, &c.MaxValueSize, "max-value-size", "largest accepted value")
	fs.IntVar(&c.MaxConns, "max-conns", c.MaxConns, "max concurrent connections (memcached -c): at the cap the accept loop pauses until a disconnect; 0 = unlimited")
	fs.DurationVar(&c.IdleTimeout, "idle-timeout", c.IdleTimeout, "reap connections with no completed command for this long; 0 = never")
	fs.DurationVar(&c.WriteTimeout, "write-timeout", c.WriteTimeout, "deadline per socket write; a client that stops reading its responses is disconnected; 0 = none")
	bytesVar(fs, &c.MaxReplyBacklog, "max-reply-backlog", "reply bytes buffered for a non-reading client before disconnect")
	fs.BoolVar(&c.SpacePaddedDecr, "space-padded-decr", c.SpacePaddedDecr, "memcached-classic decr compatibility: right-pad shrinking decr results with spaces to the old value length")
	fs.DurationVar(&c.MaintainInterval, "maintain-interval", c.MaintainInterval, "background maintenance tick")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "seed for the mesh backend's probe randomness")
	fs.BoolVar(&persist, "persist", false, "enable the append-only pack log: every mutation is batch-appended to -data-dir and replayed at boot for a warm restart")
	fs.StringVar(&c.PackLog.Dir, "data-dir", c.PackLog.Dir, "pack-log directory (required with -persist)")
	fs.DurationVar(&c.PackLog.FsyncInterval, "fsync-interval", c.PackLog.FsyncInterval, "pack-log fsync interval (writes do not wait for it): a hard kill loses at most this much acknowledged traffic")
	fs.StringVar(&faultScript, "fault-script", "", "DEV ONLY: inject scripted pack-log I/O faults, e.g. \"sync:after=40:times=6:err=eio\" (requires -persist; see internal/fault)")
	fs.DurationVar(&c.SlowOpThreshold, "slow-op-threshold", c.SlowOpThreshold, "record commands slower than this in the slow-op ring (stats slow, /debug/slowops); negative = disabled")
	fs.StringVar(&c.ConnModel, "conn-model", c.ConnModel, "connection architecture: auto|event|goroutine (auto = epoll readiness poller on Linux, goroutine-per-connection elsewhere)")
	fs.IntVar(&c.Workers, "conn-workers", c.Workers, "event-model worker pool size; 0 = 2 x GOMAXPROCS")
	fs.IntVar(&verbose, "verbose", 0, "log verbosity: 0 errors, 1 lifecycle, 2+ per-connection churn (the wire `verbosity` command changes it at runtime)")
	_ = fs.Parse(args) // ExitOnError exits; ContinueOnError leaves a bad flag's field as it was
	return c, persist, faultScript, verbose
}

// bootConfig is parseFlags's BootConfig with its logger, and with
// -persist and -fault-script applied to its pack log.
func bootConfig(fs *flag.FlagSet, args []string) (server.BootConfig, error) {
	c, persist, faultScript, verbose := parseFlags(fs, args)
	c.Logger = logx.New(os.Stderr, "alaskad: ", logx.Level(min(max(verbose, 0), int(logx.LevelDebug))))
	switch {
	case !persist && faultScript != "":
		return c, errors.New("-fault-script injects pack-log I/O faults and requires -persist")
	case persist != (c.PackLog.Dir != ""):
		return c, errors.New("-persist and -data-dir must be used together")
	case !persist:
		c.PackLog = nil
	case faultScript != "":
		rules, err := fault.ParseScript(faultScript)
		if err != nil {
			return c, fmt.Errorf("bad -fault-script: %v", err)
		}
		c.PackLog.FS = fault.NewScriptFS(nil, rules...)
		fmt.Fprintf(os.Stderr, "alaskad: WARNING: -fault-script is armed (%s) — pack-log I/O WILL fail on schedule; chaos/dev use only\n", faultScript)
	}
	return c, nil
}

func main() {
	c, err := bootConfig(flag.CommandLine, os.Args[1:])
	fatalf := func(format string, args ...any) {
		c.Logger.Errorf(format, args...)
		os.Exit(1)
	}
	if err != nil {
		fatalf("%v", err)
	}
	// Parking 100k sockets needs more than a 1024-fd soft limit.
	if nofile, err := rlimit.RaiseNOFILE(); err != nil {
		c.Logger.Errorf("could not raise RLIMIT_NOFILE (still %d fds): %v", nofile, err)
	} else if nofile > 0 {
		c.Logger.Infof("RLIMIT_NOFILE soft limit now %d", nofile)
	}
	srv, rs, err := server.Boot(c)
	if err != nil {
		fatalf("%v", err)
	}
	// Unconditional stderr, not the leveled logger: the smoke tests parse these.
	if c.PackLog != nil {
		fmt.Fprintf(os.Stderr, "alaskad: warm restart: replayed %d records (%d sets, %d deletes, %d live items) from %s in %v; torn=%d crc_errors=%d\n",
			rs.Records, rs.Sets, rs.Deletes, rs.Items, c.PackLog.Dir, rs.Elapsed.Round(time.Millisecond), rs.TornRecords, rs.CrcErrors)
	}
	fmt.Fprintf(os.Stderr, "alaskad: serving memcached protocol on %s (backend=%s shards=%d max-memory=%d conn-model=%s)\n",
		srv.Addr(), c.Backend, c.Shards, c.MaxMemory, srv.ConnModel())
	if addr := srv.AdminAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "alaskad: admin endpoint on http://%s (/metrics /healthz /readyz /debug/pprof /debug/vars /debug/slowops)\n", addr)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		c.Logger.Infof("received %v, draining connections", <-sig)
		_ = srv.Shutdown(5 * time.Second)
	}()
	if err := srv.Serve(); err != nil {
		fatalf("serve: %v", err)
	}
}
