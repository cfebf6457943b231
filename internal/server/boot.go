package server

import (
	"errors"
	"fmt"
	"net"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/health"
	"alaska/internal/kv"
	"alaska/internal/rt"
	"alaska/internal/wal"
)

// BootConfig is what Boot builds a server from: its Config plus the heap,
// store and pack log under it. alaskad binds a flag to each field.
type BootConfig struct {
	Config
	AdminAddr string       // admin plane (/metrics, /readyz, /debug/...); "" = none
	Backend   string       // "malloc", "mesh" or "anchorage"
	Seed      int64        // the mesh backend's probe randomness
	Shards    int          // store shard count
	MaxMemory uint64       // store-wide ceiling with LRU eviction; 0 = unlimited
	PackLog   *wal.Options // replayed into the store, then logs every mutation; nil = none
}

// Defaults is alaskad with no flags: Config's defaults (withDefaults, the
// one place they are declared) and alaskad's own. Its PackLog has no Dir:
// a caller sets one to persist, or sets PackLog to nil.
func Defaults() BootConfig {
	c := (&Config{Addr: ":11211", WriteTimeout: 5 * time.Second}).withDefaults()
	c.Clock = nil // nil: the engine's own monotonic clock
	return BootConfig{Config: c, Backend: "anchorage", Seed: 1, Shards: 32,
		PackLog: &wal.Options{FsyncInterval: wal.DefaultFsyncInterval}}
}

// Boot builds the backend and the store, replays and starts the pack log,
// listens on Addr and AdminAddr, and reports ready; the caller runs Serve.
// Boot owns c.WAL and c.Health and reports c.Version-c.Backend as the
// version. A failure after the pack log opens closes it.
func Boot(c BootConfig) (*Server, wal.ReplayStats, error) {
	var rs wal.ReplayStats
	if c.Shards < 1 {
		return nil, rs, errors.New("-shards must be >= 1")
	}
	if c.MaxMemory > 0 && c.MaxMemory < uint64(c.MaxValueSize) {
		return nil, rs, fmt.Errorf("-max-memory (%d) must be at least -max-value-size (%d): a cache that cannot hold its largest value rejects every store of that size", c.MaxMemory, c.MaxValueSize)
	}
	backend, err := newBackend(c.Backend, c.Seed)
	if err != nil {
		return nil, rs, err
	}
	// One store-wide ceiling, memcached -m style: the shards share it.
	store := kv.NewShardedStore(backend, c.Shards, c.MaxMemory)
	// Readiness tracks boot (booting → replaying → ok), then New's checks.
	c.Health, c.WAL = health.New(), nil
	if c.PackLog != nil {
		opt := *c.PackLog
		if opt.Logger == nil {
			opt.Logger = c.Logger
		}
		if c.WAL, rs, err = openLog(opt, store, c.Health); err != nil {
			return nil, rs, err
		}
	}
	c.Version += "-" + c.Backend
	srv := New(store, c.Config)
	if err = srv.Listen(); err != nil {
		err = fmt.Errorf("listen: %w", err)
	} else if c.AdminAddr != "" {
		// Its own socket: firewalled apart, and scrapes take no data-plane slot.
		var ln net.Listener
		if ln, err = net.Listen("tcp", c.AdminAddr); err != nil {
			err = fmt.Errorf("admin listen: %w", err)
		} else {
			srv.AttachAdmin(ln)
		}
	}
	if err != nil {
		_ = srv.Shutdown(0) // closes the pack log
		return nil, rs, err
	}
	c.Health.Ready()
	return srv, rs, nil
}

// newBackend builds the heap Boot serves from, by name.
func newBackend(name string, seed int64) (kv.Backend, error) {
	switch name {
	case "malloc":
		return kv.NewMallocBackend(), nil
	case "mesh":
		return kv.NewMeshBackend(seed), nil
	case "anchorage":
		// CountedPins makes every connection's pins visible to the
		// pause-free mover: the §7 requirement for running
		// ConcurrentDefragPass concurrently with writing clients.
		b, err := kv.NewAnchorageBackend(anchorage.DefaultConfig(), rt.WithPinMode(rt.CountedPins))
		if err != nil {
			return nil, fmt.Errorf("anchorage backend: %w", err)
		}
		return b, nil
	}
	return nil, fmt.Errorf("unknown -backend %q (want malloc|mesh|anchorage)", name)
}

// openLog opens the pack log, replays it into store, starts its writer and
// attaches it, in that order, so replay itself is never logged again. A
// failure closes it.
func openLog(opt wal.Options, store *kv.ShardedStore, reg *health.Registry) (*wal.Log, wal.ReplayStats, error) {
	l, err := wal.Open(opt)
	if err != nil {
		return nil, wal.ReplayStats{}, fmt.Errorf("wal open: %w", err)
	}
	reg.StartReplay()
	sess := store.NewSession()
	rs, err := l.Replay(store, sess)
	_ = sess.Close()
	if err != nil {
		err = fmt.Errorf("wal replay: %w", err)
	} else if err = l.Start(store); err != nil {
		err = fmt.Errorf("wal start: %w", err)
	}
	if err != nil {
		_ = l.Close()
		return nil, rs, err
	}
	store.SetMutationLog(l)
	return l, rs, nil
}
