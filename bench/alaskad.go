package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/health"
	"alaska/internal/kv"
	"alaska/internal/logx"
	"alaska/internal/rt"
	"alaska/internal/server"
	"alaska/internal/wal"
)

// cmd/alaskad's defaults, which the benchmark boots alaskad with.
const (
	shards          = 32
	maxValueSize    = 1 << 20
	maintainEvery   = 50 * time.Millisecond
	defragFragHigh  = 1.3
	defragBudget    = 1 << 20
	writeTimeout    = 5 * time.Second
	maxReplyBacklog = 64 << 20
	slowOpThreshold = 10 * time.Millisecond
	fsyncInterval   = 100 * time.Millisecond
	shutdownDrain   = 5 * time.Second
	// serverValueHdr is what the server prepends to a stored value (flags
	// and cas unique); the replay check reads values from the store itself.
	serverValueHdr = 12
)

// alaskad is one in-process server with everything cmd/alaskad builds
// around it.
type alaskad struct {
	backend *kv.AnchorageBackend
	store   *kv.ShardedStore
	wlog    *wal.Log // nil unless the workload persists
	srv     *server.Server
	served  chan error
}

func newStore(maxMemory uint64) (*kv.AnchorageBackend, *kv.ShardedStore, error) {
	b, err := kv.NewAnchorageBackend(anchorage.DefaultConfig(), rt.WithPinMode(rt.CountedPins))
	if err != nil {
		return nil, nil, err
	}
	return b, kv.NewShardedStore(b, shards, maxMemory), nil
}

// openLog opens the log in dir and replays it into store, as cmd/alaskad
// does before it starts the writer.
func openLog(dir string, store *kv.ShardedStore, logger *logx.Logger) (*wal.Log, wal.ReplayStats, error) {
	l, err := wal.Open(wal.Options{Dir: dir, FsyncInterval: fsyncInterval, Logger: logger})
	if err != nil {
		return nil, wal.ReplayStats{}, err
	}
	sess := store.NewSession()
	rs, err := l.Replay(store, sess)
	_ = sess.Close()
	if err != nil {
		_ = l.Close()
		return nil, rs, err
	}
	return l, rs, nil
}

// bootAlaskad brings a server up on a loopback port. walDir is "" unless the
// workload persists.
func bootAlaskad(wl workload, walDir string) (*alaskad, error) {
	logger := logx.New(os.Stderr, "alaskad: ", logx.LevelError)
	backend, store, err := newStore(wl.maxMemory)
	if err != nil {
		return nil, err
	}
	a := &alaskad{backend: backend, store: store, served: make(chan error, 1)}
	reg := health.New()
	if walDir != "" {
		reg.StartReplay()
		if a.wlog, _, err = openLog(walDir, store, logger); err != nil {
			return nil, err
		}
		if err := a.wlog.Start(store); err != nil {
			_ = a.wlog.Close()
			return nil, err
		}
		store.SetMutationLog(a.wlog)
	}
	a.srv = server.New(store, server.Config{
		Addr:             "127.0.0.1:0",
		MaxValueSize:     maxValueSize,
		MaintainInterval: maintainEvery,
		DefragFragHigh:   defragFragHigh,
		DefragBudget:     defragBudget,
		Version:          "bench-anchorage",
		WriteTimeout:     writeTimeout,
		MaxReplyBacklog:  maxReplyBacklog,
		ConnModel:        "auto",
		SlowOpThreshold:  slowOpThreshold,
		Logger:           logger,
		WAL:              a.wlog,
		Health:           reg,
	})
	if err := a.srv.Listen(); err != nil {
		if a.wlog != nil {
			_ = a.wlog.Close()
		}
		return nil, err
	}
	reg.Ready()
	go func() { a.served <- a.srv.Serve() }()
	return a, nil
}

// shutdown stops the server the way SIGTERM stops cmd/alaskad and reports
// anything left behind: Serve not returning, or the port still answering.
func (a *alaskad) shutdown() error {
	addr := a.srv.Addr()
	_ = a.srv.Shutdown(shutdownDrain)
	select {
	case err := <-a.served:
		if err != nil {
			return fmt.Errorf("Serve: %w", err)
		}
	case <-time.After(shutdownDrain):
		return fmt.Errorf("Serve did not return after Shutdown")
	}
	return refuses(addr)
}

// refuses reports an error if anything still accepts on addr.
func refuses(addr string) error {
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err == nil {
		_ = nc.Close()
		return fmt.Errorf("%s still accepts connections", addr)
	}
	return nil
}

// checkReplay replays the log in dir into a fresh store and checks that
// every key holds the last write its owner saw acknowledged. The log drops
// records when its ring overflows, counts them and does not name them: a key
// may hold an earlier acknowledged write as long as all keys together are no
// more writes behind than the log dropped records.
func checkReplay(wl workload, dir string, st *streams, owners []*conn, dropped int64) (time.Duration, error) {
	_, store, err := newStore(wl.maxMemory)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	l, rs, err := openLog(dir, store, nil)
	took := time.Since(t0)
	if err != nil {
		return took, err
	}
	defer l.Close()
	if rs.CrcErrors > 0 || rs.FailedRestores > 0 {
		return took, fmt.Errorf("replay: %d crc errors, %d failed restores", rs.CrcErrors, rs.FailedRestores)
	}
	sess := store.NewSession()
	defer sess.Close()
	var kb, buf []byte
	var behind int64
	for k := uint32(0); int(k) < wl.keys; k++ {
		c := owners[k%conns]
		want := c.last[k/conns]
		kb = appendKey(kb[:0], k)
		var found bool
		if buf, found, err = store.GetInto(sess, kb, buf); err != nil {
			return took, fmt.Errorf("replayed store: get %s: %w", kb, err)
		}
		if want == 0 && !found {
			continue
		}
		if !found || len(buf) <= serverValueHdr+valHdr {
			return took, fmt.Errorf("replayed store: %s: found=%v with %d bytes, want tag %d", kb, found, len(buf), want)
		}
		v := buf[serverValueHdr:]
		tag := binary.LittleEndian.Uint32(v[8:])
		if binary.LittleEndian.Uint32(v[0:]) != k || int(binary.LittleEndian.Uint32(v[4:])) != len(v) ||
			bytes.Count(v[valHdr:], []byte{fill(tag)}) != len(v)-valHdr {
			return took, fmt.Errorf("replayed store: %s is corrupt", kb)
		}
		if tag != want {
			n, ok := writesBehind(&st.conn[k%conns].main, k, tag, want, int(c.writes[k/conns]))
			if !ok {
				return took, fmt.Errorf("replayed store: %s holds tag %d, which its owner never wrote before tag %d", kb, tag, want)
			}
			behind += int64(n)
		}
	}
	if behind > dropped {
		return took, fmt.Errorf("replayed store: %d acknowledged writes missing, the log dropped %d records", behind, dropped)
	}
	return took, nil
}

// writesBehind is how many acknowledged writes of key came after the one
// tagged held, given that the last was tagged last and there were writes in
// all: the preload, then the key's SETs in s, cycled.
func writesBehind(s *stream, key, held, last uint32, writes int) (int, bool) {
	if held == preloadTag {
		return writes - 1, writes > 1
	}
	var tags []uint32
	at := map[uint32]int{}
	for _, o := range s.ops {
		if o.set && o.key == key {
			at[o.tag] = len(tags)
			tags = append(tags, o.tag)
		}
	}
	i, ok := at[held]
	j, ok2 := at[last]
	n := (j - i + len(tags)) % max(len(tags), 1)
	return n, ok && ok2 && n < writes
}
