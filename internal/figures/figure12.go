package figures

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/kv"
	"alaska/internal/rt"
	"alaska/internal/stats"
	"alaska/internal/ycsb"
)

// MemcachedConfig parameterizes the Figure 12 experiment: a multithreaded
// memcached-style store under YCSB-A while Anchorage performs fixed-size
// relocation pauses at a configurable interval.
type MemcachedConfig struct {
	Threads int
	// PauseInterval is the time between stop-the-world relocation pauses
	// (the x-axis of Figure 12). Zero disables pauses (the baseline).
	PauseInterval time.Duration
	// Duration is the measured wall-clock run length.
	Duration time.Duration
	// RecordCount and ValueSize define the YCSB dataset.
	RecordCount int
	ValueSize   int
	// MoveBudget is how many bytes each pause relocates (paper: ~1 MiB,
	// keeping average pauses under 2 ms).
	MoveBudget uint64
	// Shards is the store's shard count.
	Shards int
	Seed   int64
}

// DefaultMemcachedConfig mirrors the paper's setup at a test-friendly
// duration.
func DefaultMemcachedConfig(threads int, interval time.Duration) MemcachedConfig {
	return MemcachedConfig{
		Threads:       threads,
		PauseInterval: interval,
		Duration:      400 * time.Millisecond,
		RecordCount:   4000,
		ValueSize:     512,
		MoveBudget:    1 << 20,
		Shards:        16,
		Seed:          7,
	}
}

// MemcachedResult is one cell of Figure 12.
type MemcachedResult struct {
	Threads  int
	Interval time.Duration
	Alaska   bool
	Ops      int64
	// AvgLatency and P99 are measured per-operation wall-clock latencies.
	AvgLatency time.Duration
	P99        time.Duration
	MaxPause   time.Duration
	Pauses     int64
}

// RunMemcached runs one (threads, interval) cell. alaska selects the
// Anchorage backend with relocation pauses; otherwise the baseline
// allocator runs without pauses.
func RunMemcached(alaska bool, cfg MemcachedConfig) (MemcachedResult, error) {
	var backend kv.Backend
	var anch *kv.AnchorageBackend
	if alaska {
		a, err := kv.NewAnchorageBackend(anchorage.DefaultConfig())
		if err != nil {
			return MemcachedResult{}, err
		}
		anch = a
		backend = a
	} else {
		backend = kv.NewMallocBackend()
	}
	store := kv.NewShardedStore(backend, cfg.Shards, 0)

	// Load phase.
	loadSess := store.NewSession()
	gen, err := ycsb.NewGenerator(ycsb.WorkloadA, cfg.RecordCount, cfg.ValueSize, cfg.Seed)
	if err != nil {
		return MemcachedResult{}, err
	}
	val := make([]byte, cfg.ValueSize)
	for _, op := range gen.LoadOps() {
		if _, err := store.SetExBytesAt(loadSess, []byte(op.Key), val, kv.SetAlways, time.Time{}, time.Now()); err != nil {
			return MemcachedResult{}, fmt.Errorf("load: %w", err)
		}
	}
	if err := loadSess.Close(); err != nil {
		return MemcachedResult{}, err
	}

	res := MemcachedResult{Threads: cfg.Threads, Interval: cfg.PauseInterval, Alaska: alaska}
	var totalOps atomic.Int64
	var wg sync.WaitGroup
	quit := make(chan struct{})
	// One recorder per worker (uncontended on the hot path), merged for
	// the report — the same instrument alaskad's stats command and the
	// loadgen report use.
	recs := make([]*stats.LatencyRecorder, cfg.Threads)

	for w := 0; w < cfg.Threads; w++ {
		recs[w] = stats.NewLatencyRecorder()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := store.NewSession()
			defer sess.Close()
			g, _ := ycsb.NewGenerator(ycsb.WorkloadA, cfg.RecordCount, cfg.ValueSize, cfg.Seed+int64(w)+1)
			buf := make([]byte, cfg.ValueSize)
			var rbuf []byte
			for {
				select {
				case <-quit:
					return
				default:
				}
				op := g.Next()
				start := time.Now()
				var err error
				switch op.Type {
				case ycsb.Read:
					rbuf, _, err = store.GetIntoAt(sess, []byte(op.Key), rbuf, time.Now())
				default:
					_, err = store.SetExBytesAt(sess, []byte(op.Key), buf[:op.ValueSize], kv.SetAlways, time.Time{}, time.Now())
				}
				if err != nil {
					return
				}
				recs[w].Record(time.Since(start))
				totalOps.Add(1)
				sess.Safepoint()
			}
		}(w)
	}

	// Pauser: relocate MoveBudget bytes every PauseInterval.
	var maxPause atomic.Int64
	var pauses atomic.Int64
	if alaska && cfg.PauseInterval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(cfg.PauseInterval)
			defer ticker.Stop()
			for {
				select {
				case <-quit:
					return
				case <-ticker.C:
					start := time.Now()
					anch.Runtime.Barrier(nil, func(scope *rt.BarrierScope) {
						anch.Svc.DefragPass(scope, cfg.MoveBudget)
					})
					d := time.Since(start)
					pauses.Add(1)
					if d.Nanoseconds() > maxPause.Load() {
						maxPause.Store(d.Nanoseconds())
					}
				}
			}
		}()
	}

	time.Sleep(cfg.Duration)
	close(quit)
	wg.Wait()

	merged := stats.NewLatencyRecorder()
	for _, r := range recs {
		merged.Merge(r)
	}
	res.Ops = totalOps.Load()
	res.AvgLatency = merged.Mean()
	res.P99 = merged.Percentile(99)
	res.MaxPause = time.Duration(maxPause.Load())
	res.Pauses = pauses.Load()
	return res, nil
}

// Figure12 sweeps thread counts and pause intervals, returning Alaska and
// baseline cells.
func Figure12(threads []int, intervals []time.Duration, duration time.Duration) ([]MemcachedResult, error) {
	var out []MemcachedResult
	for _, th := range threads {
		base := DefaultMemcachedConfig(th, 0)
		if duration > 0 {
			base.Duration = duration
		}
		b, err := RunMemcached(false, base)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		for _, iv := range intervals {
			cfg := DefaultMemcachedConfig(th, iv)
			if duration > 0 {
				cfg.Duration = duration
			}
			r, err := RunMemcached(true, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}
