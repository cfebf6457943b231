package figures

import (
	"fmt"
	"math/rand"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/kv"
	"alaska/internal/stats"
)

// DefragConfig parameterizes the Redis defragmentation experiments
// (Figures 9, 10, 11).
type DefragConfig struct {
	// MaxMemory is the store's eviction threshold (paper: 100 MiB for
	// Figure 9, 50 GiB for Figure 11).
	MaxMemory uint64
	// InsertFactor is how many times MaxMemory worth of data is inserted
	// (the paper's "inserts more than that": we default to 3x).
	InsertFactor float64
	// ValueMin/ValueMax bound the first-phase value sizes; the second
	// half of the run drifts to [ValueMin/4, ValueMax/4], preventing
	// free-slot reuse — the allocation churn Redis-as-LRU-cache exhibits.
	ValueMin, ValueMax int
	// HotEvery makes every N-th key long-lived: hot keys are re-read
	// periodically so LRU never evicts them, scattering survivors across
	// the heap exactly like a zipfian working set does.
	HotEvery int
	// OpTime is the simulated duration of one store operation; it sets
	// the experiment's wall-clock axis.
	OpTime time.Duration
	// SampleEvery is the RSS sampling interval.
	SampleEvery time.Duration
	// Anchorage is the Anchorage/controller configuration.
	Anchorage anchorage.Config
	// Seed drives the workload RNG.
	Seed int64
}

// DefaultDefragConfig returns the Figure 9 setup scaled by `scale`
// (1.0 = the paper's 100 MiB experiment).
func DefaultDefragConfig(scale float64) DefragConfig {
	a := anchorage.DefaultConfig()
	a.FragHigh = 1.3
	a.FragLow = 1.08
	a.Alpha = 0.3
	a.OverheadHigh = 0.10
	return DefragConfig{
		MaxMemory:    uint64(100 * (1 << 20) * scale),
		InsertFactor: 3,
		ValueMin:     100,
		ValueMax:     1600,
		HotEvery:     12,
		OpTime:       12 * time.Microsecond,
		SampleEvery:  100 * time.Millisecond,
		Anchorage:    a,
		Seed:         42,
	}
}

// DefragResult holds one backend's RSS-over-time curve plus summary
// numbers.
type DefragResult struct {
	Series    *stats.Series // RSS in bytes over simulated time
	PeakRSS   uint64
	FinalRSS  uint64
	Active    uint64 // live bytes at the end
	Evictions int64
	Pauses    time.Duration // total stop-the-world time
}

// newBackend constructs the named backend for a defrag run.
func newBackend(name string, cfg DefragConfig) (kv.Backend, error) {
	switch name {
	case "baseline":
		return kv.NewMallocBackend(), nil
	case "activedefrag":
		return kv.NewActiveDefragBackend(), nil
	case "mesh":
		return kv.NewMeshBackend(cfg.Seed), nil
	case "anchorage":
		return kv.NewAnchorageBackend(cfg.Anchorage)
	}
	return nil, fmt.Errorf("figures: unknown backend %q", name)
}

// Backends lists the Figure 9 curves in plot order.
var Backends = []string{"baseline", "anchorage", "activedefrag", "mesh"}

// RunDefrag drives a one-shard store — the store alaskad serves from,
// used Redis-style from one thread — over one backend with the
// over-insert/LRU-evict workload and records RSS over simulated time.
func RunDefrag(name string, cfg DefragConfig) (DefragResult, error) {
	b, err := newBackend(name, cfg)
	if err != nil {
		return DefragResult{}, err
	}
	store := kv.NewShardedStore(b, 1, cfg.MaxMemory)
	sess := kv.SingleThreadedSession(b)
	defer sess.Close()
	maintain := func(now time.Duration) time.Duration {
		sess.Safepoint()
		return store.Maintain(now)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	totalBytes := float64(cfg.MaxMemory) * cfg.InsertFactor
	// The size distribution drifts downward across four phases (see
	// below); the effective average is roughly half the phase-0 mean.
	avgVal := float64(cfg.ValueMin+cfg.ValueMax) / 2
	nOps := int(totalBytes / (avgVal * 0.47))

	res := DefragResult{Series: &stats.Series{Name: name}}
	var now time.Duration
	nextSample := time.Duration(0)
	var hot [][]byte
	val := make([]byte, cfg.ValueMax)
	var rbuf []byte

	sample := func() {
		rss := b.RSS()
		res.Series.Add(now, float64(rss))
		if rss > res.PeakRSS {
			res.PeakRSS = rss
		}
	}
	for i := 0; i < nOps; i++ {
		// Four phases of downward size drift: freed slots from earlier
		// phases cannot be reused by later, smaller allocations' classes,
		// which (together with the scattered hot survivors) is what
		// strands memory in a non-moving allocator.
		phase := uint(i * 4 / (nOps + 1))
		lo, hi := cfg.ValueMin>>phase, cfg.ValueMax>>phase
		if lo < 16 {
			lo = 16
		}
		if hi <= lo {
			hi = lo + 1
		}
		size := lo + rng.Intn(hi-lo+1)
		key := fmt.Appendf(nil, "key%09d", i)
		for k := 0; k < size; k++ {
			val[k] = byte(i >> (k % 3 * 8))
		}
		// The store reads the simulated clock, not the wall's, so LRU
		// order (a read hit's gated bump depends on the time since the
		// entry's last use) repeats from run to run, and with it the order
		// activedefrag relocates in.
		at := time.Unix(0, int64(now))
		if _, err := store.SetExBytesAt(sess, key, val[:size], kv.SetAlways, time.Time{}, at); err != nil {
			return res, fmt.Errorf("%s: set: %w", name, err)
		}
		if cfg.HotEvery > 0 && i%cfg.HotEvery == 0 {
			hot = append(hot, key)
		}
		// Keep the hot set fresh so eviction skips it.
		if len(hot) > 0 && i%257 == 0 {
			for _, k := range hot {
				var err error
				if rbuf, _, err = store.GetIntoAt(sess, k, rbuf, at); err != nil {
					return res, err
				}
			}
		}
		now += cfg.OpTime
		res.Pauses += maintain(now)
		if now >= nextSample {
			sample()
			nextSample = now + cfg.SampleEvery
		}
	}
	// Post-workload settling (the paper's curves keep dropping after
	// insertion stops while the controller works).
	settleEnd := now + 4*time.Second
	for now < settleEnd {
		now += cfg.SampleEvery / 4
		res.Pauses += maintain(now)
		if now >= nextSample {
			sample()
			nextSample = now + cfg.SampleEvery
		}
	}
	sample()
	res.FinalRSS = b.RSS()
	res.Active = b.UsedBytes()
	res.Evictions = store.Snapshot().Evictions
	return res, nil
}

// Figure9 runs all four backends and returns their curves keyed by name.
func Figure9(cfg DefragConfig) (map[string]DefragResult, error) {
	out := make(map[string]DefragResult, len(Backends))
	for _, name := range Backends {
		r, err := RunDefrag(name, cfg)
		if err != nil {
			return nil, err
		}
		out[name] = r
	}
	return out, nil
}

// SweepPoint is one parameter set's outcome in the Figure 10 sweep.
type SweepPoint struct {
	FragLow, FragHigh float64
	OverheadHigh      float64
	Alpha             float64
	Result            DefragResult
	// PauseFraction is total pause time over total run time.
	PauseFraction float64
}

// Figure10 sweeps the control parameters [F_lb,F_ub], O_ub, and α over the
// anchorage backend, returning one point per configuration. The envelope
// of the resulting curves is the paper's "envelope of control".
func Figure10(base DefragConfig, fragHighs, overheads, alphas []float64) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, fh := range fragHighs {
		for _, ov := range overheads {
			for _, al := range alphas {
				cfg := base
				cfg.Anchorage.FragHigh = fh
				cfg.Anchorage.FragLow = fh * 0.8
				cfg.Anchorage.OverheadHigh = ov
				cfg.Anchorage.Alpha = al
				r, err := RunDefrag("anchorage", cfg)
				if err != nil {
					return nil, err
				}
				last := r.Series.Points[len(r.Series.Points)-1].T
				out = append(out, SweepPoint{
					FragLow: fh * 0.8, FragHigh: fh, OverheadHigh: ov, Alpha: al,
					Result:        r,
					PauseFraction: float64(r.Pauses) / float64(last),
				})
			}
		}
	}
	return out, nil
}

// Envelope returns, at each sampled time, the min and max RSS across the
// sweep — the dashed envelope curves of Figure 10.
func Envelope(points []SweepPoint) (lo, hi *stats.Series) {
	lo = &stats.Series{Name: "envelope_min"}
	hi = &stats.Series{Name: "envelope_max"}
	if len(points) == 0 {
		return lo, hi
	}
	ref := points[0].Result.Series
	for _, p := range ref.Points {
		minV, maxV := -1.0, 0.0
		for _, sp := range points {
			v := sp.Result.Series.At(p.T)
			if v <= 0 {
				continue
			}
			if minV < 0 || v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		if minV < 0 {
			minV = 0
		}
		lo.Add(p.T, minV)
		hi.Add(p.T, maxV)
	}
	return lo, hi
}

// Figure11 is the large-workload variant of Figure 9: the same over-insert
// pattern at `scale` times the Figure 9 size with fixed 500-byte values
// (the paper used a 50 GiB policy with 100 GiB inserted, which needs a
// 200 GiB testbed; the shape — late eviction onset, anchorage converging
// more slowly than activedefrag under its overhead bound — is preserved
// at reduced scale).
func Figure11(scale float64) (map[string]DefragResult, error) {
	cfg := DefaultDefragConfig(scale)
	cfg.ValueMin, cfg.ValueMax = 480, 520 // the paper's "500 bytes at a time"
	cfg.Anchorage.OverheadHigh = 0.05     // the 5% bound §5.5 discusses
	cfg.Anchorage.Alpha = 0.15
	out := make(map[string]DefragResult, len(Backends))
	for _, name := range Backends {
		r, err := RunDefrag(name, cfg)
		if err != nil {
			return nil, err
		}
		out[name] = r
	}
	return out, nil
}
