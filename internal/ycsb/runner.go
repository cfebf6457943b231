package ycsb

import (
	"fmt"
	"time"

	"alaska/internal/kv"
	"alaska/internal/stats"
)

// Runner executes a YCSB workload against a one-shard kv.ShardedStore
// from a single thread, recording per-op latencies in simulated time
// (each op costs the backend's maintenance pauses plus a fixed service
// time) — the measurement loop behind the paper's Redis latency numbers
// (§5.5: +13% read / +17% update under Anchorage).
type Runner struct {
	Store *kv.ShardedStore
	Gen   *Generator
	// OpTime is the base simulated service time per operation.
	OpTime time.Duration

	// ReadLat and UpdateLat collect simulated latencies in microseconds.
	ReadLat, UpdateLat *stats.Histogram

	sess kv.Session
	now  time.Duration
	rbuf []byte // the one buffer every read copies into
}

// NewRunner builds a runner; the store should be freshly loaded via Load.
func NewRunner(store *kv.ShardedStore, gen *Generator, opTime time.Duration) *Runner {
	bounds := []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000, 20000}
	return &Runner{
		Store:     store,
		Gen:       gen,
		OpTime:    opTime,
		ReadLat:   stats.NewHistogram(bounds),
		UpdateLat: stats.NewHistogram(bounds),
		sess:      kv.SingleThreadedSession(store.Backend()),
	}
}

// Load performs the initial-load phase.
func (r *Runner) Load() error {
	val := make([]byte, r.Gen.ValueSize)
	for _, op := range r.Gen.LoadOps() {
		if err := r.set(op.Key, val); err != nil {
			return fmt.Errorf("ycsb load: %w", err)
		}
	}
	return nil
}

// Run executes n operations, advancing simulated time and charging any
// backend maintenance pauses to the op that incurred them (the way a
// stop-the-world pause lands on whichever request was in flight).
func (r *Runner) Run(n int) error {
	val := make([]byte, r.Gen.ValueSize)
	for i := 0; i < n; i++ {
		op := r.Gen.Next()
		lat := r.OpTime
		switch op.Type {
		case Read:
			if err := r.get(op.Key); err != nil {
				return err
			}
		case Update, Insert:
			if err := r.set(op.Key, val[:op.ValueSize]); err != nil {
				return err
			}
		case ReadModifyWrite:
			if err := r.get(op.Key); err != nil {
				return err
			}
			if err := r.set(op.Key, val[:op.ValueSize]); err != nil {
				return err
			}
			lat += r.OpTime
		}
		r.now += lat
		r.sess.Safepoint()
		pause := r.Store.Maintain(r.now)
		r.now += pause
		lat += pause
		us := float64(lat.Nanoseconds()) / 1e3
		switch op.Type {
		case Read:
			r.ReadLat.Observe(us)
		default:
			r.UpdateLat.Observe(us)
		}
	}
	return nil
}

// get reads key at the wall clock into the runner's read buffer.
func (r *Runner) get(key string) (err error) {
	r.rbuf, _, err = r.Store.GetIntoAt(r.sess, []byte(key), r.rbuf, time.Now())
	return err
}

// set stores key=value at the wall clock, unconditionally, with no
// deadline.
func (r *Runner) set(key string, value []byte) error {
	_, err := r.Store.SetExBytesAt(r.sess, []byte(key), value, kv.SetAlways, time.Time{}, time.Now())
	return err
}

// Now returns the simulated clock.
func (r *Runner) Now() time.Duration { return r.now }
