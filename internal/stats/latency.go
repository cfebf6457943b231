package stats

import (
	"sync/atomic"
	"time"
)

// latencyBounds are the shared bucket boundaries of every LatencyRecorder,
// in microseconds: geometric from 1 µs to ~10 s. A shared layout is what
// makes recorders mergeable without resampling.
var latencyBounds = func() []float64 {
	var b []float64
	for us := 1.0; us < 10_000_000; us *= 1.25 {
		b = append(b, us)
	}
	return b
}()

// latencyBoundsNs mirrors latencyBounds in integer nanoseconds so the
// record path is a pure integer binary search — no float conversion, no
// allocation, no lock.
var latencyBoundsNs = func() []int64 {
	out := make([]int64, len(latencyBounds))
	for i, us := range latencyBounds {
		out[i] = int64(us * 1e3)
	}
	return out
}()

// LatencyRecorder is the shared latency instrument of the benchmark
// harnesses, the alaskad stats surface, and the loadgen report: a
// fixed-layout histogram of operation durations with cheap recording,
// cross-recorder merging, and percentile queries.
//
// Methods are safe for concurrent use, and Record and RecordN are
// lock-free: one atomic add to a bucket plus the running sum/count/max, so a
// recorder shared by every connection of a busy server never serializes
// the hot path behind a mutex. Queries (Percentile, Mean, Merge) read
// the counters without stopping writers; a query racing a Record may see
// an observation in the count but not yet the sum (or vice versa), the
// usual relaxed-snapshot guarantee of stats surfaces.
//
// A hot path with several writers should give each its own recorder and
// fold them with DrainInto on read. The struct is padded to one cache
// line, a size whose allocations start on line boundaries, so recorders
// allocated side by side for different writers share none.
type LatencyRecorder struct {
	counts []atomic.Int64 // len(latencyBounds)+1: last bucket is overflow
	n      atomic.Int64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
	_      [16]byte
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{counts: make([]atomic.Int64, len(latencyBoundsNs)+1)}
}

// bucketFor returns the bucket index for an observation of ns
// nanoseconds: the first bound >= ns, or the overflow bucket.
func bucketFor(ns int64) int {
	lo, hi := 0, len(latencyBoundsNs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if latencyBoundsNs[mid] < ns {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Record adds one observation. Lock-free and allocation-free.
func (r *LatencyRecorder) Record(d time.Duration) { r.RecordN(d, 1) }

// RecordN adds n observations of d each — what n calls of Record(d) add,
// in one bucket add and one add each to the count and the sum. A caller
// that times a batch once records its share per item this way. n < 1
// records nothing.
func (r *LatencyRecorder) RecordN(d time.Duration, n int64) {
	if n < 1 {
		return
	}
	ns := d.Nanoseconds()
	r.counts[bucketFor(ns)].Add(n)
	r.n.Add(n)
	r.sumNs.Add(ns * n)
	r.raiseMax(ns)
}

// raiseMax lifts the running maximum to ns if it is below it.
func (r *LatencyRecorder) raiseMax(ns int64) {
	for {
		cur := r.maxNs.Load()
		if ns <= cur || r.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Merge folds other's observations into r. Both recorders stay usable.
func (r *LatencyRecorder) Merge(other *LatencyRecorder) {
	if other == nil || r == other {
		return
	}
	for i := range other.counts {
		if c := other.counts[i].Load(); c != 0 {
			r.counts[i].Add(c)
		}
	}
	r.n.Add(other.n.Load())
	r.sumNs.Add(other.sumNs.Load())
	r.raiseMax(other.maxNs.Load())
}

// DrainInto moves r's observations into every dst and leaves r empty: the
// read side of a recorder striped per writer, where each writer records
// into a private stripe and readers fold the stripes into the published
// recorders before looking. Every counter leaves r by an atomic swap, so
// an increment racing the drain lands in this drain or the next — never
// both, never neither — and the dsts, which nothing ever subtracts from,
// only grow. One Record's bucket, count and sum may still straddle two
// drains (the relaxed-snapshot guarantee every query has); once writers
// quiesce, a final drain leaves the dsts exact.
func (r *LatencyRecorder) DrainInto(dsts ...*LatencyRecorder) {
	for i := range r.counts {
		if r.counts[i].Load() == 0 {
			continue // leave the writer's line clean; a racing Add waits for the next drain
		}
		c := r.counts[i].Swap(0)
		for _, d := range dsts {
			d.counts[i].Add(c)
		}
	}
	n, sum, max := r.n.Swap(0), r.sumNs.Swap(0), r.maxNs.Swap(0)
	for _, d := range dsts {
		d.n.Add(n)
		d.sumNs.Add(sum)
		d.raiseMax(max)
	}
}

// Count returns the number of observations.
func (r *LatencyRecorder) Count() int64 { return r.n.Load() }

// Sum returns the total of all observed latencies.
func (r *LatencyRecorder) Sum() time.Duration {
	return time.Duration(r.sumNs.Load())
}

// OverflowBound is the bound ForEachBucket reports for the final
// overflow bucket (observations past the largest explicit bound).
const OverflowBound = int64(^uint64(0) >> 1)

// ForEachBucket calls fn once per bucket in ascending bound order with
// the bucket's upper bound in nanoseconds and its (non-cumulative)
// count; the final overflow bucket is reported with bound =
// OverflowBound. Like every query, it reads the counters without
// stopping writers — a relaxed snapshot. The Prometheus exposition
// renderer in internal/metrics is the main consumer.
func (r *LatencyRecorder) ForEachBucket(fn func(boundNs int64, count int64)) {
	for i := range r.counts {
		bound := OverflowBound
		if i < len(latencyBoundsNs) {
			bound = latencyBoundsNs[i]
		}
		fn(bound, r.counts[i].Load())
	}
}

// Reset zeroes the recorder (the `stats reset` surface). Records racing
// the reset may leave a few counts behind or a count/sum that disagree
// by an observation — the usual relaxed guarantee; the recorder stays
// internally usable either way.
func (r *LatencyRecorder) Reset() {
	for i := range r.counts {
		r.counts[i].Store(0)
	}
	r.n.Store(0)
	r.sumNs.Store(0)
	r.maxNs.Store(0)
}

// Mean returns the mean observed latency.
func (r *LatencyRecorder) Mean() time.Duration {
	n := r.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(r.sumNs.Load() / n)
}

// Max returns the largest observed latency.
func (r *LatencyRecorder) Max() time.Duration {
	return time.Duration(r.maxNs.Load())
}

// Percentile returns the p-th percentile (0..100) as a duration. The
// resolution is the bucket width (25% geometric steps).
func (r *LatencyRecorder) Percentile(p float64) time.Duration {
	n := r.n.Load()
	if n == 0 {
		return 0
	}
	target := int64(p / 100 * float64(n))
	var cum int64
	for i := range r.counts {
		cum += r.counts[i].Load()
		if cum > target {
			if i < len(latencyBoundsNs) {
				return time.Duration(latencyBoundsNs[i])
			}
			return time.Duration(r.maxNs.Load())
		}
	}
	return time.Duration(r.maxNs.Load())
}
