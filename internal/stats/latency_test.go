package stats

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestLatencyRecorderPercentiles(t *testing.T) {
	r := NewLatencyRecorder()
	// 1000 samples: 990 at ~1ms, 10 at ~100ms.
	for i := 0; i < 990; i++ {
		r.Record(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		r.Record(100 * time.Millisecond)
	}
	if r.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", r.Count())
	}
	p50 := r.Percentile(50)
	if p50 < 500*time.Microsecond || p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	p999 := r.Percentile(99.9)
	if p999 < 50*time.Millisecond {
		t.Errorf("p999 = %v, want >= 50ms", p999)
	}
	if max := r.Max(); max < 99*time.Millisecond {
		t.Errorf("max = %v, want ~100ms", max)
	}
	if mean := r.Mean(); mean < 1*time.Millisecond || mean > 5*time.Millisecond {
		t.Errorf("mean = %v, want ~2ms", mean)
	}
}

func TestLatencyRecorderMerge(t *testing.T) {
	a, b := NewLatencyRecorder(), NewLatencyRecorder()
	for i := 0; i < 100; i++ {
		a.Record(time.Millisecond)
		b.Record(10 * time.Millisecond)
	}
	m := NewLatencyRecorder()
	m.Merge(a)
	m.Merge(b)
	if m.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", m.Count())
	}
	// Sources must stay usable.
	if a.Count() != 100 || b.Count() != 100 {
		t.Errorf("merge mutated sources: %d, %d", a.Count(), b.Count())
	}
	if p99 := m.Percentile(99); p99 < 5*time.Millisecond {
		t.Errorf("merged p99 = %v, want >= 5ms", p99)
	}
	// Self-merge and nil-merge are no-ops.
	m.Merge(m)
	m.Merge(nil)
	if m.Count() != 200 {
		t.Errorf("self/nil merge changed count to %d", m.Count())
	}
}

func TestLatencyRecorderConcurrent(t *testing.T) {
	r := NewLatencyRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(time.Microsecond * time.Duration(1+i%100))
				if i%100 == 0 {
					_ = r.Percentile(99)
				}
			}
		}()
	}
	wg.Wait()
	if r.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", r.Count())
	}
}

// TestDrainIntoUnderRecord is the fold a striped recorder relies on:
// writers Record known durations into one stripe while a reader keeps
// draining it into two destinations. Once the writers stop and a last
// drain has run, each destination holds every observation exactly once —
// count, sum, bucket by bucket — and the true maximum. A drain that read
// and then cleared a counter in two steps, not one swap, would lose the
// increments landing between them (run under -race).
func TestDrainIntoUnderRecord(t *testing.T) {
	drainUnderRecord(t, func(r *LatencyRecorder, d time.Duration, n int) {
		for i := 0; i < n; i++ {
			r.Record(d)
		}
	})
}

// TestDrainIntoUnderRecordN is TestDrainIntoUnderRecord with each writer
// recording its observations in batches through RecordN, as an engine
// folds a pipelined call: the batch's bucket, count and sum adds race the
// drain as three separate atomics, and once the writers stop nothing is
// lost.
func TestDrainIntoUnderRecordN(t *testing.T) {
	drainUnderRecord(t, func(r *LatencyRecorder, d time.Duration, n int) {
		for _, k := range []int{1, 7, 32, 24} {
			for left := n / 4; left > 0; left -= min(k, left) {
				r.RecordN(d, int64(min(k, left)))
			}
		}
	})
}

// drainUnderRecord runs the drain-under-record check with record putting n
// observations of d into the recorder.
func drainUnderRecord(t *testing.T, record func(r *LatencyRecorder, d time.Duration, n int)) {
	const writers, perWriter = 4, 20000
	// Four durations in four different buckets; writer w uses durs[w].
	durs := [writers]time.Duration{3 * time.Microsecond, 40 * time.Microsecond, 700 * time.Microsecond, 9 * time.Millisecond}
	src, a, b := NewLatencyRecorder(), NewLatencyRecorder(), NewLatencyRecorder()

	// The drainer runs from before the first Record until after the last.
	started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	drains := 0
	go func() {
		defer close(done)
		close(started)
		for {
			select {
			case <-stop:
				return
			default:
				src.DrainInto(a, b)
				drains++
			}
		}
	}()
	<-started
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(d time.Duration) {
			defer wg.Done()
			record(src, d, perWriter)
		}(durs[w])
	}
	wg.Wait()
	close(stop)
	<-done
	src.DrainInto(a, b)
	t.Logf("%d drains raced %d records", drains, writers*perWriter)

	var wantSum time.Duration
	for _, d := range durs {
		wantSum += perWriter * d
	}
	for name, dst := range map[string]*LatencyRecorder{"a": a, "b": b} {
		if got := dst.Count(); got != writers*perWriter {
			t.Errorf("%s: count = %d, want %d", name, got, writers*perWriter)
		}
		if got := dst.Sum(); got != wantSum {
			t.Errorf("%s: sum = %v, want %v", name, got, wantSum)
		}
		if got := dst.Max(); got != durs[writers-1] {
			t.Errorf("%s: max = %v, want %v", name, got, durs[writers-1])
		}
		perBucket := map[int64]int64{}
		dst.ForEachBucket(func(_ int64, c int64) {
			if c != 0 {
				perBucket[c]++
			}
		})
		if perBucket[perWriter] != writers || len(perBucket) != 1 {
			t.Errorf("%s: buckets hold %v (count -> buckets), want %d buckets of %d", name, perBucket, writers, perWriter)
		}
	}
	if src.Count() != 0 || src.Sum() != 0 || src.Max() != 0 {
		t.Errorf("source not empty after the last drain: n=%d sum=%v max=%v", src.Count(), src.Sum(), src.Max())
	}
}

// Recorders are allocated side by side, one per writer; each must fill
// whole cache lines or two writers share one (see the struct's padding).
func TestLatencyRecorderFillsCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(LatencyRecorder{}); sz%64 != 0 {
		t.Fatalf("sizeof(LatencyRecorder) = %d, want a multiple of 64", sz)
	}
}
