package stats

// Edge-case coverage for LatencyRecorder: empty and single-sample
// recorders, the overflow bucket, ForEachBucket's contract (the
// Prometheus renderer depends on it), Reset, and recording racing a
// snapshot under -race.

import (
	"sync"
	"testing"
	"time"
)

func TestLatencyRecorderEmpty(t *testing.T) {
	r := NewLatencyRecorder()
	if r.Count() != 0 || r.Sum() != 0 || r.Mean() != 0 || r.Max() != 0 {
		t.Fatalf("empty recorder not all-zero: n=%d sum=%v mean=%v max=%v",
			r.Count(), r.Sum(), r.Mean(), r.Max())
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if got := r.Percentile(p); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
	total := int64(0)
	r.ForEachBucket(func(_, count int64) { total += count })
	if total != 0 {
		t.Fatalf("empty recorder has %d bucketed observations", total)
	}
}

func TestLatencyRecorderSingleSample(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(5 * time.Millisecond)
	if r.Count() != 1 || r.Sum() != 5*time.Millisecond || r.Max() != 5*time.Millisecond {
		t.Fatalf("single sample: n=%d sum=%v max=%v", r.Count(), r.Sum(), r.Max())
	}
	// Every percentile of one sample lands in its bucket: within one
	// geometric step (25%) of the observation.
	for _, p := range []float64{0, 50, 99.9} {
		got := r.Percentile(p)
		if got < 4*time.Millisecond || got > 7*time.Millisecond {
			t.Fatalf("Percentile(%v) = %v, want ~5ms", p, got)
		}
	}
}

// TestLatencyRecorderRecordN: RecordN(d, n) leaves the recorder exactly as
// n calls of Record(d) do — every bucket, Count, Sum and Max — for n = 1,
// for a batch, and in the overflow bucket; n < 1 records nothing.
func TestLatencyRecorderRecordN(t *testing.T) {
	durs := []time.Duration{0, 700 * time.Nanosecond, 3 * time.Microsecond, 9 * time.Millisecond, 42 * time.Second}
	for _, n := range []int64{1, 2, 24, 128} {
		batched, single := NewLatencyRecorder(), NewLatencyRecorder()
		for _, d := range durs {
			batched.RecordN(d, n)
			for i := int64(0); i < n; i++ {
				single.Record(d)
			}
		}
		batched.RecordN(time.Hour, 0)
		batched.RecordN(time.Hour, -3)
		if batched.Count() != single.Count() || batched.Sum() != single.Sum() || batched.Max() != single.Max() {
			t.Fatalf("n=%d: RecordN count/sum/max = %d/%v/%v, Record ×n %d/%v/%v", n,
				batched.Count(), batched.Sum(), batched.Max(), single.Count(), single.Sum(), single.Max())
		}
		var got, want []int64
		batched.ForEachBucket(func(_, c int64) { got = append(got, c) })
		single.ForEachBucket(func(_, c int64) { want = append(want, c) })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: bucket %d holds %d after RecordN, %d after Record ×n", n, i, got[i], want[i])
			}
		}
		if overflow := got[len(got)-1]; overflow != n {
			t.Fatalf("n=%d: overflow bucket holds %d, want %d", n, overflow, n)
		}
	}
}

func TestLatencyRecorderOverflowBucket(t *testing.T) {
	r := NewLatencyRecorder()
	huge := 42 * time.Second // past the ~10s largest bound
	r.Record(huge)
	r.Record(time.Microsecond)
	if r.Max() != huge {
		t.Fatalf("Max = %v, want %v", r.Max(), huge)
	}
	// The tail percentile of an overflow observation reports the true
	// max, not a bucket bound.
	if got := r.Percentile(99.9); got != huge {
		t.Fatalf("Percentile(99.9) = %v, want %v (the overflow max)", got, huge)
	}
	// ForEachBucket reports the overflow count under OverflowBound, with
	// ascending bounds before it.
	var lastBound int64 = -1
	var overflowCount int64
	seenOverflow := false
	r.ForEachBucket(func(bound, count int64) {
		if seenOverflow {
			t.Fatal("buckets after the overflow bucket")
		}
		if bound == OverflowBound {
			seenOverflow = true
			overflowCount = count
			return
		}
		if bound <= lastBound {
			t.Fatalf("bucket bounds not ascending: %d after %d", bound, lastBound)
		}
		lastBound = bound
	})
	if !seenOverflow || overflowCount != 1 {
		t.Fatalf("overflow bucket count = %d (seen=%v), want 1", overflowCount, seenOverflow)
	}
}

func TestLatencyRecorderReset(t *testing.T) {
	r := NewLatencyRecorder()
	for i := 0; i < 100; i++ {
		r.Record(time.Duration(i+1) * time.Millisecond)
	}
	r.Record(time.Minute)
	r.Reset()
	if r.Count() != 0 || r.Sum() != 0 || r.Max() != 0 || r.Percentile(99) != 0 {
		t.Fatalf("post-reset: n=%d sum=%v max=%v p99=%v, want zeros",
			r.Count(), r.Sum(), r.Max(), r.Percentile(99))
	}
	total := int64(0)
	r.ForEachBucket(func(_, count int64) { total += count })
	if total != 0 {
		t.Fatalf("post-reset buckets hold %d observations", total)
	}
	// The recorder stays usable after a reset.
	r.Record(2 * time.Millisecond)
	if r.Count() != 1 || r.Max() != 2*time.Millisecond {
		t.Fatalf("recorder unusable after reset: n=%d max=%v", r.Count(), r.Max())
	}
}

func TestLatencyRecorderMergeEdge(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(time.Millisecond)
	r.Merge(nil) // no-op
	r.Merge(r)   // self-merge must not double-count
	if r.Count() != 1 {
		t.Fatalf("after nil/self merges: n=%d, want 1", r.Count())
	}
	empty := NewLatencyRecorder()
	r.Merge(empty)
	if r.Count() != 1 || r.Max() != time.Millisecond {
		t.Fatalf("merge of empty changed the recorder: n=%d max=%v", r.Count(), r.Max())
	}
	empty.Merge(r)
	if empty.Count() != 1 || empty.Max() != time.Millisecond || empty.Sum() != time.Millisecond {
		t.Fatalf("merge into empty: n=%d max=%v sum=%v", empty.Count(), empty.Max(), empty.Sum())
	}
}

// TestLatencyRecorderSnapshotDuringRecord races ForEachBucket, Reset,
// and Percentile against concurrent Records — the relaxed-snapshot
// guarantee under -race.
func TestLatencyRecorderSnapshotDuringRecord(t *testing.T) {
	r := NewLatencyRecorder()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Record(time.Duration(i%1000+1) * time.Microsecond)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		var cum int64
		r.ForEachBucket(func(_, count int64) {
			if count < 0 {
				t.Errorf("negative bucket count %d", count)
			}
			cum += count
		})
		_ = r.Percentile(99)
		if i%50 == 0 {
			r.Reset()
		}
	}
	close(stop)
	wg.Wait()
}
