package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileIsNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {51, 60}, {90, 90}, {99, 100}, {100, 100}, {0.1, 10}, {10, 10}, {10.1, 20}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || percentile([]int64{7}, 99.9) != 7 {
		t.Error("empty or single-sample percentile")
	}
}

func TestTailPercent(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1000000, 99.999}} {
		if got := tailPercent(c.n); got != c.want {
			t.Errorf("tailPercent(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestRatioMedianQuartiles(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Error("ratio")
	}
	if median(nil) != 0 || median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %g, %g", q1, q3)
	}
	q1, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles of powers of two = %g, %g", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread of 1..10 = %g, want 5.5/5.5", got)
	}
	if spread([]float64{3}) != 0 {
		t.Error("spread of one value")
	}
}

// setup_s with unequal counts: means, not sums, are divided.
func TestSetupSecondsIsExact(t *testing.T) {
	got := setupSeconds([]float64{0.2, 0.4}, []float64{0.01, 0.01, 0.01, 0.03}, 0.5)
	if !near(got, 0.3/0.015*0.5) {
		t.Errorf("setup_s = %g, want 10", got)
	}
	if setupSeconds(nil, []float64{1}, 1) != 0 || setupSeconds([]float64{1}, nil, 1) != 0 {
		t.Error("setup_s without set-ups")
	}
}

func TestScheduleIsABBAAndEven(t *testing.T) {
	var a, n int
	s := schedule()
	for i, onAlaskad := range s {
		if onAlaskad {
			a++
		} else {
			n++
		}
		if want := i%4 == 0 || i%4 == 3; onAlaskad != want {
			t.Errorf("segment %d on alaskad = %v", i, onAlaskad)
		}
	}
	if a != n || a+n != segments {
		t.Errorf("%d alaskad and %d null segments", a, n)
	}
}
