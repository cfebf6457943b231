package main

import (
	"math"
	"sort"
)

// The benchmark owns its statistics: percentiles are exact order statistics
// of the pooled samples, never bucketed (a 1.25x-bucket histogram flipped a
// p50 between 44 and 55 µs).

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailPercent is the highest percentile of the ladder 50, 90, 99, 99.9, …
// that leaves at least ten of n samples beyond it; 0 if none does.
func tailPercent(n int) float64 {
	best := 0.0
	for _, t := range []struct {
		p      float64
		beyond int // one sample in this many lies beyond p
	}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}, {99.999, 100000}} {
		if n >= 10*t.beyond {
			best = t.p
		}
	}
	return best
}

// ratio is Σa ÷ Σb over pooled parts: the estimator that beat per-pair and
// per-epoch ratios in every comparison. 0 when the base is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles are Q1 and Q3 by the exclusive method, as Python's
// statistics.quantiles(xs, n=4) gives them; it needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(pos float64) float64 { // 1-based position among len(s)+1 gaps
		i := int(pos)
		i = min(max(i, 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	n := float64(len(s) + 1)
	return at(n / 4), at(3 * n / 4)
}

// spread is the distance between the quartiles as a share of the median:
// what the driver holds each gated metric's bound against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}

// setupSeconds is the set-up metric: alaskad's mean set-up over the null
// server's mean set-up in the same seconds, scaled by the null set-up's
// frozen calibration median so that it reads as seconds at the calibration
// machine's speed and work moved into alaskad's set-up shows one for one.
func setupSeconds(alaskad, null []float64, nullRef float64) float64 {
	if len(alaskad) == 0 || len(null) == 0 {
		return 0
	}
	return ratio(sum(alaskad)/float64(len(alaskad)), sum(null)/float64(len(null))) * nullRef
}
