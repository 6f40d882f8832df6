package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for even counts), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank method: the smallest sample with at least p% of the
// samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
// The small tolerance keeps binary rounding (99.9/100*10000 is
// 9990.000000000002) from pushing an exact rank up by one.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie strictly above a
// reported tail percentile.
const minBeyond = 10

// tailPercentile picks the highest ladder percentile that still has at
// least minBeyond samples beyond it and returns the percentile and its
// value. ok is false when even the median has fewer than minBeyond
// samples above it.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyond {
			return p, percentile(xs, p), true
		}
	}
	return 0, math.NaN(), false
}

// geomean returns the geometric mean of positive values, or NaN when
// xs is empty or holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// mean returns the arithmetic mean of xs, or NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
