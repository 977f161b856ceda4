package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
// A percentile with fewer samples beyond it is decided by a handful of
// outliers and is not reported.
const minTail = 10

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankOf is the 0-based nearest rank of quantile q among n samples.
func rankOf(n int, q float64) int {
	return max(int(math.Ceil(q*float64(n)))-1, 0)
}

// enoughFor reports whether n samples leave minTail beyond quantile q:
// a p99 needs 1000 samples, a p50 needs 20.
func enoughFor(n int, q float64) bool {
	return n > 0 && n-1-rankOf(n, q) >= minTail
}

// percentile returns the nearest-rank q-quantile of sorted, 0 < q < 1,
// and fails when fewer than minTail samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, error) {
	if !enoughFor(len(sorted), q) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; %d samples are too few", 100*q, minTail, len(sorted))
	}
	return sorted[rankOf(len(sorted), q)], nil
}
