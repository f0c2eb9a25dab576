package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile, so
// that the figure is not set by one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted. It
// refuses a percentile with fewer than minBeyond samples above it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	rank := int(q*float64(n)+0.999999999) - 1 // ceil(q*n) - 1, robust to float error
	if rank < 0 {
		rank = 0
	}
	if n == 0 || n-1-rank < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d samples beyond it, want at least %d",
			q*100, n, max(n-1-rank, 0), minBeyond)
	}
	return sorted[rank], nil
}

// median returns the median of xs (the mean of the middle two for an even
// count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
