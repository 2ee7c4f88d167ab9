package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics guide, section 1); p99 therefore needs 1 000 samples.
const minBeyond = 10

// percentile returns the exact q-quantile (nearest rank) of sorted,
// which must be ascending, and whether at least minBeyond samples lie
// beyond it. An empty input yields 0, false.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// highestPercentile returns the highest of p99, p95, p90 that has
// minBeyond samples beyond it, falling back to the median.
func highestPercentile(sorted []float64) (q, v float64) {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if v, ok := percentile(sorted, q); ok {
			return q, v
		}
	}
	v, _ = percentile(sorted, 0.5)
	return 0.5, v
}

// median is the nearest-rank median of unsorted vals.
func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	v, _ := percentile(s, 0.5)
	return v
}

// sortedMicros converts latencies to ascending microseconds.
func sortedMicros(lat []time.Duration) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	slices.Sort(out)
	return out
}

// medianNanos is the median of lat in nanoseconds.
func medianNanos(lat []time.Duration) float64 {
	s := slices.Clone(lat)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	return float64(s[(len(s)-1)/2].Nanoseconds())
}

// ratio returns a/b, or 0 when b is 0 (an empty phase at tiny scale).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
