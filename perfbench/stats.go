package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a reported tail percentile must leave
// above it.
const minBeyond = 10

// percentile is the nearest-rank q-quantile (0 < q <= 1) of values: the
// smallest value with at least q of the samples at or below it. NaN for
// no samples.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// beyond is how many of n samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailFor is the highest of p99 and p90 that leaves at least minBeyond of
// n samples above it, or 0 when neither does.
func tailFor(n int) float64 {
	for _, q := range []float64{0.99, 0.90} {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

func median(values []float64) float64 { return percentile(values, 0.5) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
