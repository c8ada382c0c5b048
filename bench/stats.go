package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted
// values by the nearest-rank rule: the smallest value with at least
// p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly above the p-th percentile's rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailLadder are the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is set by a handful of outliers.
const minBeyond = 10

// tailOf reports a latency tail of sorted values. It starts at the
// workload's declared percentile and steps down the ladder until at
// least minBeyond samples lie beyond the one it reports. Declaring the
// percentile per workload, well inside what its sample count supports,
// keeps a run from flipping between two percentiles when its count
// sits near a threshold.
func tailOf(sorted []float64, declared float64) (pct, value float64) {
	for _, p := range tailLadder {
		if p > declared {
			continue
		}
		if beyond(len(sorted), p) >= minBeyond || p == tailLadder[len(tailLadder)-1] {
			return p, percentile(sorted, p)
		}
	}
	return 50, percentile(sorted, 50)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, by the same "exclusive" rule as Python's
// statistics.quantiles(v, n=4), so the number printed here is the one
// the driver computes across runs. Fewer than two values have no
// spread.
func quartileSpread(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(k int) float64 { // k-th quartile
		pos := float64(k) * float64(n+1) / 4
		i := int(pos)
		if i < 1 {
			i = 1
		}
		if i > n-1 {
			i = n - 1
		}
		frac := pos - float64(i)
		return s[i-1] + frac*(s[i]-s[i-1])
	}
	return (q(3) - q(1)) / med
}
