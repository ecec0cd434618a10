package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, or the mean of the two middle
// values for an even count (NaN when xs is empty), as Python's
// statistics.median computes it.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that divide xs into four groups,
// by the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), so spreads computed here match the ones
// the benchmark's consumers compute from its output. It needs at least two
// values; with fewer, all three are the single value (or NaN).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range of xs as a share of its median: the
// run-to-run variability measure a metric's bound is compared against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// tailPercentile returns the highest whole percentile p, at most 99, whose
// nearest-rank value still has at least ten of n samples above it, so a
// reported tail is never set by a handful of outliers. ok is false when
// even the median has fewer than ten samples beyond it (n < 20).
func tailPercentile(n int) (p int, ok bool) {
	if n < 20 {
		return 0, false
	}
	p = 100 * (n - 10) / n
	if p > 99 {
		p = 99
	}
	return p, true
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// value with at least p% of the samples at or below it.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := (p*len(s) + 99) / 100 // ceil(p·n/100)
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
