package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q·n samples at or below it. xs need not
// be sorted; it is not modified. An empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(max(nearestRank(q, len(s)), 1), len(s))-1]
}

// nearestRank is the 1-based rank of the q-quantile of n samples. The
// epsilon keeps float error in q·n (0.999·10000 = 9990.000000000002)
// from pushing the rank one too high.
func nearestRank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailPercentiles are the candidate tail percentiles, highest last.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest candidate percentile that still has
// at least ten of n samples beyond it, so the tail it reports rests on
// more than one or two outliers. It returns 0 when even the median has
// fewer than ten samples above it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-nearestRank(p/100, n) >= 10 {
			best = p
		}
	}
	return best
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
