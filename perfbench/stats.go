package main

import (
	"math"
	"slices"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile: the tail is the highest percentile that still has this many
// samples beyond it, so it never rests on one or two outliers.
const tailBeyond = 10

// tail is a tail latency together with the percentile it sits at and the
// number of samples it was taken from.
type tail struct {
	Value   float64 `json:"value"`
	Pct     float64 `json:"pct"`
	Samples int     `json:"samples"`
	// Exact is false when there were too few samples to leave tailBeyond
	// of them beyond any percentile; Value is then the maximum.
	Exact bool `json:"exact"`
}

// tailOf returns the highest percentile of xs that has at least
// tailBeyond samples above it. With n samples sorted ascending that is
// the sample at index n-1-tailBeyond, which is the 100·(n-tailBeyond)/n
// percentile.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n <= tailBeyond {
		return tail{Value: s[n-1], Pct: 100, Samples: n}
	}
	i := n - 1 - tailBeyond
	return tail{Value: s[i], Pct: 100 * float64(i+1) / float64(n), Samples: n, Exact: true}
}

// median returns the median of xs (the mean of the middle pair for even
// lengths), or NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
