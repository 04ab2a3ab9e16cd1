package main

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestTailLeavesTenBeyond: the tail is the highest percentile with at
// least tailBeyond samples above it, whatever the order of the input.
func TestTailLeavesTenBeyond(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, n := range []int{11, 12, 40, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		got := tailOf(xs)
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if beyond != tailBeyond || !got.Exact || got.Samples != n {
			t.Errorf("n=%d: tail %v has %d samples beyond, want %d", n, got, beyond, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); got.Pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, got.Pct, want)
		}
	}
	if got := tailOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}); got.Value != 100 || got.Exact || got.Pct != 100 {
		t.Errorf("10 samples: %+v, want the maximum marked inexact", got)
	}
	if got := tailOf(nil); got.Samples != 0 {
		t.Errorf("no samples: %+v", got)
	}
	// 100 samples: p90, the 90th smallest.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := tailOf(xs); got.Value != 90 || got.Pct != 90 {
		t.Errorf("1..100: %+v, want 90 at p90", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("empty median/mean should be NaN")
	}
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("mean = %v", m)
	}
}
