package main

import (
	"math/rand/v2"
	"slices"
	"time"
)

// calibRepeats is how many times the calibration kernel runs; its
// median is recorded.
const calibRepeats = 5

// calibrate times a fixed kernel that touches no graphdiam code — sorting
// one million pseudo-random integers from a fixed seed — and returns its
// median time in milliseconds. Recorded next to every run's metrics, it
// lets numbers taken on different machines be normalised later.
func calibrate() float64 {
	src := make([]uint64, 1<<20)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range src {
		src[i] = rng.Uint64()
	}
	buf := make([]uint64, len(src))
	var times []float64
	for i := 0; i < calibRepeats; i++ {
		copy(buf, src)
		start := time.Now()
		slices.Sort(buf)
		times = append(times, ms(time.Since(start)))
	}
	return median(times)
}
