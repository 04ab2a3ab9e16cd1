// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout graphdiam. Experiments must be reproducible
// across runs and machines, so all randomized components (center selection,
// graph generation, weight assignment) take an explicit *rng.RNG seeded by
// the caller rather than relying on global state.
//
// The generator is xoshiro256**, seeded via splitmix64, following the
// reference construction by Blackman and Vigna. Both primitives are
// implemented here from their public-domain specifications.
package rng

import "math"

// SplitMix64 is a tiny 64-bit generator mainly used to seed xoshiro state
// and to derive independent per-worker streams from a master seed.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a xoshiro256** generator. The zero value is not valid; use New.
type RNG struct {
	s [4]uint64
}

// New returns an RNG seeded from seed. Distinct seeds yield streams that are
// independent for all practical purposes.
func New(seed uint64) *RNG {
	sm := NewSplitMix64(seed)
	r := &RNG{}
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// Guard against the (astronomically unlikely) all-zero state, which is
	// the single fixed point of xoshiro256**.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a new, independently seeded RNG from this one. It is the
// supported way to hand independent streams to parallel workers.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		hi, lo := mul64(r.Uint64(), n)
		if lo >= threshold {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1]. This is the distribution
// the paper assigns to edge weights of originally-unweighted graphs.
func (r *RNG) Float64Open() float64 {
	return 1.0 - r.Float64()
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with rate 1.
func (r *RNG) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
