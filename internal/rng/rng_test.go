package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical values out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child must not replay the parent's stream.
	p := New(7)
	p.Uint64() // consume the value used to seed the child
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatalf("child stream mirrors parent at step %d", i)
		}
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 8, 100, 1 << 20, 1<<63 + 12345} {
		for i := 0; i < 200; i++ {
			v := r.Uint64n(n)
			if v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n == 0")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared-ish sanity: each of 8 buckets should receive roughly
	// count/8 samples.
	r := New(99)
	const n, samples = 8, 80000
	counts := make([]int, n)
	for i := 0; i < samples; i++ {
		counts[r.Uint64n(n)]++
	}
	expected := float64(samples) / n
	for b, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("bucket %d: got %d, expected ~%.0f", b, c, expected)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		g := r.Float64Open()
		if g <= 0 || g > 1 {
			t.Fatalf("Float64Open out of (0,1]: %v", g)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const samples = 100000
	sum := 0.0
	for i := 0; i < samples; i++ {
		sum += r.Float64()
	}
	mean := sum / samples
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of Float64 = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(2)
	const p, samples = 0.3, 100000
	hits := 0
	for i := 0; i < samples; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / samples
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, rate)
	}
}

func TestExpPositiveAndMean(t *testing.T) {
	r := New(4)
	const samples = 100000
	sum := 0.0
	for i := 0; i < samples; i++ {
		v := r.Exp()
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / samples
	if math.Abs(mean-1.0) > 0.02 {
		t.Fatalf("Exp mean = %v, want ~1", mean)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(8)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d != %d", got, sum)
	}
}

func TestMul64AgainstBigProducts(t *testing.T) {
	cases := []struct{ x, y, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.x, c.y)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.x, c.y, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}
