package gen

import (
	"testing"

	"graphdiam/internal/cc"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
)

func TestBarabasiAlbert(t *testing.T) {
	r := rng.New(1)
	g := BarabasiAlbert(500, 3, r)
	if g.NumNodes() != 500 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if !cc.IsConnected(g) {
		t.Fatal("BA graph must be connected")
	}
	// Edge count: clique on 4 nodes (6) + 496·3.
	want := 6 + 496*3
	if g.NumEdges() != want {
		t.Fatalf("m = %d, want %d", g.NumEdges(), want)
	}
	// Degree skew: hubs should exist.
	s := g.Stats()
	avg := 2 * float64(s.NumEdges) / float64(s.NumNodes)
	if float64(s.MaxDegree) < 4*avg {
		t.Fatalf("BA max degree %d not skewed vs avg %.1f", s.MaxDegree, avg)
	}
}

func TestBarabasiAlbertSmallN(t *testing.T) {
	g := BarabasiAlbert(3, 5, rng.New(2))
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("tiny BA should be K3: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("m=0 should panic")
		}
	}()
	BarabasiAlbert(10, 0, rng.New(1))
}

func TestWattsStrogatzLattice(t *testing.T) {
	// beta = 0: pure ring lattice, all degrees = k.
	g := WattsStrogatz(60, 4, 0, rng.New(3))
	for u := 0; u < 60; u++ {
		if g.Degree(graph.NodeID(u)) != 4 {
			t.Fatalf("lattice degree of %d = %d, want 4", u, g.Degree(graph.NodeID(u)))
		}
	}
	if !cc.IsConnected(g) {
		t.Fatal("lattice disconnected")
	}
}

func TestWattsStrogatzRewiringShrinksDiameter(t *testing.T) {
	// Small-world effect: a little rewiring collapses the hop diameter.
	latticeHops := bfsDiameter(WattsStrogatz(200, 4, 0, rng.New(4)))
	rewiredHops := bfsDiameter(WattsStrogatz(200, 4, 0.3, rng.New(4)))
	if rewiredHops >= latticeHops {
		t.Fatalf("rewiring did not shrink diameter: %d vs %d", rewiredHops, latticeHops)
	}
}

// bfsDiameter is a small local helper (double sweep, good enough for tests).
func bfsDiameter(g *graph.Graph) int {
	far := bfsFarthest(g, 0)
	_, d := bfsEcc(g, far)
	return d
}

func bfsFarthest(g *graph.Graph, s graph.NodeID) graph.NodeID {
	f, _ := bfsEcc(g, s)
	return f
}

func bfsEcc(g *graph.Graph, s graph.NodeID) (graph.NodeID, int) {
	n := g.NumNodes()
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	queue := []graph.NodeID{s}
	depth[s] = 0
	far, best := s, 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		ts, _ := g.Neighbors(u)
		for _, v := range ts {
			if depth[v] < 0 {
				depth[v] = depth[u] + 1
				if depth[v] > best {
					best, far = depth[v], v
				}
				queue = append(queue, v)
			}
		}
	}
	return far, best
}

func TestWattsStrogatzValidation(t *testing.T) {
	for _, f := range []func(){
		func() { WattsStrogatz(10, 3, 0, rng.New(1)) }, // odd k
		func() { WattsStrogatz(10, 0, 0, rng.New(1)) }, // k < 2
		func() { WattsStrogatz(4, 4, 0, rng.New(1)) },  // k >= n
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(5)
	if g.NumNodes() != 32 || g.NumEdges() != 32*5/2 {
		t.Fatalf("Q5 shape: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	for u := 0; u < 32; u++ {
		if g.Degree(graph.NodeID(u)) != 5 {
			t.Fatal("hypercube degree wrong")
		}
	}
	// Diameter = dimension.
	if d := bfsDiameter(g); d != 5 {
		t.Fatalf("Q5 diameter = %d, want 5", d)
	}
}

func BenchmarkBarabasiAlbert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BarabasiAlbert(1<<13, 4, rng.New(uint64(i)))
	}
}
