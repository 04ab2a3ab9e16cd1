package gen

import (
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
)

// BarabasiAlbert generates a preferential-attachment graph: starting from a
// small clique, each new node attaches m edges to existing nodes chosen
// with probability proportional to their degree (implemented with the
// standard repeated-endpoint trick). Produces power-law degree
// distributions like R-MAT but with guaranteed connectivity — a useful
// second social-network model for robustness tests.
func BarabasiAlbert(n, m int, r *rng.RNG) *graph.Graph {
	if m < 1 {
		panic("gen: BarabasiAlbert needs m >= 1")
	}
	if n <= m {
		return Complete(n)
	}
	b := graph.NewBuilder(n, n*m)
	// Endpoint list: each edge contributes both endpoints, so sampling a
	// uniform element is degree-proportional sampling.
	endpoints := make([]graph.NodeID, 0, 2*n*m)
	// Seed clique on m+1 nodes.
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j), 1)
			endpoints = append(endpoints, graph.NodeID(i), graph.NodeID(j))
		}
	}
	for v := m + 1; v < n; v++ {
		attached := map[graph.NodeID]bool{}
		for len(attached) < m {
			t := endpoints[r.Intn(len(endpoints))]
			if int(t) == v || attached[t] {
				continue
			}
			attached[t] = true
			b.AddEdge(graph.NodeID(v), t, 1)
		}
		for t := range attached {
			endpoints = append(endpoints, graph.NodeID(v), t)
		}
	}
	return b.Build()
}

// WattsStrogatz generates a small-world graph: a ring lattice where each
// node connects to its k nearest neighbours (k even), with each edge
// rewired to a uniform random endpoint with probability beta. beta=0 is
// the lattice (large diameter), beta=1 approaches G(n, nk/2).
func WattsStrogatz(n, k int, beta float64, r *rng.RNG) *graph.Graph {
	if k%2 != 0 || k < 2 {
		panic("gen: WattsStrogatz needs even k >= 2")
	}
	if k >= n {
		panic("gen: WattsStrogatz needs k < n")
	}
	b := graph.NewBuilder(n, n*k/2)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if r.Bernoulli(beta) {
				// Rewire to a uniform non-self endpoint.
				for {
					w := r.Intn(n)
					if w != u {
						v = w
						break
					}
				}
			}
			if graph.NodeID(u) != graph.NodeID(v) {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
			}
		}
	}
	return b.Build()
}

// Hypercube returns the d-dimensional hypercube (2^d nodes, unit weights):
// a doubling-dimension-Θ(d) graph used to stress the dependence of the
// decomposition on dimension.
func Hypercube(d int) *graph.Graph {
	n := 1 << uint(d)
	b := graph.NewBuilder(n, n*d/2)
	for u := 0; u < n; u++ {
		for bit := 0; bit < d; bit++ {
			v := u ^ (1 << uint(bit))
			if u < v {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
			}
		}
	}
	return b.Build()
}
