// Package graphdiam's root-level benchmarks regenerate every table and
// figure of the paper's evaluation (Section 5). Each benchmark prints the
// corresponding rows/series once per run via b.Log so that
//
//	go test -bench=. -benchmem
//
// produces both timing and the paper's comparison data. The mapping from
// benchmark to paper artifact is in DESIGN.md ("Experiment index").
package main

import (
	"bytes"
	"sync"
	"testing"

	"graphdiam/internal/exp"
)

// benchScale keeps the bench suite runnable in CI time; switch to
// exp.ScaleDefault locally for the full-size instances (cmd/experiments
// uses the default scale).
const benchScale = exp.ScaleTest

var (
	graphsOnce sync.Once
	graphsMemo []exp.NamedGraph
)

func benchGraphs() []exp.NamedGraph {
	graphsOnce.Do(func() {
		graphsMemo = exp.BenchmarkGraphs(benchScale, 12345)
	})
	return graphsMemo
}

// BenchmarkTable1Stats regenerates Table 1 (benchmark graph properties).
func BenchmarkTable1Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Table1(benchScale)
		if i == 0 {
			var buf bytes.Buffer
			exp.WriteTable1(&buf, rows)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkTable2 regenerates one Table 2 row (and the matching bars of
// Figures 1-3) per sub-benchmark: CL-DIAM vs Δ-stepping on each graph.
func BenchmarkTable2(b *testing.B) {
	for _, ng := range benchGraphs() {
		ng := ng
		b.Run(ng.Name, func(b *testing.B) {
			var last exp.Row
			for i := 0; i < b.N; i++ {
				last = exp.Compare(ng, exp.CompareOptions{Workers: 4, Seed: 7})
			}
			var buf bytes.Buffer
			exp.WriteTable2(&buf, []exp.Row{last})
			b.Log("\n" + buf.String())
		})
	}
}

// BenchmarkFig1ApproxRatio isolates the approximation-quality measurement
// of Figure 1 (the ratio columns of Table 2) on the road benchmark.
func BenchmarkFig1ApproxRatio(b *testing.B) {
	ng := benchGraphs()[0]
	var row exp.Row
	for i := 0; i < b.N; i++ {
		row = exp.Compare(ng, exp.CompareOptions{Workers: 4, Seed: 11})
	}
	b.Logf("ratio CL-DIAM=%.3f Δ-stepping=%.3f (paper: 1.26 vs 1.09 on roads-USA)",
		row.RatioCL, row.RatioDS)
}

// BenchmarkFig2Rounds isolates the round-count comparison of Figure 2.
func BenchmarkFig2Rounds(b *testing.B) {
	ng := benchGraphs()[0]
	var row exp.Row
	for i := 0; i < b.N; i++ {
		row = exp.Compare(ng, exp.CompareOptions{Workers: 4, Seed: 13})
	}
	b.Logf("rounds CL-DIAM=%d Δ-stepping=%d (paper: 74 vs 11268 on roads-USA)",
		row.RoundsCL, row.RoundsDS)
}

// BenchmarkFig3Work isolates the work comparison of Figure 3.
func BenchmarkFig3Work(b *testing.B) {
	ng := benchGraphs()[0]
	var row exp.Row
	for i := 0; i < b.N; i++ {
		row = exp.Compare(ng, exp.CompareOptions{Workers: 4, Seed: 17})
	}
	b.Logf("work CL-DIAM=%d Δ-stepping=%d (paper: 4.22e8 vs 1.35e11 on roads-USA)",
		row.WorkCL, row.WorkDS)
}

// BenchmarkTable3BigGraphs regenerates Table 3 (CL-DIAM on the largest
// instances, where the baseline is impractical).
func BenchmarkTable3BigGraphs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Table3(benchScale, 4, 3)
		if i == 0 {
			var buf bytes.Buffer
			exp.WriteTable3(&buf, rows)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkFig4Scalability regenerates Figure 4 (simulated parallel time
// versus worker count; see DESIGN.md, "Substitutions", for the simulation
// rationale).
func BenchmarkFig4Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := exp.Fig4(benchScale, []int{1, 2, 4, 8, 16}, 5)
		if i == 0 {
			var buf bytes.Buffer
			exp.WriteFig4(&buf, points)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkDeltaSensitivity regenerates the Section 5 initial-Δ experiment.
func BenchmarkDeltaSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.DeltaSens(benchScale, 77)
		if i == 0 {
			var buf bytes.Buffer
			exp.WriteDeltaSens(&buf, rows)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkWeightObliviousAblation regenerates the weight-obliviousness
// ablation (the paper's Section 1 remark on [CPPU15]).
func BenchmarkWeightObliviousAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.WeightOblivious(benchScale, 5)
		if i == 0 {
			var buf bytes.Buffer
			exp.WriteWeightOblivious(&buf, rows)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkCorollary1 regenerates the rounds-vs-τ series on a mesh of
// doubling dimension 2 (Corollary 1's regime).
func BenchmarkCorollary1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := exp.Corollary1(benchScale, 3)
		if i == 0 {
			var buf bytes.Buffer
			exp.WriteCorollary1(&buf, points)
			b.Log("\n" + buf.String())
		}
	}
}

// BenchmarkStepCapAblation regenerates the Section 4.1 step-cap ablation.
func BenchmarkStepCapAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.StepCap(benchScale, 3)
		if i == 0 {
			var buf bytes.Buffer
			exp.WriteStepCap(&buf, rows)
			b.Log("\n" + buf.String())
		}
	}
}
