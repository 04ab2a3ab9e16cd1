package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics every untraced run reports, on every
// workload, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_tail_ms", "ms"},
	{"approx_ratio", "ratio"},
	{"sustained_qps", "1/s"},
	{"write_p50_ms", "ms"},
	{"write_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run reports, on every workload.
var perLayer = []metricDef{
	{"gio.parse_ms", "ms"},
	{"gio.bytes", "bytes"},
	{"graph.build_ms", "ms"},
	{"graph.edges", "count"},
	{"dataset.write_ms", "ms"},
	{"dataset.load_ms", "ms"},
	{"dataset.append_ms", "ms"},
	{"dataset.chain_len_max", "count"},
	{"dataset.compactions", "count"},
	{"core.cluster_ms", "ms"},
	{"core.cluster_1w_ms", "ms"},
	{"core.stages", "count"},
	{"core.growing_steps", "count"},
	{"core.clusters", "count"},
	{"core.clusters_per_tau", "ratio"},
	{"bsp.rounds", "count"},
	{"bsp.messages", "count"},
	{"bsp.updates", "count"},
	{"bsp.barrier_share", "ratio"},
	{"quotient.build_ms", "ms"},
	{"quotient.diameter_ms", "ms"},
	{"quotient.nodes", "count"},
	{"quotient.edges", "count"},
	{"quotient.components", "count"},
	{"store.hit_us", "us"},
	{"store.miss_overhead_ms", "ms"},
	{"store.hit_ratio", "ratio"},
	{"store.computations", "count"},
	{"store.dedups", "count"},
	{"server.handler_us", "us"},
	{"server.loopback_us", "us"},
	{"fleet.hop_us", "us"},
	{"fleet.proxy_attempts", "count"},
	{"fleet.proxy_retries", "count"},
	{"gio.self_ms", "ms"},
	{"graph.self_ms", "ms"},
	{"dataset.self_ms", "ms"},
	{"core.self_ms", "ms"},
	{"quotient.self_ms", "ms"},
	{"store.self_ms", "ms"},
	{"server.self_ms", "ms"},
	{"fleet.self_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"loadgen.late_ms", "ms"},
	{"calib.kernel_ms", "ms"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phaseCount is the failure tally of one phase of a run.
type phaseCount struct {
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

// maxKeptErrors bounds how many failure messages a phase keeps for the
// diagnostics line; every failure is still counted.
const maxKeptErrors = 5

// accounting counts attempted and failed operations per phase. An
// operation fails on a non-2xx reply, a timeout, or a failed correctness
// check; each failure is counted once, never filtered out.
type accounting struct {
	mu     sync.Mutex
	phases map[string]*phaseCount
}

func newAccounting() *accounting { return &accounting{phases: map[string]*phaseCount{}} }

func (a *accounting) phase(name string) *phaseCount {
	p, ok := a.phases[name]
	if !ok {
		p = &phaseCount{}
		a.phases[name] = p
	}
	return p
}

// record counts one attempted operation of phase, failed when err != nil.
func (a *accounting) record(phase string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.phase(phase)
	p.Attempted++
	if err != nil {
		p.Failed++
		if len(p.Errors) < maxKeptErrors {
			p.Errors = append(p.Errors, err.Error())
		}
	}
}

// totals returns attempted and failed summed over phases.
func (a *accounting) totals() (attempted, failed int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, p := range a.phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

// failedRatio returns failed over attempted per phase, the failed_ratio
// diagnostic.
func (a *accounting) failedRatio() map[string]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := map[string]float64{}
	for name, p := range a.phases {
		if p.Attempted > 0 {
			out[name] = float64(p.Failed) / float64(p.Attempted)
		}
	}
	return out
}

// snapshot copies the per-phase tallies for the diagnostics line.
func (a *accounting) snapshot() map[string]phaseCount {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := map[string]phaseCount{}
	for name, p := range a.phases {
		out[name] = *p
	}
	return out
}

// buildResult assembles the final line from the measured values, which
// must cover exactly the metrics of defs.
func buildResult(defs []metricDef, values map[string]float64, acct *accounting) (result, error) {
	if len(values) != len(defs) {
		var extra []string
		for k := range values {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return result{}, fmt.Errorf("measured %d metrics %v, want %d", len(values), extra, len(defs))
	}
	res := result{Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	res.Attempted, res.Failed = acct.totals()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}
