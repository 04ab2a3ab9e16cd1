package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// nameRE is the shape every workload and metric name must have.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the shape every metric unit must have.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestNamesMatchBenchmarkFile: every workload and metric name is valid,
// used once, and listed in BENCHMARK.json with the unit the harness
// reports.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	valid := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q invalid or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s invalid", unit, name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		valid(w.Name, "")
		if bf.Workloads[i].Name != w.Name || len(bf.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: file has %q, harness %q", i, bf.Workloads[i].Name, w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("file lists %d/%d metrics, harness %d/%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		valid(d.Name, d.Unit)
		f := bf.EndToEnd[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Bound <= 0 || f.Bound > 0.25 {
			t.Errorf("end-to-end %d: file %+v, harness %+v", i, f, d)
		}
	}
	for i, d := range perLayer {
		valid(d.Name, d.Unit)
		if f := bf.PerLayer[i]; f.Name != d.Name || f.Unit != d.Unit {
			t.Errorf("per-layer %d: file %+v, harness %+v", i, f, d)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
}

// TestFailureAccounting: every failed operation is counted against its
// phase and makes the run incorrect; nothing is filtered out.
func TestFailureAccounting(t *testing.T) {
	a := newAccounting()
	for i := 0; i < 8; i++ {
		a.record("reads", nil)
	}
	a.record("reads", errors.New("HTTP 500"))
	a.record("reads", &statusError{Code: 503})
	a.record("writes", nil)
	a.record("writes", errors.New("append did not move the head"))
	att, failed := a.totals()
	if att != 12 || failed != 3 {
		t.Fatalf("totals %d/%d, want 12 attempted, 3 failed", att, failed)
	}
	r := a.failedRatio()
	if r["reads"] != 0.2 || r["writes"] != 0.5 {
		t.Errorf("failed ratios %v", r)
	}
	values := map[string]float64{}
	for _, d := range endToEnd {
		values[d.Name] = 1
	}
	res, err := buildResult(endToEnd, values, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 3 || res.Attempted != 12 {
		t.Errorf("result %+v, want incorrect with 3 of 12 failed", res)
	}
	clean := newAccounting()
	clean.record("reads", nil)
	if res, _ := buildResult(endToEnd, values, clean); !res.Correct {
		t.Error("a run with no failure is not correct")
	}
	if res, _ := buildResult(endToEnd, values, newAccounting()); res.Correct {
		t.Error("a run that attempted nothing is correct")
	}

	delete(values, "setup_s")
	if _, err := buildResult(endToEnd, values, clean); err == nil {
		t.Error("a missing metric was accepted")
	}
	values["setup_s"] = math.NaN()
	if _, err := buildResult(endToEnd, values, clean); err == nil {
		t.Error("a NaN metric was accepted")
	}
}

// TestRungJudgement: a failed read fails its rung, a backlog that does
// not drain within the limit fails it, and sustained_qps interpolates
// between the last passing rung and the first failing one.
func TestRungJudgement(t *testing.T) {
	span := time.Second
	read := func(due, lat time.Duration, err error) outcome {
		return outcome{planned: planned{Due: due, Kind: kindRead}, Latency: lat, Err: err}
	}
	var ok []outcome
	for i := 0; i < 100; i++ {
		ok = append(ok, read(time.Duration(i)*10*time.Millisecond, time.Millisecond, nil))
	}
	if r := judge(ok, 100, span); !r.Pass || r.Reads != 100 {
		t.Errorf("clean rung: %+v", r)
	}
	withFail := append(append([]outcome{}, ok...), read(0, time.Millisecond, errors.New("HTTP 502")))
	if r := judge(withFail, 100, span); r.Pass || r.Failed != 1 {
		t.Errorf("rung with a failed read passed: %+v", r)
	}
	backlog := append(append([]outcome{}, ok...), read(990*time.Millisecond, 200*time.Millisecond, nil))
	if r := judge(backlog, 100, span); r.Pass {
		t.Errorf("rung whose last read finished %v after the end passed: %+v", r.DrainMS, r)
	}

	pass := rungResult{Rate: 1000, Achieved: 1000, Reads: 1, Tail: tail{Value: 10}, Pass: true}
	fail := rungResult{Rate: 2000, Achieved: 2000, Reads: 1, Tail: tail{Value: 250}}
	got := sustained([]rungResult{pass, fail})
	// log-linear: 10 → 250 ms over 1000 reads/s, 50 ms is half way.
	if math.Abs(got-1500) > 1e-9 {
		t.Errorf("sustained %v, want 1500", got)
	}
	if got := sustained([]rungResult{pass, pass}); got != 1000 {
		t.Errorf("all rungs pass: %v, want the top rung's achieved rate", got)
	}
	if got := sustained([]rungResult{fail}); got != 2000*50.0/250 {
		t.Errorf("first rung fails: %v, want its rate scaled by limit/tail", got)
	}
}

func TestUnchained(t *testing.T) {
	links := []appendReply{{PrevSHA: "b", HeadSHA: "c"}, {PrevSHA: "a", HeadSHA: "b"}}
	if n := unchained("a", links); n != 0 {
		t.Errorf("a→b→c: %d unchained", n)
	}
	links = append(links, appendReply{PrevSHA: "x", HeadSHA: "y"})
	if n := unchained("a", links); n != 1 {
		t.Errorf("stray x→y: %d unchained, want 1", n)
	}
}
