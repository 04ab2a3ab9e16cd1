// Command perfbench is graphdiam's end-to-end and per-layer benchmark.
//
//	perfbench --workload road-cold --seed 1 --seconds 20 --trace 0
//
// It generates a workload's inputs from the seed, boots in-process
// graphdiamd daemons (server.Server over loopback HTTP, one dataset
// catalog each), drives their HTTP API for --seconds, checks every reply,
// and prints one JSON line: with --trace 0 the end-to-end metrics, with
// --trace 1 the per-layer metrics of a traced run that calls each layer's
// functions on the same inputs. A diagnostics line (calibration kernel,
// load-generator lag, failure tallies per phase, tail percentiles and
// their sample counts) precedes the result. See README.md for the
// workloads, metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// workload is one named traffic mix.
type workload struct {
	Name   string
	run    func(e *env) (map[string]float64, error)
	traced func(e *env) (map[string]float64, error)
}

// workloads lists every workload, in BENCHMARK.json order.
var workloads = []workload{
	{"road-cold", roadCold.run, roadCold.traced},
	{"rmat-raw-cold", rmatRawCold.run, rmatRawCold.traced},
	{"serve-mixed", mixedWorkload{}.run, mixedWorkload{}.traced},
}

// roadCold is the paper's main family: a connected synthetic road
// network. rmatRawCold is R-MAT kept whole, isolated vertices and all.
var (
	roadCold    = coldWorkload{Spec: "road:512"}
	rmatRawCold = coldWorkload{Spec: "rmat:15"}
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measuring time of the run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	work := fs.String("workdir", ".bench_build", "scratch directory for catalogs, the oracle cache and traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].Name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	workAbs, err := filepath.Abs(*work)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workAbs, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(workAbs, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	e := &env{
		Workload: wl.Name, Seed: *seed, Seconds: *seconds, Work: workAbs, RunDir: runDir,
		Client: newClient(), Acct: newAccounting(), Diag: map[string]any{},
	}
	defer e.Client.CloseIdleConnections()
	calib := calibrate()
	e.Diag["calib_kernel_ms"] = calib

	defs, measure := endToEnd, wl.run
	if *trace == 1 {
		defs, measure = perLayer, wl.traced
	}
	values, err := measure(e)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.Name, err)
	}
	if *trace == 1 {
		values["calib.kernel_ms"] = calib
	}
	res, err := buildResult(defs, values, e.Acct)
	if err != nil {
		return err
	}
	e.Diag["failed_ratio"] = e.Acct.failedRatio()
	e.Diag["phases"] = e.Acct.snapshot()
	return printLines(map[string]any{"workload": wl.Name, "seed": *seed, "diagnostics": e.Diag}, res)
}

// printLines prints the diagnostics line and then the result line, which
// must be the last line of standard output.
func printLines(diag map[string]any, res result) error {
	d, err := json.Marshal(diag)
	if err != nil {
		return fmt.Errorf("diagnostics: %w", err)
	}
	r, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Printf("%s\n%s\n", d, r)
	return err
}
