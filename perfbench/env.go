package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its daemons up from scratch;
// setup_s is the median, so one slow disk flush does not move it.
const setupRepeats = 3

// env is the state one benchmark run shares across its phases.
type env struct {
	Workload string
	Seed     uint64
	Seconds  float64
	// Work is the benchmark's scratch root (.bench_build in a checkout);
	// RunDir is this run's own directory under it, removed at exit.
	Work   string
	RunDir string
	Client *http.Client
	Acct   *accounting
	// Diag collects diagnostics printed next to the metrics: values a
	// reader needs to interpret them that are not metrics themselves.
	Diag map[string]any
}

// oracleDir is where reference diameters are cached across runs.
func (e *env) oracleDir() string { return filepath.Join(e.Work, "oracle") }

// phaseDuration returns share of the run's measuring time.
func (e *env) phaseDuration(share float64) time.Duration {
	return time.Duration(e.Seconds * share * float64(time.Second))
}

// setup boots fresh daemons setupRepeats times with boot, timing each
// boot from daemon start to the last dataset loaded, and returns the last
// daemons (the ones the run measures) and the median time in seconds.
// Earlier daemons are stopped and their directories removed before the
// next boot, so every boot writes its catalog from empty.
func (e *env) setup(n int, boot func(ds []*daemon) error) ([]*daemon, float64, error) {
	var times []float64
	var ds []*daemon
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(e.RunDir, fmt.Sprintf("setup%d", i))
		start := time.Now()
		var err error
		ds, err = startDaemons(dir, n)
		if err == nil {
			err = boot(ds)
		}
		times = append(times, time.Since(start).Seconds())
		e.Acct.record("setup", err)
		if err != nil {
			if ds != nil {
				stopDaemons(ds)
			}
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		if i < setupRepeats-1 {
			if err := stopDaemons(ds); err != nil {
				return nil, 0, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, 0, err
			}
		}
	}
	e.Diag["setup_s_all"] = times
	return ds, median(times), nil
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS counter, so peak_rss_mb covers the workload and not the
// input generation or oracle before it. It reports whether the counter
// could be reset.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
