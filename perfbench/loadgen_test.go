package main

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDue: with one worker and requests due faster than
// it serves them, each request's latency includes its wait behind the
// earlier ones, because it is measured from the due time.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const service = 20 * time.Millisecond
	plan := []planned{{Due: 0}, {Due: time.Millisecond}, {Due: 2 * time.Millisecond}}
	outs := runOpenLoop(time.Now(), plan, map[int]int{0: 1}, func(int, planned) error {
		time.Sleep(service)
		return nil
	})
	for i, o := range outs {
		// Request i finishes after i+1 services; it was due at i ms.
		min := time.Duration(i+1)*service - o.Due
		if o.Latency < min {
			t.Errorf("request %d: latency %v, want at least %v (queueing counted)", i, o.Latency, min)
		}
		if o.Late > service/2 {
			t.Errorf("request %d: generator %v late; it must not wait for the worker", i, o.Late)
		}
	}
}

// TestOpenLoopLanes: a slow kind does not delay a fast kind that has a
// lane of its own.
func TestOpenLoopLanes(t *testing.T) {
	plan := []planned{{Due: 0, Kind: 1}, {Due: time.Millisecond, Kind: 0}}
	var calls atomic.Int32
	outs := runOpenLoop(time.Now(), plan, map[int]int{0: 1, 1: 1}, func(_ int, p planned) error {
		calls.Add(1)
		if p.Kind == 1 {
			time.Sleep(100 * time.Millisecond)
		}
		return nil
	})
	if calls.Load() != 2 {
		t.Fatalf("%d calls", calls.Load())
	}
	if outs[1].Latency > 50*time.Millisecond {
		t.Errorf("fast request waited %v behind the slow lane", outs[1].Latency)
	}
}

func TestPoissonSchedule(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	plan := poisson(nil, rng, 1000, time.Second, 2*time.Second, 3, 8)
	if n := len(plan); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals at 1000/s over 2s", n)
	}
	for i, p := range plan {
		if p.Due < time.Second || p.Due >= 3*time.Second || p.Kind != 3 || p.Arg < 0 || p.Arg >= 8 {
			t.Fatalf("arrival %d out of range: %+v", i, p)
		}
		if i > 0 && p.Due < plan[i-1].Due {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
}
