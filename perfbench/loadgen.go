package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// planned is one request of an open-loop schedule: when it is due,
// relative to the start of the schedule, and what it does.
type planned struct {
	Due time.Duration
	// Kind tags the request for the caller (read, write, ...).
	Kind int
	// Arg is the caller's per-request argument (a key index, a delta).
	Arg int
}

// outcome is what happened to one planned request. Latency is measured
// from the due time, not from when the request was sent, so a stall that
// delays later requests is charged to them too.
type outcome struct {
	planned
	// Late is how long after its due time the generator handed the
	// request to a worker: the generator's own lag, not the server's.
	Late time.Duration
	// Latency is completion minus due time.
	Latency time.Duration
	Err     error
}

// poisson appends arrivals of a Poisson process of the given rate over
// [from, from+span) to dst, each tagged with kind and an Arg drawn from
// [0, args).
func poisson(dst []planned, rng *rand.Rand, rate float64, from, span time.Duration, kind, args int) []planned {
	t := from
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= from+span {
			return dst
		}
		arg := 0
		if args > 0 {
			arg = rng.IntN(args)
		}
		dst = append(dst, planned{Due: t, Kind: kind, Arg: arg})
	}
}

// periodic appends requests every 1/rate seconds over [0, span), from a
// random phase inside the first period, each tagged with kind and an Arg
// drawn from [0, args).
func periodic(dst []planned, rng *rand.Rand, rate float64, span time.Duration, kind, args int) []planned {
	period := time.Duration(float64(time.Second) / rate)
	for t := time.Duration(rng.Int64N(int64(period))); t < span; t += period {
		dst = append(dst, planned{Due: t, Kind: kind, Arg: rng.IntN(args)})
	}
	return dst
}

// runOpenLoop issues plan (sorted by Due) on schedule from start and
// returns one outcome per request in plan order. It sleeps until each
// due time; a parked Go program wakes from a timer with about a
// millisecond of granularity, and that lag is part of every latency and
// reported as Late. (Yielding in a loop before each due time removes the
// lag but competes with the daemons for the CPUs and made read tails
// markedly less steady.) Each request kind has
// its own lane of workers (lanes[kind] of them), so a slow kind cannot
// hold the client's only free worker hostage from a fast one; do is
// called for each request on a worker of its lane. The generator never
// waits for a worker: requests that find their lane busy queue, and the
// queueing is part of their latency.
func runOpenLoop(start time.Time, plan []planned, lanes map[int]int, do func(i int, p planned) error) []outcome {
	out := make([]outcome, len(plan))
	queues := map[int]chan int{}
	for _, p := range plan {
		if _, ok := queues[p.Kind]; !ok {
			// Sized to the number of sends so the generator never blocks.
			queues[p.Kind] = make(chan int, len(plan))
		}
	}
	var wg sync.WaitGroup
	for kind, q := range queues {
		workers := max(1, lanes[kind])
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(q chan int) {
				defer wg.Done()
				for i := range q {
					err := do(i, plan[i])
					out[i].Latency = time.Since(start) - plan[i].Due
					out[i].Err = err
				}
			}(q)
		}
	}
	for i, p := range plan {
		time.Sleep(time.Until(start.Add(p.Due)))
		out[i].planned = p
		out[i].Late = time.Since(start) - p.Due
		queues[p.Kind] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return out
}
