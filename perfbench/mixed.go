package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"time"
)

// mixedReads are serve-mixed's read-only datasets: small, so every
// (dataset, operation, seed) key of the working set fits the store's LRU
// and reads never compute once warm. Two families, connected and not.
var mixedReads = []struct{ Name, Spec string }{
	{"mesh-48", "mesh:48"},
	{"road-64", "road:64"},
	{"rmat-11", "rmat:11"},
	{"ba-3000", "ba:3000:3"},
}

// mixedWrite is the dataset serve-mixed appends to: mid-sized, so each
// append's materialisation costs real work next to the reads.
var mixedWrite = struct{ Name, Spec string }{"road-512w", "road:512"}

// mixedOps are the read operations; mixedSeedsPerKey query seeds per
// dataset and operation make up the working set.
var mixedOps = []string{"diameter", "decompose"}

const mixedSeedsPerKey = 3

// refReadRate is the read rate of the read-only and the mixed phase, in
// reads per second: low enough that reads do not queue behind each other,
// so the read latencies time the read path itself.
const refReadRate = 250

// Shares of the run: reads alone, then reads next to appends, then the
// capacity ladder.
const (
	readShare     = 0.2
	mixedShare    = 0.5
	capacityShare = 0.3
)

// capacityLadder is the fixed ladder of offered read rates, in reads per
// second, climbed in order in the capacity phase; each rung gets an equal
// share of it.
var capacityLadder = []float64{4000, 6000, 8000, 10000, 12000}

// readTailLimitMS is the latency limit a rung's read tail must meet to
// count towards sustained_qps.
const readTailLimitMS = 50.0

// writeRate is the fixed append rate, per second, in every phase.
const writeRate = 2.0

// Request kinds of the serve-mixed schedule.
const (
	kindRead = iota
	kindWrite
)

// readKey is one key of the working set: a dataset, an operation and a
// seed, with the daemon that owns the dataset.
type readKey struct {
	Dataset string
	Op      string
	Tau     int
	Seed    uint64
	Owner   int
	// Ref is the first hot reply for the key; every later read of the key
	// must return exactly these bytes, wherever it enters the fleet.
	Ref []byte
}

func (k readKey) body() queryBody { return queryBody{Graph: k.Dataset, Tau: k.Tau, Seed: k.Seed} }

// mixedInputs generates serve-mixed's datasets from the run seed.
func mixedInputs(seed uint64) (reads []*input, write *input, err error) {
	for i, d := range mixedReads {
		in, err := makeInput(d.Name, d.Spec, seed+uint64(i))
		if err != nil {
			return nil, nil, err
		}
		reads = append(reads, in)
	}
	write, err = makeInput(mixedWrite.Name, mixedWrite.Spec, seed)
	return reads, write, err
}

// bootMixed ingests every serve-mixed dataset at its owner and returns
// the write dataset's head.
func bootMixed(e *env, ds []*daemon, reads []*input, write *input) (string, error) {
	for _, in := range reads {
		o, err := ownerIndex(ds, in.Name)
		if err != nil {
			return "", err
		}
		if _, err := ingest(e.Client, ds[o].url, in.Name, in.DIMACS); err != nil {
			return "", err
		}
	}
	o, err := ownerIndex(ds, write.Name)
	if err != nil {
		return "", err
	}
	return ingest(e.Client, ds[o].url, write.Name, write.DIMACS)
}

// warmKeys computes every key of the working set at its owner, then reads
// it once through each daemon: the first hot reply becomes the key's
// reference and the second must match it byte for byte. It returns the
// keys and estimate/reference ratios of the diameter keys.
func warmKeys(e *env, ds []*daemon, reads []*input, refs map[string]float64) ([]readKey, []float64, error) {
	krng := newRand(e.Seed, streamKeys)
	var keys []readKey
	var ratios []float64
	for _, in := range reads {
		o, err := ownerIndex(ds, in.Name)
		if err != nil {
			return nil, nil, err
		}
		for _, op := range mixedOps {
			for s := 0; s < mixedSeedsPerKey; s++ {
				k := readKey{Dataset: in.Name, Op: op, Tau: tauFor(in.G.NumNodes()), Seed: krng.Uint64()>>16 + 1, Owner: o}
				url := "/v1/" + op
				first, err := postJSON(e.Client, ds[o].url+url, k.body(), 60*time.Second)
				e.Acct.record("warmup", err)
				if err != nil {
					return nil, nil, fmt.Errorf("warm %s %s: %w", in.Name, op, err)
				}
				if op == "diameter" {
					var r diameterReply
					if err := json.Unmarshal(first, &r); err != nil {
						return nil, nil, err
					}
					err = checkEstimate(r, refs[in.Name])
					e.Acct.record("warmup", err)
					ratios = append(ratios, r.Estimate/refs[in.Name])
				}
				for i := range ds {
					hot, err := postJSON(e.Client, ds[(o+i)%len(ds)].url+url, k.body(), 10*time.Second)
					if err == nil && k.Ref != nil && !bytes.Equal(hot, k.Ref) {
						err = fmt.Errorf("%s %s seed %d: hot reply via %s differs from the first", in.Name, op, k.Seed, ds[(o+i)%len(ds)].url)
					}
					e.Acct.record("warmup", err)
					if k.Ref == nil {
						k.Ref = hot
					}
				}
				keys = append(keys, k)
			}
		}
	}
	return keys, ratios, nil
}

// mixedRun is one serve-mixed run's fleet and working set.
type mixedRun struct {
	e      *env
	ds     []*daemon
	keys   []readKey
	reads  []*input
	write  *input
	wOwner int
	head   string // the write dataset's head after setup
	drng   *rand.Rand
	srng   *rand.Rand

	mu    sync.Mutex
	links []appendReply // every successful append reply, in any order
}

// plan draws a phase's open-loop schedule over span: Poisson reads at
// rate and, with writes, appends every 1/writeRate seconds. Appends are
// evenly spaced so every run appends the same number of times; their
// count drives the write path's memory and compactions. A read's Arg
// picks the key (Arg/2) and whether it enters at the owner or at the
// other daemon (Arg%2), so half the reads take a proxy hop; appends enter
// either way too and carry their delta's index.
func (m *mixedRun) plan(rate float64, span time.Duration, writes bool) ([]planned, [][]byte) {
	plan := poisson(nil, m.srng, rate, 0, span, kindRead, 2*len(m.keys))
	if writes {
		plan = periodic(plan, m.srng, writeRate, span, kindWrite, 2)
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].Due < plan[j].Due })
	var deltas [][]byte
	for i, p := range plan {
		if p.Kind == kindWrite {
			plan[i].Arg = len(deltas)<<1 | p.Arg
			deltas = append(deltas, makeDelta(m.drng, m.write.G.NumNodes(), deltaEdges))
		}
	}
	return plan, deltas
}

// run executes one phase and counts every request in the accounting.
func (m *mixedRun) run(plan []planned, deltas [][]byte) []outcome {
	return m.runWith(plan, deltas, func(_ int, _ planned, call func() error) error { return call() })
}

// lanes splits the client's workers between reads and appends: one lane
// for appends when the plan has any, every other worker reads, so at
// most clients requests are ever in flight and a slow append never holds
// up a read on the client side.
func lanes(plan []planned) map[int]int {
	for _, p := range plan {
		if p.Kind == kindWrite {
			return map[int]int{kindWrite: 1, kindRead: max(1, clients-1)}
		}
	}
	return map[int]int{kindRead: clients}
}

// runWith is run with each request's call handed to wrap, which must
// call it once; the traced run wraps calls in spans.
func (m *mixedRun) runWith(plan []planned, deltas [][]byte, wrap func(i int, p planned, call func() error) error) []outcome {
	outs := runOpenLoop(time.Now(), plan, lanes(plan), func(i int, p planned) error {
		return wrap(i, p, func() error {
			if p.Kind == kindWrite {
				return m.append(m.ds[(m.wOwner+p.Arg%2)%len(m.ds)], deltas[p.Arg>>1])
			}
			return m.read(m.keys[p.Arg/2], p.Arg%2)
		})
	})
	for _, o := range outs {
		if o.Kind == kindRead {
			m.e.Acct.record("reads", o.Err)
		} else {
			m.e.Acct.record("writes", o.Err)
		}
	}
	return outs
}

// read sends one hot read, entering at the owner (side 0) or at the
// other daemon (side 1), and checks the reply is byte-identical to the
// key's reference.
func (m *mixedRun) read(k readKey, side int) error {
	entry := m.ds[(k.Owner+side)%len(m.ds)]
	raw, err := postJSON(m.e.Client, entry.url+"/v1/"+k.Op, k.body(), 10*time.Second)
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, k.Ref) {
		return fmt.Errorf("%s %s seed %d via %s: reply differs from the key's first hot reply", k.Dataset, k.Op, k.Seed, entry.url)
	}
	return nil
}

// append sends one delta; whether the head moves chain up is checked
// once the run is over (see unchained).
func (m *mixedRun) append(entry *daemon, delta []byte) error {
	r, err := sendAppend(m.e.Client, entry.url, m.write.Name, delta)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.links = append(m.links, r)
	m.mu.Unlock()
	return nil
}

// rungResult is the read record of one rate.
type rungResult struct {
	Rate     float64 `json:"rate"`
	Reads    int     `json:"reads"`
	Failed   int     `json:"failed"`
	P50MS    float64 `json:"p50_ms"`
	Tail     tail    `json:"tail_ms"`
	DrainMS  float64 `json:"drain_ms"`
	Achieved float64 `json:"achieved_per_s"`
	Pass     bool    `json:"pass"`
}

// judge summarises the reads of one phase run at rate over span. The
// rung passes when no read failed, the read tail is within
// readTailLimitMS, and there is no growing backlog: the last read
// finished within one latency limit of the end of the schedule.
func judge(outs []outcome, rate float64, span time.Duration) rungResult {
	r := rungResult{Rate: rate}
	var lats []float64
	var lastDone time.Duration
	for _, o := range outs {
		if o.Kind != kindRead {
			continue
		}
		r.Reads++
		if o.Err != nil {
			r.Failed++
			continue
		}
		lats = append(lats, ms(o.Latency))
		lastDone = max(lastDone, o.Due+o.Latency)
	}
	r.P50MS = median(lats)
	r.Tail = tailOf(lats)
	r.DrainMS = ms(max(0, lastDone-span))
	r.Achieved = float64(len(lats)) / span.Seconds()
	r.Pass = r.Failed == 0 && len(lats) > 0 && r.effective() <= readTailLimitMS
	return r
}

// effective is the latency a rung is judged by: its tail, or its
// backlog drain time when that is longer; a rung with failed reads
// missed the limit whatever its latencies.
func (r rungResult) effective() float64 {
	if r.Failed > 0 || r.Reads == 0 {
		return math.Inf(1)
	}
	return max(r.Tail.Value, r.DrainMS)
}

// sustained returns the highest read rate that meets readTailLimitMS
// with no growing backlog. The ladder brackets it between the highest
// passing rung and the first failing one; inside the bracket the rate is
// interpolated where the effective latency, taken as log-linear in the
// rate, crosses the limit, so the result does not jump a whole rung when
// capacity sits near one. A ladder that passes every rung reports its top
// rung's achieved rate; one whose lowest rung already fails reports that
// rung's achieved rate scaled down by how far it missed the limit, which
// is 0 when reads failed (the failures also make the run incorrect).
func sustained(rungs []rungResult) float64 {
	for i, r := range rungs {
		if r.Pass {
			continue
		}
		hi := r.effective()
		if i == 0 {
			return r.Achieved * readTailLimitMS / hi // 0 if reads failed
		}
		lo := rungs[i-1]
		if math.IsInf(hi, 1) || hi <= lo.effective() {
			return lo.Achieved
		}
		f := (math.Log(readTailLimitMS) - math.Log(lo.effective())) / (math.Log(hi) - math.Log(lo.effective()))
		return lo.Achieved + f*(r.Rate-lo.Rate)
	}
	return rungs[len(rungs)-1].Achieved
}

func (mixedWorkload) run(e *env) (map[string]float64, error) {
	m, setupS, ratios, err := startMixed(e)
	if err != nil {
		return nil, err
	}
	defer stopDaemons(m.ds)
	var late []float64

	// Read-only phase: the read path's tail. Measured without appends
	// because on a shared machine outside load amplifies append contention
	// into read tails several times the calm ones, run after run.
	readSpan := e.phaseDuration(readShare)
	plan, deltas := m.plan(refReadRate, readSpan, false)
	readOuts := m.run(plan, deltas)
	for _, o := range readOuts {
		late = append(late, ms(o.Late))
	}

	// Mixed phase: the same reads next to an append every 1/writeRate s.
	mixSpan := e.phaseDuration(mixedShare)
	plan, deltas = m.plan(refReadRate, mixSpan, true)
	mixOuts := m.run(plan, deltas)
	var wlats []float64
	var byEntry [2][]float64 // read latencies entering at the owner, at the other daemon
	for _, o := range mixOuts {
		late = append(late, ms(o.Late))
		switch {
		case o.Err != nil:
		case o.Kind == kindRead:
			byEntry[o.Arg%2] = append(byEntry[o.Arg%2], ms(o.Latency))
		case o.Kind == kindWrite:
			wlats = append(wlats, ms(o.Latency))
		}
	}

	// Capacity phase: reads only, climbing the ladder until a rung misses
	// the limit. Appends stay out of it: their stalls would decide which
	// rung fails, and a run that climbs further would append more.
	rungs := []rungResult{judge(readOuts, refReadRate, readSpan)}
	span := e.phaseDuration(capacityShare / float64(len(capacityLadder)))
	for _, rate := range capacityLadder {
		plan, deltas := m.plan(rate, span, false)
		outs := m.run(plan, deltas)
		for _, o := range outs {
			late = append(late, ms(o.Late))
		}
		rungs = append(rungs, judge(outs, rate, span))
		if !rungs[len(rungs)-1].Pass {
			break
		}
	}
	// Every append must have moved the head one step: the replies link
	// into one chain from the ingested head.
	for i := unchained(m.head, m.links); i > 0; i-- {
		e.Acct.record("writes", fmt.Errorf("append reply not on the head chain"))
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	qt, wt := windowTail(readOuts, readSpan, readWindows), tailOf(wlats)
	e.Diag["rungs"] = rungs
	e.Diag["query_tail_windows"] = qt
	e.Diag["mixed_read_p50_owner_ms"] = median(byEntry[0])
	e.Diag["mixed_read_p50_proxied_ms"] = median(byEntry[1])
	e.Diag["mixed_read"] = judge(mixOuts, refReadRate, mixSpan)
	e.Diag["write_tail"] = wt
	e.Diag["loadgen_late"] = tailOf(late)
	e.Diag["loadgen_late_p50_ms"] = median(late)
	return map[string]float64{
		"setup_s": setupS,
		// Half the reads take a proxy hop, so read latency is bimodal and
		// its overall median sits in the gap between the two modes, where
		// the share of each decides it. The mean of the two entries'
		// medians weighs them equally and does not jump.
		"query_p50_ms":  (median(byEntry[0]) + median(byEntry[1])) / 2,
		"query_tail_ms": slices.Min(tailValues(qt)),
		"approx_ratio":  mean(ratios),
		"sustained_qps": sustained(rungs),
		"write_p50_ms":  median(wlats),
		"write_tail_ms": wt.Value,
		"peak_rss_mb":   rss,
	}, nil
}

// startMixed generates serve-mixed's inputs, sets the fleet up and warms
// the working set. It returns the run, setup_s, and the warm diameter
// keys' estimate/reference ratios.
func startMixed(e *env) (*mixedRun, float64, []float64, error) {
	reads, write, err := mixedInputs(e.Seed)
	if err != nil {
		return nil, 0, nil, err
	}
	refs := map[string]float64{}
	for _, in := range reads {
		if refs[in.Name], err = referenceDiameter(e.oracleDir(), in); err != nil {
			return nil, 0, nil, err
		}
	}
	e.Diag["peak_rss_reset"] = resetPeakRSS()

	m := &mixedRun{e: e, reads: reads, write: write, drng: newRand(e.Seed, streamDeltas), srng: newRand(e.Seed, streamSchedule)}
	ds, setupS, err := e.setup(2, func(ds []*daemon) error {
		var err error
		m.head, err = bootMixed(e, ds, reads, write)
		return err
	})
	if err != nil {
		return nil, 0, nil, err
	}
	m.ds = ds
	var ratios []float64
	if m.keys, ratios, err = warmKeys(e, ds, reads, refs); err == nil {
		m.wOwner, err = ownerIndex(ds, write.Name)
	}
	if err != nil {
		stopDaemons(ds)
		return nil, 0, nil, err
	}
	return m, setupS, ratios, nil
}

// readWindows is how many equal windows the read-only phase is split
// into for query_tail_ms: each window's tail by the ten-beyond rule, and
// the lowest of them reported, the minimum of repeats that ROADMAP item 1
// prescribes for noisy hardware.
const readWindows = 3

// windowTail returns the read tail of each of n equal windows of a phase
// of length span, reads assigned by due time.
func windowTail(outs []outcome, span time.Duration, n int) []tail {
	lats := make([][]float64, n)
	for _, o := range outs {
		if o.Kind == kindRead && o.Err == nil {
			i := min(int(int64(o.Due)*int64(n)/int64(span)), n-1)
			lats[i] = append(lats[i], ms(o.Latency))
		}
	}
	out := make([]tail, n)
	for i := range lats {
		out[i] = tailOf(lats[i])
	}
	return out
}

func tailValues(ts []tail) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.Value
	}
	return out
}

// mixedWorkload is the two-daemon fleet under hot reads and appends.
type mixedWorkload struct{}

// unchained counts append replies that do not extend the chain of heads
// starting at head, i.e. appends that did not move the head one step.
func unchained(head string, links []appendReply) int {
	next := map[string]string{}
	for _, l := range links {
		if _, dup := next[l.PrevSHA]; dup {
			continue
		}
		next[l.PrevSHA] = l.HeadSHA
	}
	reached := 0
	for cur, ok := next[head]; ok && reached < len(links); cur, ok = next[cur] {
		reached++
	}
	return len(links) - reached
}
