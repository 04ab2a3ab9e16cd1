package main

import (
	"encoding/json"
	"fmt"
	"time"
)

// coldWorkload is a single daemon answering a closed loop of CL-DIAM
// queries on a dataset generated from Spec, every one missing the cache,
// followed by appends to the same dataset.
type coldWorkload struct{ Spec string }

// Shares of the run's measuring time: the query loop, then the appends.
const (
	coldQueryShare = 0.8
	coldWriteShare = 0.2
)

// refTolerance is the relative slack on estimate ≥ reference. Both sides
// are sums of the same float64 edge weights taken in different orders, so
// a genuine bound can miss by a few ulps; anything larger is a violation.
const refTolerance = 1e-12

// coldQuery sends one cold /v1/diameter query and checks it: 200, computed
// rather than served from a cache, and estimate ≥ reference.
func coldQuery(e *env, base, name string, tau int, seed uint64, ref float64) (diameterReply, time.Duration, error) {
	start := time.Now()
	raw, err := postJSON(e.Client, base+"/v1/diameter", queryBody{Graph: name, Tau: tau, Seed: seed}, 60*time.Second)
	lat := time.Since(start)
	if err != nil {
		return diameterReply{}, lat, err
	}
	var r diameterReply
	if err := json.Unmarshal(raw, &r); err != nil {
		return diameterReply{}, lat, fmt.Errorf("diameter reply: %w", err)
	}
	if err := checkEstimate(r, ref); err != nil {
		return r, lat, err
	}
	if r.Cached {
		return r, lat, fmt.Errorf("query seed %d was served from cache, want a fresh computation", seed)
	}
	return r, lat, nil
}

// checkEstimate enforces CL-DIAM's conservative bound against the exact
// reference diameter.
func checkEstimate(r diameterReply, ref float64) error {
	if r.Estimate < ref*(1-refTolerance) {
		return fmt.Errorf("estimate %v below the exact diameter %v", r.Estimate, ref)
	}
	return nil
}

func (w coldWorkload) run(e *env) (map[string]float64, error) {
	const name = "g"
	in, err := makeInput(name, w.Spec, e.Seed)
	if err != nil {
		return nil, err
	}
	ref, err := referenceDiameter(e.oracleDir(), in)
	if err != nil {
		return nil, err
	}
	e.Diag["reference_diameter"] = ref
	e.Diag["peak_rss_reset"] = resetPeakRSS()

	var head string
	ds, setupS, err := e.setup(1, func(ds []*daemon) error {
		var err error
		head, err = ingest(e.Client, ds[0].url, name, in.DIMACS)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer stopDaemons(ds)
	base := ds[0].url

	// Closed loop: one client, next query after the previous reply, each
	// with a fresh seed so every query computes.
	seeds := newSeedSource(e.Seed)
	tau := tauFor(in.G.NumNodes())
	var lats, ratios []float64
	ok := 0
	start := time.Now()
	deadline := start.Add(e.phaseDuration(coldQueryShare))
	for time.Now().Before(deadline) {
		r, lat, err := coldQuery(e, base, name, tau, seeds.next(), ref)
		e.Acct.record("queries", err)
		if err != nil {
			continue
		}
		ok++
		lats = append(lats, ms(lat))
		ratios = append(ratios, r.Estimate/ref)
	}
	qps := float64(ok) / time.Since(start).Seconds()

	// Appends to the same dataset, closed loop, after the queries so the
	// reference diameter still describes every graph that was queried.
	drng := newRand(e.Seed, streamDeltas)
	var wlats []float64
	deadline = time.Now().Add(e.phaseDuration(coldWriteShare))
	for time.Now().Before(deadline) {
		delta := makeDelta(drng, in.G.NumNodes(), deltaEdges)
		t0 := time.Now()
		r, err := sendAppend(e.Client, base, name, delta)
		lat := time.Since(t0)
		if err == nil && r.PrevSHA != head {
			err = fmt.Errorf("append applied on head %s, want %s", r.PrevSHA, head)
		}
		e.Acct.record("writes", err)
		if err != nil {
			continue
		}
		head = r.HeadSHA
		wlats = append(wlats, ms(lat))
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	qt, wt := tailOf(lats), tailOf(wlats)
	e.Diag["query_tail"] = qt
	e.Diag["write_tail"] = wt
	return map[string]float64{
		"setup_s":       setupS,
		"query_p50_ms":  median(lats),
		"query_tail_ms": qt.Value,
		"approx_ratio":  mean(ratios),
		"sustained_qps": qps,
		"write_p50_ms":  median(wlats),
		"write_tail_ms": wt.Value,
		"peak_rss_mb":   rss,
	}, nil
}
