package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphdiam/internal/bsp"
	"graphdiam/internal/cc"
	"graphdiam/internal/core"
	"graphdiam/internal/dataset"
	"graphdiam/internal/gio"
	"graphdiam/internal/graph"
	"graphdiam/internal/obs"
	"graphdiam/internal/quotient"
	"graphdiam/internal/store"
)

// The traced run calls each layer's public functions on the workload's
// own inputs and records a span around every call (see tracer). Its
// numbers are per-layer diagnostics; end-to-end metrics always come from
// untraced runs.

// tracedAppends is how many deltas the traced run appends directly
// through the catalog: past the default compaction threshold of eight,
// so a compaction is part of what it measures.
const tracedAppends = 10

// probeReps is how many times each hot-path probe (store hit, handler,
// loopback, proxied read) runs; probeRate paces them, open loop, so the
// generator's lag is measured on every workload.
const (
	probeReps = 200
	probeRate = 400.0
)

// tracedShare is the share of the run the traced query loop may take.
const tracedShare = 0.5

// layerRun is one traced run: its spans and the values it measured.
type layerRun struct {
	e  *env
	tr *tracer
	v  map[string]float64
	// late collects the open-loop generator's lag over every paced phase.
	late []float64
}

func newLayerRun(e *env) *layerRun {
	return &layerRun{e: e, tr: newTracer(), v: map[string]float64{}}
}

// check counts one cross-check between the trace and the end-to-end path.
func (l *layerRun) check(err error) { l.e.Acct.record("crosscheck", err) }

// ingestLayers runs the ingest path layer by layer on in's bytes — parse,
// CSR build, snapshot write and load — then appends deltas through a
// catalog of its own. It returns the parsed graph, which must equal the
// generated one.
func (l *layerRun) ingestLayers(in *input, deltas [][]byte) (*graph.Graph, error) {
	const req = "ingest"
	var g *graph.Graph
	var err error
	d := l.tr.timed("gio.parse", -1, req, func() { g, err = gio.ReadDIMACS(bytes.NewReader(in.DIMACS)) })
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	l.v["gio.parse_ms"] = ms(d)
	l.v["gio.bytes"] = float64(len(in.DIMACS))

	us, vs, ws := make([]graph.NodeID, 0, g.NumEdges()), make([]graph.NodeID, 0, g.NumEdges()), make([]float64, 0, g.NumEdges())
	g.ForEachEdge(func(u, v graph.NodeID, w float64) {
		us, vs, ws = append(us, u), append(vs, v), append(ws, w)
	})
	var built *graph.Graph
	d = l.tr.timed("graph.build", -1, req, func() { built = graph.FromEdges(g.NumNodes(), us, vs, ws) })
	l.v["graph.build_ms"] = ms(d)
	l.v["graph.edges"] = float64(built.NumEdges())
	l.check(sameCSR(built, g))
	l.check(sameCSR(g, in.G))

	path := filepath.Join(l.e.RunDir, "trace.gds")
	var h dataset.Header
	d = l.tr.timed("dataset.write", -1, req, func() { h, err = dataset.WriteSnapshot(path, g) })
	if err != nil {
		return nil, fmt.Errorf("write snapshot: %w", err)
	}
	l.v["dataset.write_ms"] = ms(d)
	var ld *dataset.Loaded
	d = l.tr.timed("dataset.load", -1, req, func() { ld, err = dataset.LoadSnapshot(path) })
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	l.v["dataset.load_ms"] = ms(d)
	l.check(sameCSR(ld.Graph, g))
	if ld.Header.SHAHex() != h.SHAHex() {
		l.check(fmt.Errorf("loaded snapshot %s, wrote %s", ld.Header.SHAHex(), h.SHAHex()))
	}
	if err := ld.Close(); err != nil {
		return nil, err
	}
	return g, l.appendLayer(in, g, deltas)
}

// appendLayer appends deltas to in's graph through a catalog of its own,
// timing each Catalog.AppendDelta, and reads the chain length and the
// compactions the appends triggered.
func (l *layerRun) appendLayer(in *input, g *graph.Graph, deltas [][]byte) error {
	reg := obs.NewRegistry()
	cat, err := dataset.Open(filepath.Join(l.e.RunDir, "trace-catalog"), dataset.Options{Metrics: dataset.NewCatalogMetrics(reg)})
	if err != nil {
		return err
	}
	if _, err := cat.IngestGraph(in.Name, g, dataset.FormatDIMACS, "trace"); err != nil {
		cat.Close()
		return err
	}
	var times []float64
	chain := 0
	for _, raw := range deltas {
		d, err := dataset.DecodeDeltaStream(bytes.NewReader(raw))
		if err != nil {
			cat.Close()
			return err
		}
		var res dataset.AppendResult
		t := l.tr.timed("dataset.append", -1, "ingest", func() { res, err = cat.AppendDelta(in.Name, d, "trace") })
		if err == nil && (!res.Applied || res.Info.SHA256 == res.PrevSHA) {
			err = fmt.Errorf("append to %s did not move the head", in.Name)
		}
		l.check(err)
		times = append(times, ms(t))
		chain = max(chain, res.Info.ChainLen())
	}
	// Close waits for background compactions, so the counter is final.
	if err := cat.Close(); err != nil {
		return err
	}
	fams, err := parseExposition(registryText(reg))
	if err != nil {
		return err
	}
	l.v["dataset.append_ms"] = median(times)
	l.v["dataset.chain_len_max"] = float64(chain)
	l.v["dataset.compactions"] = fams["graphdiam_dataset_compactions_total"]
	return nil
}

// sameCSR reports whether two graphs have identical CSR arrays.
func sameCSR(a, b *graph.Graph) error {
	ao, at, aw := a.RawCSR()
	bo, bt, bw := b.RawCSR()
	if len(ao) != len(bo) || len(at) != len(bt) || len(aw) != len(bw) {
		return fmt.Errorf("graphs differ in shape: %v vs %v", a, b)
	}
	for i := range ao {
		if ao[i] != bo[i] {
			return fmt.Errorf("graphs differ at offset %d", i)
		}
	}
	for i := range at {
		if at[i] != bt[i] || aw[i] != bw[i] {
			return fmt.Errorf("graphs differ at edge slot %d", i)
		}
	}
	return nil
}

// tauFor is the τ every query of the benchmark sends: ⌊√n⌋ clamped to
// [1, 4096], the library default today. Sending it explicitly keeps the
// workload fixed if that default ever changes.
func tauFor(n int) int {
	return min(max(int(math.Sqrt(float64(n))), 1), 4096)
}

// direct is what one direct-call CL-DIAM pipeline measured.
type direct struct {
	Tau                          int
	Seed                         uint64
	ClusterMS, QBuildMS, QDiamMS float64
	Stages, Clusters             int
	GrowingSteps                 int64
	QNodes, QEdges               int
	Q                            *graph.Graph
	Clustering                   *core.Clustering
}

// computeMS is the three compute spans' total.
func (d direct) computeMS() float64 { return d.ClusterMS + d.QBuildMS + d.QDiamMS }

// runDirect runs CL-DIAM layer by layer — core.Cluster, quotient.Build,
// quotient.Diameter on one engine — for the query (g, tau, seed) and
// checks that the estimate and the BSP round, message and update counts
// equal the HTTP reply bit for bit.
func (l *layerRun) runDirect(req string, g *graph.Graph, tau int, seed uint64, reply diameterReply) direct {
	root := l.tr.begin("query.direct", -1, req)
	defer l.tr.end(root)
	eng := bsp.New(0).Bind(context.Background())
	defer eng.Close()
	opts := core.Options{Tau: tau, Seed: seed, Engine: eng}
	out := direct{Tau: tau, Seed: seed}
	var cl *core.Clustering
	var err error
	out.ClusterMS = ms(l.tr.timed("core.cluster", root, req, func() { cl, err = core.Cluster(context.Background(), g, opts) }))
	if err != nil {
		l.check(fmt.Errorf("cluster: %w", err))
		return out
	}
	var q *graph.Graph
	out.QBuildMS = ms(l.tr.timed("quotient.build", root, req, func() { q, _ = quotient.Build(g, cl.Center, cl.Dist, eng) }))
	var qd float64
	out.QDiamMS = ms(l.tr.timed("quotient.diameter", root, req, func() { qd = quotient.Diameter(q, eng, quotient.DiameterOptions{}) }))
	// CL-DIAM charges one round for the quotient diameter (core.ApproxDiameter).
	eng.Metrics().AddRounds(1)
	m := eng.Metrics().Snapshot()
	out.Stages, out.Clusters, out.GrowingSteps = cl.Stages, cl.NumClusters(), cl.GrowingSteps
	out.QNodes, out.QEdges, out.Q, out.Clustering = q.NumNodes(), q.NumEdges(), q, cl

	est := qd + 2*cl.Radius
	switch {
	case est != reply.Estimate || qd != reply.QuotientDiameter || cl.Radius != reply.Radius:
		err = fmt.Errorf("seed %d: direct estimate %v = %v + 2·%v, HTTP %v = %v + 2·%v", seed,
			est, qd, cl.Radius, reply.Estimate, reply.QuotientDiameter, reply.Radius)
	case m.Rounds != reply.Metrics.Rounds || m.Messages != reply.Metrics.Messages || m.Updates != reply.Metrics.Updates:
		err = fmt.Errorf("seed %d: direct rounds/messages/updates %d/%d/%d, HTTP %d/%d/%d", seed,
			m.Rounds, m.Messages, m.Updates, reply.Metrics.Rounds, reply.Metrics.Messages, reply.Metrics.Updates)
	case q.NumNodes() != reply.QuotientNodes || q.NumEdges() != reply.QuotientEdges ||
		cl.NumClusters() != reply.NumClusters || cl.Stages != reply.Stages:
		err = fmt.Errorf("seed %d: direct quotient %d/%d, clusters %d, stages %d; HTTP %d/%d, %d, %d", seed,
			q.NumNodes(), q.NumEdges(), cl.NumClusters(), cl.Stages,
			reply.QuotientNodes, reply.QuotientEdges, reply.NumClusters, reply.Stages)
	}
	l.check(err)
	return out
}

// oneWorker reruns the first query's CLUSTER on a single worker, the
// sequential baseline, and checks it reproduces the parallel clustering.
func (l *layerRun) oneWorker(g *graph.Graph, first direct) {
	eng := bsp.New(1)
	defer eng.Close()
	want := first.Clustering
	var cl *core.Clustering
	var err error
	d := l.tr.timed("core.cluster_1w", -1, "cluster-1w", func() {
		cl, err = core.Cluster(context.Background(), g, core.Options{Tau: first.Tau, Seed: first.Seed, Engine: eng})
	})
	l.v["core.cluster_1w_ms"] = ms(d)
	if err == nil && (cl.Radius != want.Radius || cl.NumClusters() != want.NumClusters() || !equalInt32(cl.Center, want.Center)) {
		err = fmt.Errorf("one-worker clustering differs from the parallel one")
	}
	l.check(err)
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// summarizeDirect records the core, quotient and bsp values of the
// traced queries: medians of times, means of counts.
func (l *layerRun) summarizeDirect(runs []direct, replies []diameterReply) {
	var cl, qb, qd, stages, steps, clusters, perTau, qn, qe, rounds, msgs, upd []float64
	for i, d := range runs {
		cl, qb, qd = append(cl, d.ClusterMS), append(qb, d.QBuildMS), append(qd, d.QDiamMS)
		stages, steps, clusters = append(stages, float64(d.Stages)), append(steps, float64(d.GrowingSteps)), append(clusters, float64(d.Clusters))
		perTau = append(perTau, float64(d.Clusters)/float64(d.Tau))
		qn, qe = append(qn, float64(d.QNodes)), append(qe, float64(d.QEdges))
		r := replies[i].Metrics
		rounds, msgs, upd = append(rounds, float64(r.Rounds)), append(msgs, float64(r.Messages)), append(upd, float64(r.Updates))
	}
	l.v["core.cluster_ms"] = median(cl)
	l.v["core.stages"] = mean(stages)
	l.v["core.growing_steps"] = mean(steps)
	l.v["core.clusters"] = mean(clusters)
	l.v["core.clusters_per_tau"] = mean(perTau)
	l.v["quotient.build_ms"] = median(qb)
	l.v["quotient.diameter_ms"] = median(qd)
	l.v["quotient.nodes"] = mean(qn)
	l.v["quotient.edges"] = mean(qe)
	_, k := cc.Components(runs[0].Q)
	l.v["quotient.components"] = float64(k)
	l.v["bsp.rounds"] = mean(rounds)
	l.v["bsp.messages"] = mean(msgs)
	l.v["bsp.updates"] = mean(upd)
}

// storeQuery is one diameter query replayed against a bare store, with
// the direct pipeline's compute time for the same query.
type storeQuery struct {
	Graph     string
	Params    store.Params
	ComputeMS float64
}

// storeLayer replays queries against a store with no server in front:
// each cold Store.Diameter minus the same query's three compute spans is
// the store's miss overhead, and the first query, repeated on its cached
// key, times a hit.
func (l *layerRun) storeLayer(graphs map[string]*graph.Graph, qs []storeQuery) error {
	st := store.New(store.Config{})
	defer st.Close()
	for name, g := range graphs {
		if _, err := st.AddGraph(name, g, "trace"); err != nil {
			return err
		}
	}
	var over []float64
	for i, q := range qs {
		var err error
		d := l.tr.timed("store.diameter_cold", -1, fmt.Sprintf("store-%d", i), func() {
			_, _, err = st.Diameter(context.Background(), q.Graph, q.Params)
		})
		l.check(err)
		over = append(over, ms(d)-q.ComputeMS)
	}
	l.v["store.miss_overhead_ms"] = median(over)
	hits := l.paced("store.diameter_hit", func() error {
		_, cached, err := st.Diameter(context.Background(), qs[0].Graph, qs[0].Params)
		if err == nil && !cached {
			err = fmt.Errorf("repeated store query was not a cache hit")
		}
		return err
	})
	l.v["store.hit_us"] = median(hits) * 1000
	return nil
}

// paced runs fn probeReps times, open loop at probeRate, inside a span
// named name each time, and returns each call's own duration in
// milliseconds (queueing excluded: the probes time a layer, not the
// schedule).
func (l *layerRun) paced(name string, fn func() error) []float64 {
	plan := make([]planned, probeReps)
	for i := range plan {
		plan[i].Due = time.Duration(float64(i) / probeRate * float64(time.Second))
	}
	durs := make([]float64, probeReps)
	outs := runOpenLoop(time.Now(), plan, map[int]int{0: 1}, func(i int, _ planned) error {
		var err error
		durs[i] = ms(l.tr.timed(name, -1, fmt.Sprintf("%s-%d", name, i), func() { err = fn() }))
		return err
	})
	for _, o := range outs {
		l.late = append(l.late, ms(o.Late))
		l.check(o.Err)
	}
	return durs
}

// hotPath times one cached query at each layer of the serving path: the
// owner's handler on a recorder (no socket), the same request over
// loopback, and through the other daemon, which proxies it to the owner.
// Every reply must be byte-identical to ref.
func (l *layerRun) hotPath(ds []*daemon, owner int, path string, body queryBody, ref []byte) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	same := func(raw []byte, via string) error {
		if !bytes.Equal(raw, ref) {
			return fmt.Errorf("hot %s via %s differs from the reference reply", path, via)
		}
		return nil
	}
	handler := l.paced("server.handler", func() error {
		rec := httptest.NewRecorder()
		ds[owner].srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			return &statusError{Code: rec.Code, Body: rec.Body.String()}
		}
		return same(rec.Body.Bytes(), "handler")
	})
	loop := l.paced("server.loopback", func() error {
		raw, err := do(l.e.Client, http.MethodPost, ds[owner].url+path, b, 10*time.Second)
		if err != nil {
			return err
		}
		return same(raw, "loopback")
	})
	other := ds[(owner+1)%len(ds)]
	before, err := scrape(l.e.Client, other.url)
	if err != nil {
		return err
	}
	proxied := l.paced("fleet.proxied", func() error {
		raw, err := do(l.e.Client, http.MethodPost, other.url+path, b, 10*time.Second)
		if err != nil {
			return err
		}
		return same(raw, "proxy")
	})
	after, err := scrape(l.e.Client, other.url)
	if err != nil {
		return err
	}
	l.v["server.handler_us"] = median(handler) * 1000
	l.v["server.loopback_us"] = median(loop) * 1000
	l.v["fleet.hop_us"] = (median(proxied) - median(loop)) * 1000
	l.v["fleet.proxy_attempts"] = after["graphdiam_fleet_proxy_attempts_total"] - before["graphdiam_fleet_proxy_attempts_total"]
	l.v["fleet.proxy_retries"] = after["graphdiam_fleet_proxy_retries_total"] - before["graphdiam_fleet_proxy_retries_total"]
	return nil
}

// storeStats records the hit ratio, computations and deduplications the
// daemons' stores counted.
func (l *layerRun) storeStats(ds []*daemon) {
	var c store.Counters
	for _, d := range ds {
		s := d.st.Stats().Counters
		c.Hits += s.Hits
		c.Misses += s.Misses
		c.Dedups += s.Dedups
		c.Computations += s.Computations
	}
	lookups := c.Hits + c.Misses + c.Dedups
	l.v["store.hit_ratio"] = 0
	if lookups > 0 {
		l.v["store.hit_ratio"] = float64(c.Hits) / float64(lookups)
	}
	l.v["store.computations"] = float64(c.Computations)
	l.v["store.dedups"] = float64(c.Dedups)
}

// barrierShare returns the share of superstep time spent waiting at the
// barrier between two /metrics scrapes summed over daemons.
func barrierShare(before, after map[string]float64) float64 {
	b := after["graphdiam_bsp_superstep_barrier_seconds_sum"] - before["graphdiam_bsp_superstep_barrier_seconds_sum"]
	c := after["graphdiam_bsp_superstep_compute_seconds_sum"] - before["graphdiam_bsp_superstep_compute_seconds_sum"]
	if b+c <= 0 {
		return 0
	}
	return b / (b + c)
}

// scrapeAll sums the /metrics families of every daemon.
func scrapeAll(c *http.Client, ds []*daemon) (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range ds {
		m, err := scrape(c, d.url)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

// scrape reads a daemon's /metrics exposition.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	raw, err := do(c, http.MethodGet, base+"/metrics", nil, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	return parseExposition(string(raw))
}

// registryText renders a registry in the exposition format.
func registryText(reg *obs.Registry) string {
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// parseExposition sums the samples of a Prometheus text exposition by
// metric name, across label sets.
func parseExposition(text string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad exposition value in %q: %w", line, err)
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// finish adds the per-layer self times, the tracing overhead and the
// generator lag, writes the spans out, and returns the values.
func (l *layerRun) finish(tracedMS, untracedMS []float64) (map[string]float64, error) {
	spans := l.tr.snapshot()
	self := layerSelfPerRequest(spans)
	for _, d := range perLayer {
		if layer, ok := strings.CutSuffix(d.Name, ".self_ms"); ok {
			l.v[d.Name] = self[layer]
		}
	}
	l.v["trace.overhead_ms"] = median(tracedMS) - median(untracedMS)
	l.v["loadgen.late_ms"] = tailOf(l.late).Value
	l.e.Diag["spans"] = len(spans)
	return l.v, l.tr.writeFile(filepath.Join(l.e.Work, "traces", fmt.Sprintf("%s-%d-%d.json", l.e.Workload, l.e.Seed, time.Now().UnixNano())))
}

// layerSelfPerRequest returns, per layer, the median over requests of
// the layer's summed span self time within one request, in ms.
func layerSelfPerRequest(spans []span) map[string]float64 {
	self := selfTimes(spans)
	per := map[string]map[string]float64{} // layer → request → ms
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		if per[layer] == nil {
			per[layer] = map[string]float64{}
		}
		per[layer][s.Req] += ms(self[i])
	}
	out := map[string]float64{}
	for layer, reqs := range per {
		vals := make([]float64, 0, len(reqs))
		for _, v := range reqs {
			vals = append(vals, v)
		}
		out[layer] = median(vals)
	}
	return out
}

// concurrentPair sends the same cold query twice at once and checks the
// store ran it once: one reply computed, the other joined its flight,
// both with the same estimate.
func concurrentPair(e *env, base string, body queryBody) error {
	var wg sync.WaitGroup
	replies := make([]diameterReply, 2)
	errs := make([]error, 2)
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, err := postJSON(e.Client, base+"/v1/diameter", body, 60*time.Second)
			if err == nil {
				err = json.Unmarshal(raw, &replies[i])
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if replies[0].Cached == replies[1].Cached || replies[0].Estimate != replies[1].Estimate {
		return fmt.Errorf("concurrent identical queries: cached %v/%v, estimates %v/%v",
			replies[0].Cached, replies[1].Cached, replies[0].Estimate, replies[1].Estimate)
	}
	return nil
}

// traced is the traced run of a cold workload.
func (w coldWorkload) traced(e *env) (map[string]float64, error) {
	const name = "g"
	in, err := makeInput(name, w.Spec, e.Seed)
	if err != nil {
		return nil, err
	}
	ref, err := referenceDiameter(e.oracleDir(), in)
	if err != nil {
		return nil, err
	}
	l := newLayerRun(e)
	// The same deltas, in order, as the untraced run's first appends.
	g, err := l.ingestLayers(in, makeDeltas(newRand(e.Seed, streamDeltas), in.G.NumNodes(), tracedAppends))
	if err != nil {
		return nil, err
	}

	// A two-daemon fleet, so the proxy hop is measured on this dataset too.
	ds, err := startDaemons(filepath.Join(e.RunDir, "trace-fleet"), 2)
	if err != nil {
		return nil, err
	}
	defer stopDaemons(ds)
	owner, err := ownerIndex(ds, name)
	if err != nil {
		return nil, err
	}
	if _, err := ingest(e.Client, ds[owner].url, name, in.DIMACS); err != nil {
		return nil, err
	}
	base := ds[owner].url
	tau := tauFor(g.NumNodes())
	before, err := scrapeAll(e.Client, ds)
	if err != nil {
		return nil, err
	}

	// The traced queries use the untraced run's seeds, in order, so each
	// layer number comes from a query the end-to-end metrics timed; the
	// untraced comparison queries draw from a stream of their own.
	seeds := newSeedSource(e.Seed)
	other := &seedSource{rng: newRand(e.Seed, streamUntraced), seen: seeds.seen}
	var runs []direct
	var replies []diameterReply
	var tracedMS, untracedMS []float64
	deadline := time.Now().Add(e.phaseDuration(tracedShare))
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		_, lat, err := coldQuery(e, base, name, tau, other.next(), ref)
		e.Acct.record("queries", err)
		if err == nil {
			untracedMS = append(untracedMS, ms(lat))
		}
		req := fmt.Sprintf("q%d", i)
		s := seeds.next()
		id := l.tr.begin("query.http", -1, req)
		r, _, err := coldQuery(e, base, name, tau, s, ref)
		d := l.tr.end(id)
		e.Acct.record("queries", err)
		if err != nil {
			continue
		}
		tracedMS = append(tracedMS, ms(d))
		runs = append(runs, l.runDirect(req, g, tau, s, r))
		replies = append(replies, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no traced query succeeded")
	}
	after, err := scrapeAll(e.Client, ds)
	if err != nil {
		return nil, err
	}
	l.v["bsp.barrier_share"] = barrierShare(before, after)
	l.summarizeDirect(runs, replies)
	l.oneWorker(g, runs[0])
	l.check(concurrentPair(e, base, queryBody{Graph: name, Tau: tau, Seed: other.next()}))
	l.storeStats(ds)

	qs := make([]storeQuery, 0, 3)
	for _, d := range runs[:min(3, len(runs))] {
		qs = append(qs, storeQuery{Graph: name, Params: store.Params{Tau: tau, Seed: d.Seed}, ComputeMS: d.computeMS()})
	}
	if err := l.storeLayer(map[string]*graph.Graph{name: g}, qs); err != nil {
		return nil, err
	}
	// The first traced query's result is cached on the owner by now.
	hot := queryBody{Graph: name, Tau: tau, Seed: runs[0].Seed}
	refReply, err := postJSON(e.Client, base+"/v1/diameter", hot, 10*time.Second)
	if err != nil {
		return nil, err
	}
	if err := l.hotPath(ds, owner, "/v1/diameter", hot, refReply); err != nil {
		return nil, err
	}
	return l.finish(tracedMS, untracedMS)
}

// traced is serve-mixed's traced run: the layers on the write dataset's
// bytes, CL-DIAM layer by layer on every warm diameter key (checked
// against the key's HTTP reply), then a traced mixed phase in which
// every other read is wrapped in a span.
func (mixedWorkload) traced(e *env) (map[string]float64, error) {
	m, _, _, err := startMixed(e)
	if err != nil {
		return nil, err
	}
	defer stopDaemons(m.ds)
	l := newLayerRun(e)
	if _, err := l.ingestLayers(m.write, makeDeltas(newRand(e.Seed, streamTraceDeltas), m.write.G.NumNodes(), tracedAppends)); err != nil {
		return nil, err
	}

	graphs := map[string]*graph.Graph{}
	for _, in := range m.reads {
		graphs[in.Name] = in.G
	}
	var runs []direct
	var replies []diameterReply
	var qs []storeQuery
	var hotKey *readKey
	for i, k := range m.keys {
		if k.Op != "diameter" {
			continue
		}
		var r diameterReply
		if err := json.Unmarshal(k.Ref, &r); err != nil {
			return nil, err
		}
		d := l.runDirect(fmt.Sprintf("k%d", i), graphs[k.Dataset], k.Tau, k.Seed, r)
		runs, replies = append(runs, d), append(replies, r)
		qs = append(qs, storeQuery{Graph: k.Dataset, Params: store.Params{Tau: k.Tau, Seed: k.Seed}, ComputeMS: d.computeMS()})
		if hotKey == nil {
			hotKey = &m.keys[i]
		}
	}
	if hotKey == nil {
		return nil, fmt.Errorf("no diameter key in the working set")
	}
	l.summarizeDirect(runs, replies)
	l.oneWorker(graphs[hotKey.Dataset], runs[0])
	if err := l.storeLayer(graphs, qs); err != nil {
		return nil, err
	}
	if err := l.hotPath(m.ds, hotKey.Owner, "/v1/diameter", hotKey.body(), hotKey.Ref); err != nil {
		return nil, err
	}

	// A shortened mixed phase with every other read traced.
	before, err := scrapeAll(e.Client, m.ds)
	if err != nil {
		return nil, err
	}
	plan, pdeltas := m.plan(refReadRate, e.phaseDuration(tracedShare), true)
	traced := make([]bool, len(plan))
	outs := m.runWith(plan, pdeltas, func(i int, p planned, call func() error) error {
		if p.Kind != kindRead || i%2 == 0 {
			return call()
		}
		traced[i] = true
		var err error
		l.tr.timed("query.http", -1, fmt.Sprintf("r%d", i), func() { err = call() })
		return err
	})
	after, err := scrapeAll(e.Client, m.ds)
	if err != nil {
		return nil, err
	}
	var tracedMS, untracedMS []float64
	for i, o := range outs {
		l.late = append(l.late, ms(o.Late))
		if o.Kind != kindRead || o.Err != nil {
			continue
		}
		if traced[i] {
			tracedMS = append(tracedMS, ms(o.Latency))
		} else {
			untracedMS = append(untracedMS, ms(o.Latency))
		}
	}
	// The reads compute nothing; barrier share comes from the warm-up's
	// computations, scraped over the whole run.
	zero := map[string]float64{}
	l.v["bsp.barrier_share"] = barrierShare(zero, after)
	l.v["fleet.proxy_attempts"] += after["graphdiam_fleet_proxy_attempts_total"] - before["graphdiam_fleet_proxy_attempts_total"]
	l.v["fleet.proxy_retries"] += after["graphdiam_fleet_proxy_retries_total"] - before["graphdiam_fleet_proxy_retries_total"]
	l.storeStats(m.ds)
	return l.finish(tracedMS, untracedMS)
}
