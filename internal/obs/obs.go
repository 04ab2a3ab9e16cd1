// Package obs is the repo's zero-dependency observability layer: typed
// counters, gauges, and fixed-bucket histograms in a race-clean registry
// with Prometheus text exposition (format 0.0.4) served over HTTP.
//
// Everything is stdlib-only on purpose — go.mod has no dependencies and
// this package keeps it that way. The API mirrors the small useful core
// of prometheus/client_golang: construct metrics through a *Registry,
// hold the returned handle, and mutate it on the hot path with a single
// atomic op. Exposition walks the registry under short locks and reads
// every value atomically, so scraping during live BSP jobs is safe under
// the race detector.
//
// Conventions (enforced socially, documented in DESIGN.md):
//   - metric names carry the graphdiam_ prefix except the go_* runtime
//     family;
//   - label cardinality must be bounded: dataset names and route
//     patterns are fine, request ids and raw URLs never;
//   - counters only go up — restarts are the only reset.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets covers request-scale latencies (5ms .. 10s), matching the
// Prometheus client default so dashboards port over unchanged.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// FastBuckets covers engine-scale latencies (1µs .. 1s): superstep
// compute, barrier waits, and in-process collectives live far below the
// request buckets' floor.
var FastBuckets = []float64{1e-6, 5e-6, 2.5e-5, 1e-4, 5e-4, 2.5e-3, 1e-2, 5e-2, .25, 1}

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing integer. The zero value is ready
// to use, but counters should be created through a Registry so they are
// scraped.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are dropped to preserve monotonicity.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float value that can move both ways.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add applies a delta with a CAS loop (safe from any goroutine).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets. All
// mutation is atomic; exposition derives _count from the bucket counts
// so every scrape is internally consistent (+Inf bucket == _count).
type Histogram struct {
	bounds  []float64      // sorted upper bounds, exclusive of +Inf
	buckets []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count reports the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// child is one labeled series inside a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// family is one named metric with a fixed label schema and a child per
// distinct label-value tuple.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string
	bounds []float64

	mu       sync.RWMutex
	children map[string]*child
	order    []*child
}

// Registry holds metric families and renders them as Prometheus text
// exposition. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	gather   []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnGather registers a hook run at the start of every scrape, before
// values are read — the seam for sampled sources (runtime stats, queue
// depths) that are cheaper to refresh per scrape than per event.
func (r *Registry) OnGather(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gather = append(r.gather, fn)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// register creates a family or panics on misuse (duplicate or invalid
// names are programmer errors, caught at process start).
func (r *Registry) register(name, help string, typ metricType, bounds []float64, labels []string) *family {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic("obs: invalid label name " + strconv.Quote(l) + " on " + name)
		}
	}
	if typ == typeHistogram {
		if len(bounds) == 0 {
			bounds = DefBuckets
		}
		if !sort.Float64sAreSorted(bounds) {
			panic("obs: histogram buckets for " + name + " are not sorted")
		}
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   labels,
		bounds:   bounds,
		children: make(map[string]*child),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: duplicate metric registration " + name)
	}
	r.families[name] = f
	return f
}

// childFor returns (creating on first use) the series for the given
// label values.
func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[key]; ok {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		c.counter = &Counter{}
	case typeGauge:
		c.gauge = &Gauge{}
	case typeHistogram:
		c.hist = &Histogram{
			bounds:  f.bounds,
			buckets: make([]atomic.Int64, len(f.bounds)+1),
		}
	}
	f.children[key] = c
	f.order = append(f.order, c)
	return c
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, typeCounter, nil, nil).childFor(nil).counter
}

// CounterVec registers a counter family with the given label names.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, nil, labels)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.childFor(values).counter
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, typeGauge, nil, nil).childFor(nil).gauge
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, nil, labels)}
}

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.childFor(values).gauge
}

// Histogram registers an unlabeled histogram; nil buckets selects
// DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, typeHistogram, buckets, nil).childFor(nil).hist
}

// HistogramVec registers a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers a histogram family with the given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, typeHistogram, buckets, labels)}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.childFor(values).hist
}

// --- exposition ---

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {a="x",b="y"} with extra appended last (used for
// the histogram le label); empty when there are no pairs.
func labelString(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteString(`"`)
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		b.WriteString(extra[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extra[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func (f *family) write(b *strings.Builder) {
	f.mu.RLock()
	kids := append([]*child(nil), f.order...)
	f.mu.RUnlock()
	if len(kids) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for _, c := range kids {
		ls := labelString(f.labels, c.labelValues)
		switch f.typ {
		case typeCounter:
			b.WriteString(f.name)
			b.WriteString(ls)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(c.counter.Value(), 10))
			b.WriteByte('\n')
		case typeGauge:
			b.WriteString(f.name)
			b.WriteString(ls)
			b.WriteByte(' ')
			b.WriteString(formatFloat(c.gauge.Value()))
			b.WriteByte('\n')
		case typeHistogram:
			h := c.hist
			var cum int64
			for i, bound := range h.bounds {
				cum += h.buckets[i].Load()
				b.WriteString(f.name)
				b.WriteString("_bucket")
				b.WriteString(labelString(f.labels, c.labelValues, "le", formatFloat(bound)))
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(cum, 10))
				b.WriteByte('\n')
			}
			cum += h.buckets[len(h.bounds)].Load()
			b.WriteString(f.name)
			b.WriteString("_bucket")
			b.WriteString(labelString(f.labels, c.labelValues, "le", "+Inf"))
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(cum, 10))
			b.WriteByte('\n')

			b.WriteString(f.name)
			b.WriteString("_sum")
			b.WriteString(ls)
			b.WriteByte(' ')
			b.WriteString(formatFloat(h.Sum()))
			b.WriteByte('\n')

			b.WriteString(f.name)
			b.WriteString("_count")
			b.WriteString(ls)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(cum, 10))
			b.WriteByte('\n')
		}
	}
}

// WritePrometheus renders the full registry in text exposition format
// 0.0.4, families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	hooks := append([]func(){}, r.gather...)
	r.mu.Unlock()
	for _, h := range hooks {
		h()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry at GET /metrics with the standard
// text-format content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
}

// RegisterRuntimeMetrics adds the go_* process family: goroutine count,
// heap usage, and GC activity, sampled once per scrape via a gather hook
// (runtime.ReadMemStats briefly stops the world — per scrape, not per
// event, keeps that off every hot path).
func RegisterRuntimeMetrics(r *Registry) {
	goroutines := r.Gauge("go_goroutines", "Number of live goroutines.")
	heapAlloc := r.Gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.")
	heapSys := r.Gauge("go_heap_sys_bytes", "Bytes of heap memory obtained from the OS.")
	gcCycles := r.Gauge("go_gc_cycles_total", "Completed GC cycles since process start.")
	gcPause := r.Gauge("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.")
	r.OnGather(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heapAlloc.Set(float64(ms.HeapAlloc))
		heapSys.Set(float64(ms.HeapSys))
		gcCycles.Set(float64(ms.NumGC))
		gcPause.Set(float64(ms.PauseTotalNs) / 1e9)
	})
}
