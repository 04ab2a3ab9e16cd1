package obs

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// parseExposition validates text-format 0.0.4 line by line and returns
// the sample values keyed by full sample name (metric + label string).
// It fails the test on any malformed line, out-of-order TYPE/HELP, or a
// sample appearing before its family's TYPE.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string) // family -> type
	var lastFamily string
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, fields[1])
			}
			if _, dup := typed[fields[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, fields[0])
			}
			typed[fields[0]] = fields[1]
			if fields[0] < lastFamily {
				t.Fatalf("line %d: families not sorted: %s after %s", ln+1, fields[0], lastFamily)
			}
			lastFamily = fields[0]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		// Sample line: name{labels} value
		rest := line
		name := rest
		if i := strings.IndexAny(rest, "{ "); i >= 0 {
			name = rest[:i]
		}
		if !validName(name) {
			t.Fatalf("line %d: invalid sample name %q", ln+1, name)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[base]; !ok {
			if _, ok := typed[name]; !ok {
				t.Fatalf("line %d: sample %q before its TYPE", ln+1, name)
			}
		}
		sp := strings.LastIndexByte(rest, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value on %q", ln+1, line)
		}
		key, valText := rest[:sp], rest[sp+1:]
		var v float64
		switch valText {
		case "+Inf", "-Inf", "NaN":
			t.Fatalf("line %d: non-finite sample value %q", ln+1, line)
		default:
			f, err := strconv.ParseFloat(valText, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, valText, err)
			}
			v = f
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %q", ln+1, key)
		}
		samples[key] = v
	}
	return samples
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.")
	cv := r.CounterVec("test_hits_total", "Hits by tier.", "tier")
	g := r.Gauge("test_depth", "Queue depth.")
	h := r.Histogram("test_seconds", "Latency.", []float64{0.1, 1, 10})
	hv := r.HistogramVec("test_phase_seconds", "Phase latency.", nil, "phase")

	c.Add(3)
	c.Inc()
	cv.With("local").Inc()
	cv.With("fleet").Add(2)
	cv.With(`we"ird\label` + "\n").Inc()
	g.Set(7.5)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)
	hv.With("warm").ObserveDuration(250 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	samples := parseExposition(t, b.String())

	want := map[string]float64{
		"test_ops_total":                                    4,
		`test_hits_total{tier="local"}`:                     1,
		`test_hits_total{tier="fleet"}`:                     2,
		"test_depth":                                        7.5,
		`test_seconds_bucket{le="0.1"}`:                     1,
		`test_seconds_bucket{le="1"}`:                       2,
		`test_seconds_bucket{le="10"}`:                      2,
		`test_seconds_bucket{le="+Inf"}`:                    3,
		"test_seconds_count":                                3,
		`test_phase_seconds_count{phase="warm"}`:            1,
		`test_phase_seconds_bucket{phase="warm",le="+Inf"}`: 1,
	}
	for k, v := range want {
		if got, ok := samples[k]; !ok {
			t.Errorf("missing sample %s", k)
		} else if got != v {
			t.Errorf("sample %s = %v, want %v", k, got, v)
		}
	}
	if got := samples["test_seconds_sum"]; got < 100.5 || got > 100.6 {
		t.Errorf("test_seconds_sum = %v, want ~100.55", got)
	}
	// Escaped label values survive the round trip as escaped text.
	if !strings.Contains(b.String(), `tier="we\"ird\\label\n"`) {
		t.Errorf("label escaping missing from exposition:\n%s", b.String())
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_h", "h", []float64{1, 2, 3})
	for _, v := range []float64{0.5, 1.5, 2.5, 3.5, 2.0} {
		h.Observe(v)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	samples := parseExposition(t, b.String())
	// Cumulative le buckets must be non-decreasing and end at _count.
	prev := -1.0
	for _, le := range []string{"1", "2", "3", "+Inf"} {
		v, ok := samples[`test_h_bucket{le="`+le+`"}`]
		if !ok {
			t.Fatalf("missing bucket le=%s", le)
		}
		if v < prev {
			t.Fatalf("bucket le=%s (%v) decreased below %v", le, v, prev)
		}
		prev = v
	}
	if samples["test_h_count"] != 5 || prev != 5 {
		t.Fatalf("count=%v, +Inf=%v, want 5", samples["test_h_count"], prev)
	}
	if h.Count() != 5 {
		t.Fatalf("Count() = %d, want 5", h.Count())
	}
}

func TestCounterMonotonic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	c.Add(5)
	c.Add(-3) // dropped: counters only go up
	if c.Value() != 5 {
		t.Fatalf("negative Add mutated counter: %d", c.Value())
	}
}

func TestVecIdentity(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_total", "t", "a", "b")
	c1 := cv.With("x", "y")
	c2 := cv.With("x", "y")
	c3 := cv.With("x", "z")
	if c1 != c2 {
		t.Fatal("same label values returned distinct counters")
	}
	if c1 == c3 {
		t.Fatal("distinct label values returned the same counter")
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("test_total", "t")
	mustPanic("duplicate", func() { r.Counter("test_total", "t") })
	mustPanic("invalid name", func() { r.Counter("9bad", "t") })
	mustPanic("reserved le label", func() { r.HistogramVec("test_h", "t", nil, "le") })
	mustPanic("unsorted buckets", func() { r.Histogram("test_h2", "t", []float64{2, 1}) })
	mustPanic("label arity", func() { r.CounterVec("test_v", "t", "a").With("x", "y") })
}

// TestConcurrentScrape hammers every metric type from many goroutines
// while scraping in a loop — the race detector (CI runs -race) proves the
// registry is scrape-safe during live traffic, and every intermediate
// scrape must be internally consistent (+Inf bucket == _count).
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	c := r.Counter("test_ops_total", "t")
	cv := r.CounterVec("test_hits_total", "t", "tier")
	g := r.Gauge("test_depth", "t")
	h := r.Histogram("test_seconds", "t", FastBuckets)
	hv := r.HistogramVec("test_phase_seconds", "t", nil, "phase")

	const writers, iters = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for wkr := 0; wkr < writers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			tier := []string{"local", "fleet_raw", "fleet_probe"}[wkr%3]
			for i := 0; i < iters; i++ {
				c.Inc()
				cv.With(tier).Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i) * 1e-6)
				hv.With("warm").Observe(0.01)
			}
		}(wkr)
	}
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Errorf("scrape failed: %v", err)
				return
			}
			samples := parseExposition(t, b.String())
			if inf, cnt := samples[`test_seconds_bucket{le="+Inf"}`], samples["test_seconds_count"]; inf != cnt {
				t.Errorf("scrape inconsistency: +Inf bucket %v != _count %v", inf, cnt)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scrapeDone
	if c.Value() != writers*iters {
		t.Fatalf("lost increments: %d, want %d", c.Value(), writers*iters)
	}
	if h.Count() != writers*iters {
		t.Fatalf("lost observations: %d, want %d", h.Count(), writers*iters)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "t").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_total 1") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}
