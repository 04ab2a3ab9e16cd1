package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans of one request
// share Req; Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    string        `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, req string, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// writeFile writes every span as JSON to path.
func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other (concurrent calls under one parent); the covered part is the union
// of their intervals clipped to the parent, so overlapping children are
// not subtracted twice.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, [2]time.Duration{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y [2]time.Duration) int { return int(x[0] - y[0]) })
		var covered, curA, curB time.Duration
		open := false
		for _, iv := range ivs {
			switch {
			case !open:
				curA, curB, open = iv[0], iv[1], true
			case iv[0] <= curB:
				curB = max(curB, iv[1])
			default:
				covered += curB - curA
				curA, curB = iv[0], iv[1]
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
