package main

import (
	"testing"
	"time"
)

func msSpan(name string, start, end, parent int, req string) span {
	return span{Name: name, Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond, Parent: parent, Req: req}
}

// TestSelfTimes: a span's self time subtracts the union of its direct
// children, clipped to its own interval; grandchildren are charged to
// their own parent only.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		msSpan("query.root", 0, 100, -1, "r"),   // children cover [10,50] ∪ [60,70] ∪ [90,100]
		msSpan("core.a", 10, 30, 0, "r"),        // overlaps b
		msSpan("core.b", 20, 50, 0, "r"),        // has a grandchild
		msSpan("quotient.c", 60, 70, 0, "r"),    //
		msSpan("store.d", 90, 120, 0, "r"),      // runs past its parent
		msSpan("gio.e", 25, 45, 2, "r"),         // child of b only
		msSpan("graph.lone", 0, 7, -1, "other"), // no children
	}
	want := []time.Duration{40, 20, 10, 10, 30, 20, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, got[i], want[i]*time.Millisecond)
		}
	}
	// Per layer, the median over requests of the layer's self time in
	// each: core is 20+10 in r and 4 in s.
	per := layerSelfPerRequest(append(spans, msSpan("core.x", 200, 204, -1, "s")))
	if per["core"] != (30+4)/2.0 || per["query"] != 40 || per["graph"] != 7 {
		t.Errorf("per-request layer self times %v", per)
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("query.direct", -1, "q0")
	tr.timed("core.cluster", root, "q0", func() { time.Sleep(2 * time.Millisecond) })
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].Req != "q0" {
		t.Fatalf("spans %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start || s.End < 0 {
			t.Errorf("span %s not closed: %+v", s.Name, s)
		}
	}
	var nilTracer *tracer
	if d := nilTracer.timed("x.y", -1, "", func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Errorf("nil tracer timed %v", d)
	}
}
