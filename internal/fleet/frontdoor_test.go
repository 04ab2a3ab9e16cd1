package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphdiam/internal/obs"
)

// liveTable builds a front-door table (self -1) over urls with the given
// ranks marked live and the rest dead.
func liveTable(t *testing.T, urls []string, live ...int) *Table {
	t.Helper()
	tab := newTestTable(t, urls, -1)
	for _, r := range live {
		tab.SetLive(r, true)
	}
	return tab
}

func ranks(ms []Member) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.Rank
	}
	return out
}

func TestPlaceDatasetChainCappedAtThreeLive(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}
	tab := liveTable(t, urls, 0, 1, 2, 3, 4)
	d := Decision{Class: RouteDataset, Dataset: "usa"}
	pref := tab.Preference("usa")

	got := ranks(tab.Place(d))
	if want := ranks(pref[:3]); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("all live: chain %v, want the top three of the preference order %v", got, want)
	}
	// The owner dies: the chain is the next three live members.
	tab.SetLive(pref[0].Rank, false)
	got = ranks(tab.Place(d))
	if want := ranks(pref[1:4]); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("owner dead: chain %v, want %v", got, want)
	}
	// Fewer live members than the cap: all of them, in preference order.
	tab.SetLive(pref[1].Rank, false)
	tab.SetLive(pref[2].Rank, false)
	got = ranks(tab.Place(d))
	if want := ranks(pref[3:]); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("two live: chain %v, want %v", got, want)
	}
	if c := tab.Place(Decision{Class: RouteDataset}); c != nil {
		t.Fatalf("nameless dataset request placed at %v, want nil", ranks(c))
	}
}

func TestPlaceJobHome(t *testing.T) {
	tab := liveTable(t, []string{"http://a:1", "http://b:1", "http://c:1"}, 0, 1, 2)
	job := Decision{Class: RouteJob, JobID: "job-r2-7"}
	if got := ranks(tab.Place(job)); len(got) != 1 || got[0] != 2 {
		t.Fatalf("live home: chain %v, want [2]", got)
	}
	tab.SetLive(2, false)
	if c := tab.Place(job); c != nil {
		t.Fatalf("dead home: chain %v, want nil (a job lives only at home)", ranks(c))
	}
	for _, d := range []Decision{
		{Class: RouteJob, JobID: "job-7"},    // pre-fleet ID
		{Class: RouteJob, JobID: "job-r9-1"}, // home outside the view
		{Class: RouteAny},
		{Class: RouteLocal},
	} {
		if c := tab.Place(d); c != nil {
			t.Errorf("%+v placed at %v, want nil", d, ranks(c))
		}
	}
}

// backends starts n daemons that answer with their own rank and count
// the requests they serve.
func backends(t *testing.T, n int) ([]string, []*atomic.Int64) {
	t.Helper()
	urls := make([]string, n)
	hits := make([]*atomic.Int64, n)
	for i := range urls {
		i := i
		hits[i] = new(atomic.Int64)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			WriteJSON(w, http.StatusOK, map[string]int{"rank": i})
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls, hits
}

func newFrontDoor(tab *Table, q *Quotas) *FrontDoor {
	reg := obs.NewRegistry()
	return &FrontDoor{
		Table:    tab,
		Proxy:    &Proxy{SelfRank: -1, Table: tab, RetryBase: time.Millisecond},
		Quotas:   q,
		MaxBody:  1 << 20,
		Metrics:  obs.NewHTTPMetrics(reg),
		Registry: reg,
	}
}

func servedBy(t *testing.T, fd *FrontDoor, req *http.Request) int {
	t.Helper()
	rec := httptest.NewRecorder()
	fd.ServeHTTP(rec, req)
	var body struct{ Rank int }
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &body) != nil {
		t.Fatalf("%s %s: %d %s", req.Method, req.URL.Path, rec.Code, rec.Body.String())
	}
	return body.Rank
}

// TestFrontDoorJobFallback: a job goes to its live home rank; with the
// home dead, it falls back to the first live daemon in rank order (whose
// handler then answers for the job as best it can).
func TestFrontDoorJobFallback(t *testing.T) {
	urls, _ := backends(t, 3)
	tab := liveTable(t, urls, 0, 1, 2)
	fd := newFrontDoor(tab, nil)
	get := func() *http.Request { return httptest.NewRequest(http.MethodGet, "/v2/jobs/job-r2-5", nil) }
	if got := servedBy(t, fd, get()); got != 2 {
		t.Fatalf("live home: served by rank %d, want 2", got)
	}
	tab.SetLive(2, false)
	tab.SetLive(0, false)
	if got := servedBy(t, fd, get()); got != 1 {
		t.Fatalf("dead home: served by rank %d, want the first live rank 1", got)
	}
	tab.SetLive(1, false)
	rec := httptest.NewRecorder()
	fd.ServeHTTP(rec, get())
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("no live daemon: %d, want 503", rec.Code)
	}
}

// TestFrontDoorChargesEdgeHeader: the edge charges every job-costing
// request, even one whose client forged the front door's own
// X-Graphdiam-Edge marker (daemons honour it; the edge must not).
func TestFrontDoorChargesEdgeHeader(t *testing.T) {
	urls, hits := backends(t, 1)
	fd := newFrontDoor(liveTable(t, urls, 0), NewQuotas(0.01, 1))
	post := func() *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/diameter", strings.NewReader(`{"graph":"g"}`))
		r.Header.Set(TenantHeader, "mallory")
		r.Header.Set(EdgeHeader, "forged")
		return r
	}
	servedBy(t, fd, post())
	rec := httptest.NewRecorder()
	fd.ServeHTTP(rec, post())
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request with a forged edge header: %d, want 429", rec.Code)
	}
	if hits[0].Load() != 1 {
		t.Fatalf("daemon saw %d requests, want 1 (the 429 must not be forwarded)", hits[0].Load())
	}
}

func TestAdmitRejectsWithRetryAfter(t *testing.T) {
	q := NewQuotas(0.5, 1) // one token every two seconds
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }
	reg := obs.NewRegistry()
	m := obs.NewHTTPMetrics(reg)
	post := func() *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v2/jobs", strings.NewReader(`{}`))
		r.Header.Set(TenantHeader, "alice")
		return r
	}
	if !q.Admit(httptest.NewRecorder(), post(), m) {
		t.Fatal("first request rejected")
	}
	// Requests that cost no job are never charged.
	if !q.Admit(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v2/jobs", nil), m) {
		t.Fatal("job listing rejected")
	}
	rec := httptest.NewRecorder()
	if q.Admit(rec, post(), m) {
		t.Fatal("over-rate request admitted")
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if secs, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body["error"], `"alice"`) {
		t.Fatalf("429 body %q, want a JSON error naming the tenant", rec.Body.String())
	}
	var expo strings.Builder
	reg.WritePrometheus(&expo)
	if !strings.Contains(expo.String(), `graphdiam_http_throttled_total{tenant="alice"} 1`) {
		t.Fatalf("throttle not counted:\n%s", expo.String())
	}
	var none *Quotas
	if !none.Admit(httptest.NewRecorder(), post(), m) {
		t.Fatal("nil quotas rejected a request")
	}
}
