package fleet

import (
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"graphdiam/internal/obs"
)

// FrontDoor is the handler of cmd/graphdiamlb, the fleet's stateless
// edge: admission control, then placement, then a reverse-proxied
// forward. It is not itself a member — its Table has self rank -1 — and
// it places requests with the same Table.Place the daemons use, so a
// query lands directly on the node whose cache and singleflight will
// serve it.
type FrontDoor struct {
	Table *Table
	// Proxy forwards placed requests; its SelfRank is -1, so hops carry
	// EdgeHeader and daemons do not charge the tenant a second time.
	Proxy *Proxy
	// Quotas, when non-nil, charges every job-costing request, whatever
	// routing headers the client sent.
	Quotas *Quotas
	// Log receives one structured record per request; nil disables it.
	Log *slog.Logger
	// MaxBody bounds proxied request bodies.
	MaxBody int64
	// Metrics and Registry back the per-route counters and GET /metrics.
	Metrics  *obs.HTTPMetrics
	Registry *obs.Registry
}

// lbRoute labels a request for the front door's per-route metrics: the
// edge's own endpoints by path, everything proxied by its placement
// class — never the raw path, whose dataset/job segments are unbounded.
func lbRoute(method, path string) string {
	switch path {
	case "/healthz", "/readyz", "/v2/fleet", "/v2/fleet/config", "/metrics":
		return path
	}
	switch Classify(method, path).Class {
	case RouteDataset:
		return "proxy_dataset"
	case RouteJob:
		return "proxy_job"
	default:
		return "proxy_other"
	}
}

func (f *FrontDoor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := StampRequestID(w, r)
	route := lbRoute(r.Method, r.URL.Path)
	done := f.Metrics.Begin()
	rec := obs.WrapWriter(w)
	start := time.Now()
	f.dispatch(rec, r)
	elapsed := time.Since(start)
	done(route, r.Method, rec.Code())
	if f.Log != nil {
		attrs := []any{
			"route", route,
			"method", r.Method,
			"status", rec.Code(),
			"duration_ms", float64(elapsed.Microseconds()) / 1e3,
			"request_id", rid,
			"epoch", f.Table.Epoch(),
		}
		if tenant := r.Header.Get(TenantHeader); tenant != "" {
			attrs = append(attrs, "tenant", tenant)
		}
		f.Log.Info("http request", attrs...)
	}
}

func (f *FrontDoor) dispatch(w http.ResponseWriter, r *http.Request) {
	// The edge's own endpoints: liveness, readiness, placement view,
	// metrics, and membership administration (a config push to the front
	// door keeps the edge's placement in lockstep with its daemons).
	switch r.URL.Path {
	case "/healthz":
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	case "/readyz":
		f.serveReadyz(w)
		return
	case "/metrics":
		f.Registry.Handler().ServeHTTP(w, r)
		return
	case "/v2/fleet":
		WriteJSON(w, http.StatusOK, f.Table.Info(r.URL.Query().Get("dataset")))
		return
	case "/v2/fleet/config":
		if r.Method != http.MethodPost {
			WriteJSONError(w, http.StatusMethodNotAllowed, fmt.Errorf("config pushes are POST"))
			return
		}
		HandleConfigPush(f.Table, w, r)
		return
	}

	if !f.Quotas.Admit(w, r, f.Metrics) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, f.MaxBody)
	if chain, ok := f.place(w, r); ok {
		f.Proxy.ForwardChain(w, r, chain)
	}
}

// place picks the daemons this request may land on, best first; the tail
// of the chain is the failover path, so the proxy advances past draining
// or freshly-dead members without bouncing the error back to the client.
// Requests Place cannot place — RouteAny, RouteLocal, an unplaceable
// dataset (the daemon's handler answers the 400/404), a dead job home —
// go to the first live daemons in rank order. Reports false after
// writing an error.
func (f *FrontDoor) place(w http.ResponseWriter, r *http.Request) ([]Member, bool) {
	d := Classify(r.Method, r.URL.Path)
	if d.Class == RouteDataset && d.Dataset == "" && d.BodyField != "" {
		name, err := PeekBodyField(r, d.BodyField)
		if err != nil {
			WriteJSONError(w, http.StatusBadRequest, err)
			return nil, false
		}
		d.Dataset = name
	}
	chain := f.Table.Place(d)
	if len(chain) == 0 {
		chain = f.Table.FirstLive(placeChainMax)
	}
	if len(chain) == 0 {
		WriteJSONError(w, http.StatusServiceUnavailable,
			fmt.Errorf("no live fleet member (probes against %d daemons all failing)", len(f.Table.Members())))
		return nil, false
	}
	return chain, true
}

func (f *FrontDoor) serveReadyz(w http.ResponseWriter) {
	live := f.Table.LiveCount()
	status, state := http.StatusOK, "ready"
	if live == 0 {
		status, state = http.StatusServiceUnavailable, "unready"
	}
	WriteJSON(w, status, map[string]any{
		"status": state,
		"live":   live,
		"fleet":  f.Table.Snapshot(),
		"view":   f.Table.View(),
	})
}
