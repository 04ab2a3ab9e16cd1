package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"graphdiam/internal/fleet"
	"graphdiam/internal/store"
)

// The fleet-facing half of the serving tier: owner routing, the fleet
// cache peer endpoints, the liveness/readiness split, request-ID
// propagation, per-tenant admission control, and elastic membership
// (epoch enforcement, config pushes, graceful drain). Everything here is
// inert unless Config.Fleet (routing) or Config.Quotas (admission) is
// set, so a standalone daemon's request path is unchanged.

// epochExempt lists the paths a node must answer regardless of placement
// epoch: health and membership endpoints are how divergent views get
// *repaired*, so rejecting them would wedge convergence.
func epochExempt(path string) bool {
	return path == "/healthz" || path == "/readyz" ||
		path == "/v2/fleet" || strings.HasPrefix(path, "/v2/fleet/")
}

// checkEpoch enforces the placement-epoch contract on fleet-internal
// hops: a request stamped with an epoch other than this node's view is
// rejected with a classified 409 carrying our view, never answered under
// divergent placement. Unstamped requests (external clients) pass.
// Returns false after writing the rejection.
func (s *Server) checkEpoch(w http.ResponseWriter, r *http.Request) bool {
	t := s.cfg.Fleet
	if t == nil || epochExempt(r.URL.Path) {
		return true
	}
	e, ok := fleet.RequestEpoch(r.Header)
	if !ok || e == t.Epoch() {
		return true
	}
	s.cfg.FleetMetrics.EpochMismatchRejected()
	fleet.WriteEpochMismatch(w, strconv.FormatUint(e, 10), t.View())
	return false
}

// checkDraining rejects new compute work while the node drains, with the
// classified 503 + Retry-After the proxies turn into a failover. Reads,
// cache probes, and routing all keep working — drain degrades a node to
// read-only, it does not black-hole it. Returns false after writing.
func (s *Server) checkDraining(w http.ResponseWriter, r *http.Request) bool {
	if !s.draining.Load() || !fleet.CostsJob(r.Method, r.URL.Path) {
		return true
	}
	fleet.WriteDraining(w, 2)
	return false
}

// admit applies per-tenant admission control to compute-cost requests.
// Requests forwarded by the front door (EdgeHeader) were already charged
// at the edge and pass freely — double-charging a routed request would
// halve every tenant's effective rate. Returns false after writing the
// 429.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if r.Header.Get(fleet.EdgeHeader) != "" || r.Header.Get(fleet.RoutedHeader) != "" {
		return true
	}
	return s.cfg.Quotas.Admit(w, r, s.metrics)
}

// computePeek is the routing-relevant subset of a compute request body:
// enough to place it (Graph) and to decide whether a replica can serve
// it from local cache (Op + Params).
type computePeek struct {
	Op    string `json:"op"`
	Graph string `json:"graph"`
	Name  string `json:"name"`
	store.Params
}

// peekCompute buffers the request body (fleet.BufferBody) and parses the
// routing-relevant fields. A non-JSON body yields the zero peek — the
// handler will produce its usual 400.
func peekCompute(r *http.Request) (computePeek, error) {
	body, err := fleet.BufferBody(r)
	if err != nil {
		return computePeek{}, err
	}
	var pk computePeek
	json.Unmarshal(body, &pk)
	return pk, nil
}

// replicaOp maps a compute path to the operation name used in fleet
// cache keys, or "" when the path is not replica-servable. Only the v1
// synchronous compute endpoints qualify: their responses are pure
// functions of (dataset bytes, params), so a replica answering from its
// pushed copy is byte-identical to the owner answering from its LRU.
// Job submissions stay owner-homed — a job's ID embeds the rank that
// created it.
func replicaOp(method, path string) string {
	if method != http.MethodPost {
		return ""
	}
	switch path {
	case "/v1/decompose":
		return string(store.JobDecompose)
	case "/v1/diameter":
		return string(store.JobDiameter)
	default:
		return ""
	}
}

// routeAway forwards the request to the fleet member that owns it and
// reports whether it did (or wrote an error). A request that already
// crossed a daemon→daemon hop (RoutedHeader) is always served locally:
// the sender computed ownership from the same shared placement view, so
// a second hop could only mean divergent health views — one extra hop is
// the bounded cost of a stale view, a loop is not.
//
// With replication factor k>1, a node that is one of the key's top-k
// live preference members serves a v1 compute itself when the result
// already sits in its local cache (a replica push), skipping the hop to
// the owner; on a local miss it still forwards, so computes stay
// single-homed and cross-node singleflight intact.
func (s *Server) routeAway(w http.ResponseWriter, r *http.Request) bool {
	if s.proxy == nil || r.Header.Get(fleet.RoutedHeader) != "" {
		return false
	}
	t := s.cfg.Fleet
	d := fleet.Classify(r.Method, r.URL.Path)
	var pk computePeek
	if d.Class == fleet.RouteDataset && d.Dataset == "" && d.BodyField != "" {
		var err error
		if pk, err = peekCompute(r); err != nil {
			fleet.WriteJSONError(w, http.StatusBadRequest, err)
			return true
		}
		d.Dataset = pk.Graph
		if d.BodyField == "name" {
			d.Dataset = pk.Name
		}
	}
	chain := t.Place(d)
	if len(chain) == 0 || chain[0].Rank == t.Self() {
		// Nothing to place (the handler produces its usual 400/404), a
		// pre-fleet job ID, an unreachable job home, or our own dataset
		// or job: serve locally (an absent job 404s exactly as at home).
		return false
	}
	if d.Class == fleet.RouteJob {
		s.proxy.Forward(w, r, chain[0])
		return true
	}
	if k := s.cfg.Replicas; k > 1 {
		if op := replicaOp(r.Method, r.URL.Path); op != "" {
			// Replica placement follows the cache key's preference chain
			// (that is where Put lands pushes), not the dataset name's.
			if fkey, ok := s.st.FleetKeyFor(d.Dataset, op, pk.Params); ok && s.st.CachedLocally(d.Dataset, op, pk.Params) {
				for _, m := range t.Replicas(fkey, k) {
					if m.Rank == t.Self() {
						s.cfg.FleetMetrics.ReplicaLocalServe()
						return false // replica-local hit: serve it here
					}
				}
			}
		}
	}
	s.proxy.ForwardChain(w, r, chain)
	return true
}

// handleFleetCacheGet serves a peer's fleet-cache probe from the local
// LRU (raw bytes, no re-encoding — byte identity across nodes is what
// makes the cache transparent).
func (s *Server) handleFleetCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	body, ok := s.st.FleetCacheGet(key)
	if !ok {
		fleet.WriteJSONError(w, http.StatusNotFound, fmt.Errorf("fleet cache miss"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// handleFleetCachePut accepts a peer's pushed result.
func (s *Server) handleFleetCachePut(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		fleet.WriteJSONError(w, http.StatusBadRequest, fmt.Errorf("read cache body: %w", err))
		return
	}
	if err := s.st.FleetCachePut(r.PathValue("key"), body); err != nil {
		fleet.WriteJSONError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleFleetConfig is POST /v2/fleet/config: swap in a newer placement
// view. Rejections (stale epoch, invalid members, a view that would
// orphan this node) are 409s carrying the current view, so a pushing
// peer converges instead of flying blind.
func (s *Server) handleFleetConfig(w http.ResponseWriter, r *http.Request) {
	t := s.cfg.Fleet
	if t == nil {
		fleet.WriteJSONError(w, http.StatusNotFound, fmt.Errorf("fleet mode is not enabled (start with -peers)"))
		return
	}
	fleet.HandleConfigPush(t, w, r)
}

// handleFleetDrain is POST /v2/fleet/drain: flip this node to draining
// (readyz 503, new compute work rejected with the classified 503), then
// in the background wait for in-flight work, pre-warm the successors'
// caches with the hot fleet entries, and hand control to Config.OnDrain
// (the daemon exits clean). Idempotent — a second drain request reports
// the drain already in progress.
func (s *Server) handleFleetDrain(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Fleet == nil {
		fleet.WriteJSONError(w, http.StatusNotFound, fmt.Errorf("fleet mode is not enabled (start with -peers)"))
		return
	}
	if s.draining.Swap(true) {
		fleet.WriteJSON(w, http.StatusOK, map[string]string{"status": "already draining"})
		return
	}
	timeout := s.cfg.DrainTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		t0 := time.Now()
		if err := s.st.WaitIdle(ctx); err != nil && s.cfg.Log != nil {
			s.cfg.Log.Warn("fleet drain proceeding with work still in flight",
				"error", err.Error(), "waited_ms", durationMS(time.Since(t0)))
		}
		s.cfg.FleetMetrics.DrainPhase("wait_idle", time.Since(t0))
		t1 := time.Now()
		warmed := s.st.PrewarmSuccessors(drainPrewarmMax)
		s.cfg.FleetMetrics.DrainPhase("prewarm", time.Since(t1))
		if s.cfg.Log != nil {
			s.cfg.Log.Info("fleet drain complete",
				"prewarmed_entries", warmed, "duration_ms", durationMS(time.Since(t0)))
		}
		if s.cfg.OnDrain != nil {
			s.cfg.OnDrain()
		}
	}()
	fleet.WriteJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
}

// drainPrewarmMax caps how many hot fleet-cache entries a draining node
// hands to its successors — enough to keep the working set warm, bounded
// so drain latency stays dominated by in-flight work, not cache size.
const drainPrewarmMax = 64

// ReadyCheck is one readiness probe's outcome.
type ReadyCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// ReadyResponse is the GET /readyz payload.
type ReadyResponse struct {
	Status string       `json:"status"` // "ready" | "unready" | "draining"
	Checks []ReadyCheck `json:"checks"`
	// Fleet is informational: readiness never depends on peers (two nodes
	// each waiting for the other to become ready would deadlock a rolling
	// restart), but operators and the front door want the view.
	Fleet []fleet.MemberStatus `json:"fleet,omitempty"`
	// View advertises this node's placement view. Probes parse it, so a
	// node that missed a config push adopts the newer view within one
	// probe interval (anti-entropy).
	View *fleet.View `json:"view,omitempty"`
}

// blobPinger is the optional deep-reachability probe a blob backend may
// implement (RemoteStore does); backends without it are checked by
// enumerating their local state.
type blobPinger interface {
	Ping(ctx context.Context) error
}

// handleReadyz is the readiness probe: 200 only when this node can
// actually serve (catalog directory present, blob tier answering, not
// draining). /healthz stays pure liveness — the process is up — so an
// unready node is routed around, not restarted.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{Status: "ready"}
	if cat := s.cfg.Datasets; cat != nil {
		check := ReadyCheck{Name: "catalog", OK: true}
		if _, err := os.Stat(cat.Dir()); err != nil {
			check.OK, check.Detail = false, err.Error()
		}
		resp.Checks = append(resp.Checks, check)

		check = ReadyCheck{Name: "blobs", OK: true}
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		if p, ok := cat.Blobs().(blobPinger); ok {
			if err := p.Ping(ctx); err != nil {
				check.OK, check.Detail = false, err.Error()
			}
		} else if _, err := cat.Blobs().List(); err != nil {
			check.OK, check.Detail = false, err.Error()
		}
		cancel()
		resp.Checks = append(resp.Checks, check)
	}
	if t := s.cfg.Fleet; t != nil {
		resp.Fleet = t.Snapshot()
		v := t.View()
		resp.View = &v
	}
	status := http.StatusOK
	for _, c := range resp.Checks {
		if !c.OK {
			resp.Status = "unready"
			status = http.StatusServiceUnavailable
			break
		}
	}
	if s.draining.Load() {
		// Draining outranks ready: the prober must route new work away
		// while the node finishes what it has.
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	fleet.WriteJSON(w, status, resp)
}

func (s *Server) handleFleetInfo(w http.ResponseWriter, r *http.Request) {
	t := s.cfg.Fleet
	if t == nil {
		fleet.WriteJSONError(w, http.StatusNotFound, fmt.Errorf("fleet mode is not enabled (start with -peers)"))
		return
	}
	fleet.WriteJSON(w, http.StatusOK, t.Info(r.URL.Query().Get("dataset")))
}
