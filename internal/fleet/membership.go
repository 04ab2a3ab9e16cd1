package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
)

// Elastic membership: the member list plus an epoch number form a placement
// *view* that every routing decision reads atomically and that can be
// replaced at runtime (admin config push, SIGHUP reload, or anti-entropy
// adoption from a peer). Views are totally ordered by epoch and the higher
// epoch always wins, so the fleet converges without coordination: every
// fleet-internal request is stamped with the sender's epoch, a receiver on
// a different epoch rejects it with a classified, retryable mismatch that
// carries the receiver's full view, and whichever side is behind adopts the
// newer view before the bounded retry. A node therefore never answers a
// request placed under a different view than its own — an epoch mismatch is
// one round-trip of convergence, never a silent wrong-owner answer.

// View is the epoch-stamped placement view: the rank-ordered member URL
// list all routing math runs over, and the epoch that versions it. Boot
// views (from -peers) are epoch 1; every config push must strictly raise
// the epoch.
type View struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
}

// Equal reports whether two views agree on epoch and membership.
func (v View) Equal(o View) bool {
	if v.Epoch != o.Epoch || len(v.Members) != len(o.Members) {
		return false
	}
	for i := range v.Members {
		if v.Members[i] != o.Members[i] {
			return false
		}
	}
	return true
}

// memberHealth is one member's observed-health state. The structs are
// carried across view swaps by URL, so a member that survives a membership
// change keeps its liveness and its hysteresis streak.
type memberHealth struct {
	live atomic.Bool
	// contrary counts consecutive probe results contradicting the current
	// liveness state; the state flips only when it reaches the hysteresis
	// threshold, so a flapping peer cannot thrash placement.
	contrary atomic.Int32
}

// tableView is one immutable placement view plus its health column. A
// Table swaps the whole struct atomically; readers snapshot the pointer
// once and never see a torn view.
type tableView struct {
	epoch   uint64
	members []Member
	self    int // index of the table's own URL in members, or -1
	health  []*memberHealth
}

// Epoch returns the current placement view's epoch.
func (t *Table) Epoch() uint64 { return t.cur.Load().epoch }

// View returns the current placement view in wire form.
func (t *Table) View() View {
	v := t.cur.Load()
	urls := make([]string, len(v.members))
	for i, m := range v.members {
		urls[i] = m.URL
	}
	return View{Epoch: v.epoch, Members: urls}
}

// buildView validates a wire view against this table's identity and
// materializes it, carrying member health over from prev by URL. New
// members start dead (the prober brings them up); self is always live.
func (t *Table) buildView(v View, prev *tableView) (*tableView, error) {
	norm, err := NormalizePeers(v.Members)
	if err != nil {
		return nil, err
	}
	if v.Epoch == 0 {
		return nil, fmt.Errorf("fleet: view epoch must be positive")
	}
	self := -1
	for i, u := range norm {
		if t.selfURL != "" && u == t.selfURL {
			self = i
		}
	}
	if t.selfURL != "" && self < 0 {
		// Satellite of the membership protocol: a view that would orphan
		// this node's own entry is rejected outright — adopting it would
		// leave the node routing every request away from itself while
		// telling nobody it exists.
		return nil, fmt.Errorf("fleet: view epoch %d does not contain this node (%s); refusing to orphan self, keeping epoch %d",
			v.Epoch, t.selfURL, prev.epoch)
	}
	carried := make(map[string]*memberHealth, len(prev.members))
	for i, m := range prev.members {
		carried[m.URL] = prev.health[i]
	}
	nv := &tableView{
		epoch:   v.Epoch,
		members: make([]Member, len(norm)),
		self:    self,
		health:  make([]*memberHealth, len(norm)),
	}
	for i, u := range norm {
		nv.members[i] = Member{Rank: i, URL: u}
		if h, ok := carried[u]; ok {
			nv.health[i] = h
		} else {
			nv.health[i] = &memberHealth{}
		}
	}
	if self >= 0 {
		nv.health[self].live.Store(true)
	}
	return nv, nil
}

// SwapView replaces the placement view with v. The swap is rejected — old
// view kept, clear error returned — when v fails validation, does not
// strictly raise the epoch (an identical re-post of the current view is an
// idempotent no-op), or would orphan this node's own entry. Health state
// of members present in both views is preserved.
func (t *Table) SwapView(v View) error {
	t.swapMu.Lock()
	defer t.swapMu.Unlock()
	cur := t.cur.Load()
	if v.Epoch == cur.epoch && t.View().Equal(v) {
		return nil // idempotent re-post of the live view
	}
	if v.Epoch <= cur.epoch {
		return fmt.Errorf("fleet: view epoch %d is not newer than current epoch %d", v.Epoch, cur.epoch)
	}
	nv, err := t.buildView(v, cur)
	if err != nil {
		return err
	}
	t.cur.Store(nv)
	t.opts.Metrics.EpochAdopted()
	t.opts.Metrics.SetEpoch(nv.epoch)
	t.noteHealth(nv)
	if t.opts.Log != nil {
		t.opts.Log.Info("fleet placement view swapped",
			"epoch", nv.epoch, "members", len(nv.members), "self_rank", nv.self)
	}
	return nil
}

// AdoptIfNewer installs v only when its epoch is strictly newer than the
// current view's, reporting whether a swap happened. Validation failures
// (including a view that would orphan self) are swallowed — anti-entropy
// must never crash the adopter — but logged.
func (t *Table) AdoptIfNewer(v View) bool {
	if v.Epoch <= t.Epoch() {
		return false
	}
	if err := t.SwapView(v); err != nil {
		if t.opts.Log != nil {
			t.opts.Log.Warn("fleet refusing advertised view",
				"epoch", v.Epoch, "error", err.Error())
		}
		return false
	}
	return true
}

// Error-classification header values. A fleet hop that cannot be served
// as routed sets ErrClassHeader so the sending proxy can distinguish
// retry-here (epoch mismatch, after adopting the attached view) from
// retry-elsewhere (draining / dead backend) without parsing error prose.
const (
	// ErrClassHeader carries the machine-readable error class of a fleet
	// rejection.
	ErrClassHeader = "X-Graphdiam-Error"
	// ErrClassEpochMismatch marks a 409: the request's placement epoch is
	// not the receiver's. The response body carries the receiver's view.
	ErrClassEpochMismatch = "epoch-mismatch"
	// ErrClassDraining marks a 503: the receiver is draining and refuses
	// new compute work; retry against the next preference member.
	ErrClassDraining = "draining"
)

// viewError is the JSON body of an epoch-mismatch rejection: the error
// prose plus the receiver's full view, so the sender can adopt it (when
// newer) or push its own (when the receiver is behind) before retrying.
type viewError struct {
	Error string `json:"error"`
	View  View   `json:"view"`
}

// WriteEpochMismatch rejects a mis-epoched request with 409, the receiver's
// epoch in EpochHeader, the classification in ErrClassHeader, and the
// receiver's full view in the body.
func WriteEpochMismatch(w http.ResponseWriter, got string, v View) {
	w.Header().Set(ErrClassHeader, ErrClassEpochMismatch)
	w.Header().Set(EpochHeader, strconv.FormatUint(v.Epoch, 10))
	WriteJSON(w, http.StatusConflict, viewError{
		Error: fmt.Sprintf("fleet: request placement epoch %s does not match this node's epoch %d", got, v.Epoch),
		View:  v,
	})
}

// WriteDraining rejects new compute work on a draining node with 503, a
// Retry-After, and the draining classification — a retryable signal the
// proxies turn into a failover to the next preference member.
func WriteDraining(w http.ResponseWriter, retryAfterSecs int) {
	if retryAfterSecs < 1 {
		retryAfterSecs = 1
	}
	w.Header().Set(ErrClassHeader, ErrClassDraining)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	WriteJSONError(w, http.StatusServiceUnavailable,
		errors.New("fleet: node is draining; retry against the next preference member"))
}

// IsEpochMismatch reports whether resp is a classified epoch-mismatch
// rejection.
func IsEpochMismatch(resp *http.Response) bool {
	return resp.StatusCode == http.StatusConflict &&
		resp.Header.Get(ErrClassHeader) == ErrClassEpochMismatch
}

// IsDrainingResponse reports whether resp is a classified draining
// rejection.
func IsDrainingResponse(resp *http.Response) bool {
	return resp.StatusCode == http.StatusServiceUnavailable &&
		resp.Header.Get(ErrClassHeader) == ErrClassDraining
}

// DecodeViewError extracts the receiver's view from an epoch-mismatch body
// (bounded read; the caller owns closing the body).
func DecodeViewError(body io.Reader) (View, bool) {
	var ve viewError
	if err := json.NewDecoder(io.LimitReader(body, 1<<20)).Decode(&ve); err != nil {
		return View{}, false
	}
	if ve.View.Epoch == 0 || len(ve.View.Members) == 0 {
		return View{}, false
	}
	return ve.View, true
}

// StampEpoch marks an outbound fleet-internal request with the sender's
// placement epoch so the receiver can detect divergent views.
func StampEpoch(h http.Header, epoch uint64) {
	h.Set(EpochHeader, strconv.FormatUint(epoch, 10))
}

// RequestEpoch parses the placement epoch stamped on a request; ok is
// false when the header is absent or malformed (external clients).
func RequestEpoch(h http.Header) (uint64, bool) {
	raw := h.Get(EpochHeader)
	if raw == "" {
		return 0, false
	}
	e, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// PushView posts a view to a peer's /v2/fleet/config (the sender-is-newer
// half of anti-entropy: a receiver that rejected our epoch because it is
// *behind* learns the newer view this way). Best-effort.
func PushView(client *http.Client, base string, v View) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v2/fleet/config", "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("fleet: view push to %s: status %d", base, resp.StatusCode)
	}
	return nil
}
