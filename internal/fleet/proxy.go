package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"time"
)

// Proxy forwards requests to fleet members, preserving bodies, streaming
// responses (SSE job events flush immediately — httputil.ReverseProxy
// switches to immediate flushing for text/event-stream), and
// cancel-on-disconnect (the outbound request rides the inbound context,
// so a client hanging up mid-proxy cancels the job on the owner exactly
// as a direct disconnect would).
//
// Every hop is stamped with the sender's placement epoch. A receiver on
// a divergent view rejects the hop with a classified 409 carrying its
// own view; the proxy repairs the divergence (adopt the newer view, or
// push its own to a lagging receiver) and retries with jittered backoff
// — bounded, and only before the first response byte has been relayed,
// so a retry can never corrupt a stream. Draining and freshly-dead
// backends fail over along the preference chain (ForwardChain) or
// surface as a retryable 503 + Retry-After (Forward), never a 502.
type Proxy struct {
	// Transport performs the forwarded requests; nil selects
	// http.DefaultTransport. It must NOT have a global timeout — SSE
	// streams live as long as the job runs.
	Transport http.RoundTripper
	// Table is the sender's membership view: the source of the stamped
	// epoch, the target of view adoption, and the liveness oracle for
	// classifying connect failures. nil disables epoch handling (tests).
	Table *Table
	// SelfRank stamps RoutedHeader on daemon→daemon hops; -1 (the front
	// door) stamps EdgeHeader instead and leaves re-routing to the
	// receiving daemon. When Table is set and the node is a member, the
	// current view's self rank wins (ranks can move across view swaps).
	SelfRank int
	// MaxAttempts bounds the total outbound attempts one Forward or
	// ForwardChain makes. Default 4.
	MaxAttempts int
	// RetryBase is the backoff unit between attempts; each retry sleeps
	// base·2^n plus up to one extra base of jitter. Default 25ms.
	RetryBase time.Duration
	// Log receives forwarding failures as structured records (target,
	// class, request_id fields); nil disables logging.
	Log *slog.Logger
	// Metrics observes attempts, classified retries, and failover hops;
	// nil disables metric recording.
	Metrics *Metrics
}

// hopReject classifies one failed forwarding attempt. It travels through
// httputil.ReverseProxy as the ModifyResponse error so the ErrorHandler
// can record it without writing to the client.
type hopReject struct {
	class string // ErrClassEpochMismatch, ErrClassDraining, or "net"
	view  View   // receiver's view (epoch mismatch only)
	err   error
}

func (h *hopReject) Error() string {
	if h.err != nil {
		return fmt.Sprintf("fleet: hop rejected (%s): %v", h.class, h.err)
	}
	return fmt.Sprintf("fleet: hop rejected (%s)", h.class)
}

func (p *Proxy) maxAttempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 4
}

func (p *Proxy) retryBase() time.Duration {
	if p.RetryBase > 0 {
		return p.RetryBase
	}
	return 25 * time.Millisecond
}

// selfRank resolves the rank stamped on routed hops against the current
// view, so a daemon whose rank moved in a view swap stamps the truth.
func (p *Proxy) selfRank() int {
	if p.Table != nil && p.SelfRank >= 0 {
		return p.Table.Self()
	}
	return p.SelfRank
}

// Forward sends the request to the member and relays the response.
// An epoch-mismatch rejection is repaired and retried against the same
// member; a draining rejection or a connect failure to a member the
// prober has since marked dead surfaces as 503 + Retry-After (the edge
// retries its next preference member), any other failure as 502.
func (p *Proxy) Forward(w http.ResponseWriter, r *http.Request, target Member) {
	p.forward(w, r, []Member{target}, false)
}

// ForwardChain tries each member of the preference chain in order until
// one serves the request: draining and unreachable members are skipped,
// epoch mismatches repaired and retried in place. Exhausting the chain
// on retryable conditions yields 503 + Retry-After; a hard failure 502.
func (p *Proxy) ForwardChain(w http.ResponseWriter, r *http.Request, chain []Member) {
	p.forward(w, r, chain, true)
}

func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, chain []Member, failover bool) {
	if len(chain) == 0 {
		WriteJSONError(w, http.StatusServiceUnavailable, errors.New("fleet: no live member to forward to"))
		return
	}
	// Buffer the body once so every attempt replays identical bytes. The
	// body is already bounded by the MaxBytesReader the edge installed.
	var body []byte
	if r.Body != nil && r.Body != http.NoBody {
		b, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			WriteJSONError(w, http.StatusBadRequest, fmt.Errorf("fleet: read request body: %w", err))
			return
		}
		body = b
	}

	attempts := 0
	retryable := false // saw a draining/dead condition worth a client retry
	var lastErr error
	for ci := 0; ci < len(chain) && attempts < p.maxAttempts(); ci++ {
		target := chain[ci]
		if ci > 0 {
			// The loop condition guarantees at least one attempt follows,
			// so every hop counted here carried real traffic.
			p.Metrics.ProxyFailoverHop()
		}
		epochRetries := 0
		for attempts < p.maxAttempts() {
			attempts++
			p.Metrics.ProxyAttempt()
			rej := p.attempt(w, r, target, body, failover)
			if rej == nil {
				return // response relayed (success or a terminal status)
			}
			lastErr = rej
			switch rej.class {
			case ErrClassEpochMismatch:
				p.Metrics.ProxyRetry("epoch")
				// Repair the divergence, then retry the same member: adopt
				// the receiver's newer view, or push ours to a lagging
				// receiver so the retry lands on a converged pair.
				if p.Table != nil {
					if !p.Table.AdoptIfNewer(rej.view) && rej.view.Epoch < p.Table.Epoch() {
						client := &http.Client{Transport: p.Transport, Timeout: 5 * time.Second}
						if err := PushView(client, target.URL, p.Table.View()); err != nil && p.Log != nil {
							p.Log.Warn("fleet view push to lagging member failed",
								"target", target.URL, "error", err.Error(),
								"request_id", r.Header.Get(RequestIDHeader))
						}
					}
				}
				epochRetries++
				if epochRetries > 2 {
					WriteJSONError(w, http.StatusBadGateway,
						fmt.Errorf("fleet: member %s keeps rejecting placement epoch after convergence attempts", target.URL))
					return
				}
				p.backoff(r, attempts)
				continue // same target
			case ErrClassDraining:
				p.Metrics.ProxyRetry("draining")
				retryable = true
			default:
				p.Metrics.ProxyRetry("net")
				// Transport error before the first response byte (a rejection
				// always means nothing was written): the member just died or
				// restarted and the prober has not caught up yet. That is a
				// transient placement change, not a gateway fault — the next
				// chain member (or a client retry) will land somewhere live.
				retryable = true
			}
			if p.Log != nil {
				p.Log.Warn("fleet proxy attempt failed",
					"target", target.URL, "class", rej.class,
					"request_id", r.Header.Get(RequestIDHeader),
					"error", rej.Error())
			}
			p.backoff(r, attempts)
			break // next member in the chain (or exhaustion)
		}
		if !failover {
			break
		}
	}
	if retryable {
		w.Header().Set("Retry-After", "1")
		WriteJSONError(w, http.StatusServiceUnavailable,
			fmt.Errorf("fleet: no member could serve the request (draining or failed over); retry shortly: %v", lastErr))
		return
	}
	WriteJSONError(w, http.StatusBadGateway, fmt.Errorf("fleet: forwarding failed: %v", lastErr))
}

// attempt makes one outbound try. A nil return means the response (any
// response — including terminal errors the receiver meant for the
// client) was relayed; a non-nil hopReject means nothing was written and
// the caller may retry or fail over.
func (p *Proxy) attempt(w http.ResponseWriter, r *http.Request, target Member, body []byte, failover bool) *hopReject {
	u, err := url.Parse(target.URL)
	if err != nil {
		return &hopReject{class: "net", err: fmt.Errorf("bad member URL %q: %v", target.URL, err)}
	}
	out := r.Clone(r.Context())
	if body != nil {
		out.Body = io.NopCloser(bytes.NewReader(body))
		out.ContentLength = int64(len(body))
	} else {
		out.Body = http.NoBody
		out.ContentLength = 0
	}

	var rejected *hopReject
	rp := &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(u)
			pr.Out.Host = u.Host
			if rank := p.selfRank(); rank >= 0 {
				pr.Out.Header.Set(RoutedHeader, strconv.Itoa(rank))
			} else {
				pr.Out.Header.Set(EdgeHeader, "lb")
			}
			if p.Table != nil {
				StampEpoch(pr.Out.Header, p.Table.Epoch())
			}
		},
		Transport: p.Transport,
		ModifyResponse: func(resp *http.Response) error {
			// The hop that received the request already echoed the request
			// ID; dropping the backend's copy keeps the header single-valued
			// across any number of routed hops.
			resp.Header.Del(RequestIDHeader)
			if IsEpochMismatch(resp) {
				// Parse the receiver's view now — ReverseProxy closes the
				// body once ModifyResponse errors.
				v, _ := DecodeViewError(resp.Body)
				return &hopReject{class: ErrClassEpochMismatch, view: v}
			}
			if failover && IsDrainingResponse(resp) {
				return &hopReject{class: ErrClassDraining}
			}
			return nil
		},
		// ErrorHandler records the classified rejection and writes nothing:
		// both transport errors and ModifyResponse sentinels fire strictly
		// before the first response byte reaches the client, so the outer
		// loop stays free to retry or fail over.
		ErrorHandler: func(_ http.ResponseWriter, _ *http.Request, err error) {
			var hr *hopReject
			if errors.As(err, &hr) {
				rejected = hr
				return
			}
			rejected = &hopReject{class: "net", err: err}
		},
	}
	rp.ServeHTTP(w, out)
	return rejected
}

// backoff sleeps base·2^(attempt-1) plus up to one base of jitter,
// bailing early if the client hung up.
func (p *Proxy) backoff(r *http.Request, attempt int) {
	base := p.retryBase()
	d := base << uint(attempt-1)
	if d > time.Second {
		d = time.Second
	}
	d += time.Duration(rand.Int63n(int64(base) + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.Context().Done():
	}
}

// HandleConfigPush is the shared /v2/fleet/config handler body: decode a
// view, SwapView it (idempotent re-posts are 200s), surface rejections
// as 409 with the current view attached so the pusher can converge.
func HandleConfigPush(t *Table, w http.ResponseWriter, r *http.Request) {
	var v View
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&v); err != nil {
		WriteJSONError(w, http.StatusBadRequest, fmt.Errorf("fleet: decode view: %w", err))
		return
	}
	if err := t.SwapView(v); err != nil {
		w.Header().Set(EpochHeader, strconv.FormatUint(t.Epoch(), 10))
		WriteJSON(w, http.StatusConflict, viewError{Error: err.Error(), View: t.View()})
		return
	}
	WriteJSON(w, http.StatusOK, t.View())
}

// WriteJSON renders v as the API's indented JSON with the given status.
// It is the one response encoder of the daemon and the front door.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteJSONError renders an error in the API's {"error": "..."} shape.
func WriteJSONError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}
