// Package fleet is the query plane of a graphdiam fleet: deterministic
// dataset→owner placement over a health-checked member list, the client
// side of the fleet-wide result cache, per-tenant admission control, the
// front door's handler (FrontDoor, served by cmd/graphdiamlb), and the
// request classification, placement and JSON replies it shares with the
// daemons' owner routing in internal/server.
//
// Placement is rendezvous (highest-random-weight) hashing: every node
// scores each (member URL, key) pair with the same hash function and the
// key's owner is the live member with the highest score. All nodes run
// the identical epoch-stamped placement view (boot -peers list, or a
// newer view swapped in at runtime — see membership.go), so they agree
// on ownership without any coordination, and when the owner dies the key
// deterministically fails over to the next-ranked live member — exactly
// the "first live node in score order" every other node also computes.
// Content addressing (PR 4) makes this safe: any node can adopt any
// dataset from the shared blob tier and serve bit-identical answers, so
// a stale health view misroutes a query at worst to a correct-but-cold
// node, never to a wrong answer.
package fleet

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Member is one node of the fleet.
type Member struct {
	// Rank is the member's index in the current placement view.
	Rank int `json:"rank"`
	// URL is the member's base URL (no trailing slash).
	URL string `json:"url"`
}

// MemberStatus is a Member plus its last observed health, for /readyz
// and /v2/fleet payloads.
type MemberStatus struct {
	Member
	// Live reports the last health probe's outcome (self is always live).
	Live bool `json:"live"`
	// Self marks the reporting node's own row.
	Self bool `json:"self,omitempty"`
}

// TableOptions tunes a Table. Zero values select the defaults.
type TableOptions struct {
	// Interval is the background health-probe cadence; 0 disables the
	// background prober (callers drive ProbeOnce themselves — tests, or
	// single-shot tools).
	Interval time.Duration
	// ProbeTimeout bounds one member's health probe. Default 2s.
	ProbeTimeout time.Duration
	// FlipThreshold is the hysteresis width: how many consecutive probe
	// failures it takes to mark a live member down. Default 2, so one
	// flaky probe (or a peer mid-GC-pause) does not reshuffle placement.
	// Recovery is asymmetric — a single successful probe marks a dead
	// member up — because serving from a freshly-returned member is
	// cheap, while abandoning a healthy owner is not.
	FlipThreshold int
	// Client performs health probes; nil selects http.DefaultClient.
	Client *http.Client
	// Log receives membership transitions as structured records (rank,
	// url, epoch fields); nil disables logging.
	Log *slog.Logger
	// Metrics observes probe flips, epoch adoptions, and live-member
	// counts; nil disables metric recording.
	Metrics *Metrics
}

// Table is the fleet membership view of one node: the epoch-stamped
// rank-ordered member list, each member's last observed health, and the
// placement function. The whole view swaps atomically (SwapView), so
// routing decisions never observe a half-applied membership change. All
// methods are safe for concurrent use.
type Table struct {
	// selfURL is this node's identity across view swaps ("" for a node
	// outside the fleet, like the lb). The node's rank is derived from
	// the current view, not fixed at boot.
	selfURL string
	opts    TableOptions

	cur    atomic.Pointer[tableView]
	swapMu sync.Mutex // serializes SwapView's check-then-store

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	stopped  chan struct{}
}

// NewTable builds a membership table over the boot peer list, which
// becomes placement view epoch 1. self is this node's rank in urls, or
// -1 for a front door that is not itself a member (cmd/graphdiamlb).
// Until the first probe, every member except self is considered down —
// run ProbeOnce (or Start the background prober) before routing.
func NewTable(urls []string, self int, opts TableOptions) (*Table, error) {
	norm, err := NormalizePeers(urls)
	if err != nil {
		return nil, err
	}
	if self < -1 || self >= len(norm) {
		return nil, fmt.Errorf("fleet: self rank %d out of range for %d members", self, len(norm))
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	if opts.FlipThreshold <= 0 {
		opts.FlipThreshold = 2
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	t := &Table{
		opts:    opts,
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	if self >= 0 {
		t.selfURL = norm[self]
	}
	v, err := t.buildView(View{Epoch: 1, Members: norm}, &tableView{})
	if err != nil {
		return nil, err
	}
	t.cur.Store(v)
	t.opts.Metrics.SetEpoch(v.epoch)
	t.noteHealth(v)
	return t, nil
}

// noteHealth refreshes the live-member gauge from one view's health
// column. Called after any flip or view swap; cheap (one pass, atomic
// loads), so it rides the transition paths rather than scrape time.
func (t *Table) noteHealth(v *tableView) {
	if t.opts.Metrics == nil {
		return
	}
	n := 0
	for i := range v.health {
		if v.health[i].live.Load() {
			n++
		}
	}
	t.opts.Metrics.SetLiveMembers(n)
}

// NormalizePeers canonicalizes a -peers list: whitespace trimmed, one
// trailing slash stripped, every entry a non-empty absolute http(s) URL,
// no duplicates. Every fleet node must normalize identically or placement
// diverges, which is why this lives here and not in flag parsing.
func NormalizePeers(urls []string) ([]string, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("fleet: member list is empty")
	}
	out := make([]string, len(urls))
	seen := make(map[string]int, len(urls))
	for i, raw := range urls {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			return nil, fmt.Errorf("fleet: empty member URL at rank %d", i)
		}
		parsed, err := url.Parse(u)
		if err != nil || (parsed.Scheme != "http" && parsed.Scheme != "https") || parsed.Host == "" {
			return nil, fmt.Errorf("fleet: member %d URL %q is not an absolute http(s) URL", i, raw)
		}
		if prev, dup := seen[u]; dup {
			return nil, fmt.Errorf("fleet: member URL %q appears at both rank %d and rank %d", u, prev, i)
		}
		seen[u] = i
		out[i] = u
	}
	return out, nil
}

// ValidateDaemonFlags checks the fleet-facing boot flags of one daemon
// for the inconsistencies that previously surfaced only at first query:
// a -worker-id outside the -peers range, and a -blob-url naming the
// daemon's own peer entry (a node cannot adopt snapshots from itself —
// the first remote fetch would recurse into the very handler waiting on
// it). Returns the normalized peer list.
func ValidateDaemonFlags(peers []string, workerID int, blobURL string) ([]string, error) {
	norm, err := NormalizePeers(peers)
	if err != nil {
		return nil, err
	}
	if workerID < 0 || workerID >= len(norm) {
		return nil, fmt.Errorf("fleet: -worker-id %d out of range for %d peers (want 0..%d)",
			workerID, len(norm), len(norm)-1)
	}
	if blobURL != "" {
		b := strings.TrimRight(strings.TrimSpace(blobURL), "/")
		if b == norm[workerID] {
			return nil, fmt.Errorf("fleet: -blob-url %s is this daemon's own -peers entry (rank %d): a daemon cannot adopt snapshots from itself — point -blob-url at a peer or omit it on the hub",
				blobURL, workerID)
		}
	}
	return norm, nil
}

// Self returns this node's rank in the current view, or -1 outside the
// fleet. The rank can change across view swaps (a swap that would drop
// the node entirely is rejected — see buildView).
func (t *Table) Self() int { return t.cur.Load().self }

// Members returns the rank-ordered member list of the current view.
func (t *Table) Members() []Member {
	v := t.cur.Load()
	return append([]Member(nil), v.members...)
}

// Live reports the last observed health of the member with the given
// rank in the current view. Self is always live.
func (t *Table) Live(rank int) bool {
	v := t.cur.Load()
	return rank >= 0 && rank < len(v.health) && v.health[rank].live.Load()
}

// SetLive overrides one member's health (tests, and direct operator
// action). A direct override also resets the hysteresis streak.
func (t *Table) SetLive(rank int, live bool) {
	v := t.cur.Load()
	if rank < 0 || rank >= len(v.health) || (rank == v.self && !live) {
		return // self never goes dead in its own view
	}
	h := v.health[rank]
	h.contrary.Store(0)
	was := h.live.Swap(live)
	if was != live {
		t.opts.Metrics.ProbeFlip(live)
		t.noteHealth(v)
		if t.opts.Log != nil {
			t.opts.Log.Info("fleet member health overridden",
				"rank", rank, "url", v.members[rank].URL, "live", live, "epoch", v.epoch)
		}
	}
}

// reportProbe feeds one probe observation into a member's hysteresis
// state. Coming up takes a single success; going down takes
// FlipThreshold consecutive failures, so a flapping peer (alternating
// up/down) never leaves the live set and placement stays stable.
func (t *Table) reportProbe(v *tableView, rank int, up bool) {
	if rank < 0 || rank >= len(v.health) || rank == v.self {
		return
	}
	h := v.health[rank]
	was := h.live.Load()
	if up == was {
		h.contrary.Store(0)
		return
	}
	if up {
		// Single-success recovery: a dead member answering readyz is
		// immediately eligible again.
		h.contrary.Store(0)
		if !h.live.Swap(true) {
			t.opts.Metrics.ProbeFlip(true)
			t.noteHealth(v)
			if t.opts.Log != nil {
				t.opts.Log.Info("fleet member up",
					"rank", rank, "url", v.members[rank].URL, "epoch", v.epoch)
			}
		}
		return
	}
	if h.contrary.Add(1) < int32(t.opts.FlipThreshold) {
		return // within hysteresis: keep serving through a blip
	}
	h.contrary.Store(0)
	if h.live.Swap(false) {
		t.opts.Metrics.ProbeFlip(false)
		t.noteHealth(v)
		if t.opts.Log != nil {
			t.opts.Log.Warn("fleet member down",
				"rank", rank, "url", v.members[rank].URL,
				"consecutive_failures", t.opts.FlipThreshold, "epoch", v.epoch)
		}
	}
}

// Snapshot reports every member of the current view with its last
// observed health.
func (t *Table) Snapshot() []MemberStatus {
	v := t.cur.Load()
	out := make([]MemberStatus, len(v.members))
	for i, m := range v.members {
		out[i] = MemberStatus{Member: m, Live: v.health[i].live.Load(), Self: i == v.self}
	}
	return out
}

// LiveCount counts members currently observed live.
func (t *Table) LiveCount() int {
	v := t.cur.Load()
	n := 0
	for i := range v.health {
		if v.health[i].live.Load() {
			n++
		}
	}
	return n
}

// score is the rendezvous weight of (member, key): FNV-1a over the
// member's canonical URL, a separator that cannot appear in a URL, and
// the key, passed through a 64-bit avalanche finalizer. The finalizer
// matters: raw FNV-1a keeps enough ordering correlation between
// near-identical member URLs that one member can win every key — the
// mix makes per-member scores behave independently. Every node computes
// the same number, so ownership needs no coordination.
func score(memberURL, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(memberURL))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a cheap bijection whose output bits
// each depend on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Preference returns every member of the current view in descending
// rendezvous-score order for key — the deterministic failover chain.
// Ties (only possible with colliding hashes) break toward the lower
// rank, keeping the order total.
func (t *Table) Preference(key string) []Member {
	v := t.cur.Load()
	type scored struct {
		m Member
		s uint64
	}
	sc := make([]scored, len(v.members))
	for i, m := range v.members {
		sc[i] = scored{m: m, s: score(m.URL, key)}
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].s != sc[j].s {
			return sc[i].s > sc[j].s
		}
		return sc[i].m.Rank < sc[j].m.Rank
	})
	out := make([]Member, len(sc))
	for i, s := range sc {
		out[i] = s.m
	}
	return out
}

// Owner returns the key's current owner: the first live member in
// preference order. ok is false when no member is live (only possible on
// a node outside the fleet — a member always counts itself live).
func (t *Table) Owner(key string) (Member, bool) {
	v := t.cur.Load()
	for _, m := range t.Preference(key) {
		if m.Rank < len(v.health) && v.health[m.Rank].live.Load() {
			return m, true
		}
	}
	return Member{}, false
}

// Replicas returns the first k live members of the key's preference
// chain — the owner plus its read replicas. k<=1 degrades to the owner
// alone; fewer than k live members yields fewer replicas.
func (t *Table) Replicas(key string, k int) []Member {
	if k < 1 {
		k = 1
	}
	v := t.cur.Load()
	out := make([]Member, 0, k)
	for _, m := range t.Preference(key) {
		if m.Rank < len(v.health) && v.health[m.Rank].live.Load() {
			out = append(out, m)
			if len(out) == k {
				break
			}
		}
	}
	return out
}

// FirstLive returns up to k live members in rank order — the front
// door's targets for requests Place cannot place.
func (t *Table) FirstLive(k int) []Member {
	v := t.cur.Load()
	var out []Member
	for i, m := range v.members {
		if len(out) == k {
			break
		}
		if v.health[i].live.Load() {
			out = append(out, m)
		}
	}
	return out
}

// InfoResponse is the GET /v2/fleet payload: membership, and — with
// ?dataset=<name> — where that dataset's queries land.
type InfoResponse struct {
	// Self is the reporting node's rank, -1 on the front door.
	Self    int            `json:"self"`
	Epoch   uint64         `json:"epoch"`
	Members []MemberStatus `json:"members"`
	Dataset string         `json:"dataset,omitempty"`
	// Owner is the dataset's current owner under this node's health view.
	Owner *Member `json:"owner,omitempty"`
	// Preference is the dataset's full failover chain, live or not.
	Preference []Member `json:"preference,omitempty"`
}

// Info reports this node's placement view, and dataset's placement when
// dataset is not empty.
func (t *Table) Info(dataset string) InfoResponse {
	resp := InfoResponse{Self: t.Self(), Epoch: t.Epoch(), Members: t.Snapshot()}
	if dataset != "" {
		resp.Dataset = dataset
		resp.Preference = t.Preference(dataset)
		if owner, ok := t.Owner(dataset); ok {
			resp.Owner = &owner
		}
	}
	return resp
}

// ProbeOnce health-checks every member (except self) once, in parallel,
// against GET /readyz, feeding results through the hysteresis filter. A
// probe is a success iff the member answers 2xx within the probe
// timeout. Probes double as anti-entropy: a readyz body advertising a
// newer placement view than ours is adopted after the sweep, so a node
// that missed a config push converges within one probe interval.
func (t *Table) ProbeOnce(ctx context.Context) {
	v := t.cur.Load()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		newest View
	)
	for i := range v.members {
		if i == v.self {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			up, adv := t.probe(ctx, v.members[i].URL)
			t.reportProbe(v, i, up)
			if adv.Epoch > 0 {
				mu.Lock()
				if adv.Epoch > newest.Epoch {
					newest = adv
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if newest.Epoch > t.Epoch() {
		t.AdoptIfNewer(newest)
	}
}

// probe health-checks one member and parses any placement view its
// readyz body advertises (readyz carries the view even on 503, so a
// draining or not-ready peer still gossips membership).
func (t *Table) probe(ctx context.Context, baseURL string) (bool, View) {
	ctx, cancel := context.WithTimeout(ctx, t.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/readyz", nil)
	if err != nil {
		return false, View{}
	}
	resp, err := t.opts.Client.Do(req)
	if err != nil {
		return false, View{}
	}
	defer resp.Body.Close()
	var adv struct {
		View *View `json:"view"`
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	view := View{}
	if err == nil && json.Unmarshal(body, &adv) == nil && adv.View != nil {
		view = *adv.View
	}
	return resp.StatusCode >= 200 && resp.StatusCode < 300, view
}

// Start launches the background prober at the configured interval (no-op
// when Interval is 0). The first sweep runs immediately so a freshly
// booted node converges before its first routed request.
func (t *Table) Start() {
	if t.opts.Interval <= 0 || !t.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(t.stopped)
		ctx := context.Background()
		t.ProbeOnce(ctx)
		tick := time.NewTicker(t.opts.Interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				t.ProbeOnce(ctx)
			case <-t.stop:
				return
			}
		}
	}()
}

// Close stops the background prober (if running) and waits for it to
// exit. Safe regardless of whether Start was called.
func (t *Table) Close() {
	t.stopOnce.Do(func() { close(t.stop) })
	if t.started.Load() {
		<-t.stopped
	}
}

// NewRequestID mints an edge request ID: 16 hex characters of
// crypto/rand entropy, compact enough for log lines and unique enough to
// trace one query across every routed hop.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not a reason to drop a request; a
		// constant marker still distinguishes "no id" from "id lost".
		return "00000000ffffffff"
	}
	return hex.EncodeToString(b[:])
}
