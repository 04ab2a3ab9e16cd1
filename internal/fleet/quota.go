package fleet

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"graphdiam/internal/obs"
)

// Quotas is per-tenant admission control for compute-cost requests: one
// token bucket per X-Tenant value, refilled at Rate tokens/second up to
// Burst. A request that finds the bucket empty is rejected with the time
// until one token refills — the server layers turn that into
// 429 + Retry-After. Tenancy is cooperative (the header is not
// authenticated); the quota protects the fleet's BSP capacity from a
// noisy tenant, it is not a security boundary.
type Quotas struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity

	mu      sync.Mutex
	buckets map[string]*bucket
	now     func() time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxTenants bounds the bucket map; beyond it, full (= inactive long
// enough to have refilled completely) buckets are pruned. A tenant whose
// bucket was pruned starts fresh at Burst, which is exactly the state a
// full bucket encodes — pruning is invisible.
const maxTenants = 4096

// NewQuotas builds per-tenant admission control. rate must be positive;
// burst below 1 is raised to max(1, rate) so a conforming tenant can
// always make progress.
func NewQuotas(rate, burst float64) *Quotas {
	if burst < 1 {
		burst = math.Max(1, rate)
	}
	return &Quotas{
		rate:    rate,
		burst:   burst,
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
}

// Allow charges one token to the tenant's bucket. When the bucket is
// empty it reports false and how long until one token refills.
func (q *Quotas) Allow(tenant string) (ok bool, retryAfter time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	b, found := q.buckets[tenant]
	if !found {
		if len(q.buckets) >= maxTenants {
			q.pruneLocked(now)
		}
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	} else {
		b.tokens = math.Min(q.burst, b.tokens+q.rate*now.Sub(b.last).Seconds())
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / q.rate
	return false, time.Duration(need * float64(time.Second))
}

// pruneLocked drops buckets that have fully refilled — their tenants are
// indistinguishable from never-seen ones. Caller holds q.mu.
func (q *Quotas) pruneLocked(now time.Time) {
	for tenant, b := range q.buckets {
		if b.tokens+q.rate*now.Sub(b.last).Seconds() >= q.burst {
			delete(q.buckets, tenant)
		}
	}
}

// Admit charges one token to the request's tenant (X-Tenant, or
// "anonymous") when the request costs a job. A tenant over its rate gets
// 429 with a Retry-After of at least one second, counted in m. Returns
// false after writing the rejection. A nil *Quotas admits everything.
func (q *Quotas) Admit(w http.ResponseWriter, r *http.Request, m *obs.HTTPMetrics) bool {
	if q == nil || !CostsJob(r.Method, r.URL.Path) {
		return true
	}
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = "anonymous"
	}
	ok, retry := q.Allow(tenant)
	if ok {
		return true
	}
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	m.Throttled(tenant)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteJSONError(w, http.StatusTooManyRequests,
		fmt.Errorf("tenant %q is over its admission rate; retry after %ds", tenant, secs))
	return false
}
