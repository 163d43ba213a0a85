package usaas

import (
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Per-tenant token-bucket admission control. The inflight limiter (PR 2)
// protects the server as a whole; this layer protects tenants from each
// other: one firehose tenant exhausts its own bucket and gets clean 429s
// with a deterministic Retry-After, while everyone else's ingest proceeds.
// Only ingest POSTs are admission-controlled — queries are cheap (cached)
// and read-only, and it is ingest volume that buys fsyncs and memory.

// TenantHeader names the tenant a request ingests on behalf of. Absent
// means the anonymous tenant, which shares one bucket — a fleet that wants
// per-client fairness must label its traffic.
const TenantHeader = "X-Usaas-Tenant"

// AdmissionOptions configures per-tenant ingest rate limiting.
type AdmissionOptions struct {
	// Rate is the sustained budget in ingest batches/sec per tenant
	// (<= 0 disables admission control).
	Rate float64
	// Burst is the bucket capacity in batches (default: Rate, min 1) —
	// how far a tenant may briefly exceed the sustained rate.
	Burst float64
	// now replaces the clock (tests).
	now func() time.Time
}

// TenantAdmission reports one tenant's admission counters.
type TenantAdmission struct {
	Tenant   string `json:"tenant"`
	Admitted uint64 `json:"admitted"`
	Dropped  uint64 `json:"dropped"`
}

// bucket is one tenant's token bucket: tokens refill at rate/sec up to
// burst; each admitted batch spends one token.
type bucket struct {
	tokens   float64
	last     time.Time
	admitted uint64
	dropped  uint64
}

type admission struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	tenants map[string]*bucket
}

func newAdmission(opts AdmissionOptions) *admission {
	burst := opts.Burst
	if burst <= 0 {
		burst = opts.Rate
	}
	if burst < 1 {
		burst = 1
	}
	now := opts.now
	if now == nil {
		now = time.Now
	}
	return &admission{
		rate:    opts.Rate,
		burst:   burst,
		now:     now,
		tenants: map[string]*bucket{},
	}
}

// admit spends one token from the tenant's bucket. When the bucket is dry
// it reports the wait, in whole seconds, until a full token has refilled —
// the Retry-After value. The rounding is deterministic (ceil of
// deficit/rate), so the same deficit always produces the same hint and
// tests can assert exact headers.
func (a *admission) admit(tenant string) (ok bool, retryAfter int) {
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.tenants[tenant]
	if b == nil {
		b = &bucket{tokens: a.burst, last: now}
		a.tenants[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(a.burst, b.tokens+dt*a.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		b.admitted++
		return true, 0
	}
	b.dropped++
	secs := int(math.Ceil((1 - b.tokens) / a.rate))
	if secs < 1 {
		secs = 1
	}
	return false, secs
}

// snapshot returns per-tenant counters sorted by tenant for stable JSON.
func (a *admission) snapshot() []TenantAdmission {
	a.mu.Lock()
	out := make([]TenantAdmission, 0, len(a.tenants))
	for id, b := range a.tenants {
		out = append(out, TenantAdmission{Tenant: id, Admitted: b.admitted, Dropped: b.dropped})
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// isIngest reports whether the request buys WAL appends — the requests
// admission control meters.
func isIngest(r *http.Request) bool {
	return r.Method == http.MethodPost && (r.URL.Path == "/v1/sessions" || r.URL.Path == "/v1/posts")
}

// admissionLimiter rejects over-budget ingest with 429 + Retry-After; the
// PR-2 client treats that exactly like the inflight limiter's shedding and
// backs off for the hinted duration.
func admissionLimiter(next http.Handler, a *admission) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !isIngest(r) {
			next.ServeHTTP(w, r)
			return
		}
		tenant := r.Header.Get(TenantHeader)
		if ok, retryAfter := a.admit(tenant); !ok {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			if tenant == "" {
				tenant = "(anonymous)"
			}
			WriteError(w, http.StatusTooManyRequests, "tenant %s over ingest budget (%g batches/sec)", tenant, a.rate)
			return
		}
		next.ServeHTTP(w, r)
	})
}
