package usaas

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"usersignals/internal/simrand"
	"usersignals/internal/social"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// BatchIDHeader carries the client-chosen idempotency key on ingest
// requests. The server deduplicates batches by this key, so a retried
// ingest whose first acknowledgement was lost is applied exactly once.
const BatchIDHeader = "X-Usaas-Batch-Id"

// ErrCircuitOpen is returned (wrapped) when the client's circuit breaker is
// open: recent consecutive failures exceeded the threshold and the cooldown
// has not elapsed, so requests fail fast instead of hammering a sick server.
var ErrCircuitOpen = errors.New("usaas client: circuit breaker open")

// RetryPolicy configures the client's retry loop. Retries apply to
// transport errors, truncated/undecodable response bodies, and 429/5xx
// statuses; other 4xx statuses and context cancellation fail immediately.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 4; 1 disables retries).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff: attempt n waits
	// BaseBackoff * 2^(n-1), ±50% deterministic jitter (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps each wait, including server-requested Retry-After
	// delays (default 2s).
	MaxBackoff time.Duration
	// JitterSeed keys the deterministic jitter stream (default 1).
	JitterSeed uint64
}

// BreakerPolicy configures the client's circuit breaker, which counts
// consecutive failed calls (after retries) against FailureThreshold.
type BreakerPolicy struct {
	// FailureThreshold is the number of consecutive failures that opens
	// the breaker (default 8; negative disables the breaker).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before allowing a probe
	// (default 5s). A failed probe reopens it immediately.
	Cooldown time.Duration
}

// ClientOptions configures NewClientWithOptions. The zero value gives the
// same defaults as NewClient.
type ClientOptions struct {
	// HTTPClient defaults to http.DefaultClient. With Endpoints set, the
	// client is copied with redirect-following disabled so leader
	// redirects flow through the failover logic (which re-sends with all
	// headers intact; Go's auto-follow drops Authorization across hosts).
	HTTPClient *http.Client
	// Endpoints lists every replica of the service. When set, writes go to
	// the endpoint currently believed to be the leader (learned from
	// 307/308 leader-redirects and /v1/replica/status probes) and reads
	// rotate across the whole set. baseURL may be empty; the first
	// endpoint seeds the leader belief.
	Endpoints []string
	// Token, when set, authenticates every request ("Bearer <token>").
	Token string
	// Tenant, when set, labels every request with the X-Usaas-Tenant
	// header so server-side admission control meters this client against
	// its own token bucket.
	Tenant string
	// Retry tunes the retry loop; zero fields take defaults.
	Retry RetryPolicy
	// Breaker tunes the circuit breaker; zero fields take defaults.
	Breaker BreakerPolicy
	// BatchPrefix namespaces auto-generated ingest batch IDs. Defaults to
	// a random per-client value; set it explicitly when batch IDs must be
	// stable across client restarts (resuming an interrupted upload).
	BatchPrefix string
	// Sleep replaces the backoff sleeper (tests). nil uses a
	// context-aware timer.
	Sleep func(time.Duration)
	// Now replaces the clock used by the circuit breaker (tests).
	Now func() time.Time
}

// Client is a typed HTTP client for the USaaS service. All calls retry
// transient failures with exponential backoff and honor Retry-After; ingest
// calls carry idempotency keys so retries never double-count (at-least-once
// delivery + server-side dedup = effectively-once ingest).
type Client struct {
	base    string
	http    *http.Client
	token   string
	tenant  string
	retry   RetryPolicy
	breaker BreakerPolicy
	sleep   func(time.Duration)
	now     func() time.Time

	// Shared across WithToken copies.
	jitter   *lockedRNG
	state    *breakerState
	batchSeq *atomic.Uint64
	batchPre string
	cluster  *cluster // nil without Endpoints (failover.go)
}

type lockedRNG struct {
	mu  sync.Mutex
	rng *simrand.RNG
}

func (l *lockedRNG) float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64()
}

type breakerState struct {
	mu        sync.Mutex
	fails     int       // consecutive failures while closed
	openUntil time.Time // zero when closed
	halfOpen  bool      // cooldown elapsed, one probe in flight
}

// NewClient returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8080") with default retry and breaker policies.
// httpClient may be nil for the default.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	return NewClientWithOptions(baseURL, ClientOptions{HTTPClient: httpClient})
}

// NewClientWithOptions returns a client with explicit fault-tolerance
// policies.
func NewClientWithOptions(baseURL string, opts ClientOptions) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	cl := newCluster(opts.Endpoints)
	if cl != nil {
		if baseURL == "" {
			baseURL = cl.leaderURL().String()
		}
		// Handle redirects ourselves: re-pointing the leader and re-sending
		// keeps the Authorization header, which Go's auto-follow strips on
		// cross-host redirects.
		hcCopy := *hc
		hcCopy.CheckRedirect = func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		}
		hc = &hcCopy
	}
	r := opts.Retry
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 4
	}
	if r.BaseBackoff <= 0 {
		r.BaseBackoff = 50 * time.Millisecond
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 2 * time.Second
	}
	if r.JitterSeed == 0 {
		r.JitterSeed = 1
	}
	b := opts.Breaker
	if b.FailureThreshold == 0 {
		b.FailureThreshold = 8
	}
	if b.Cooldown <= 0 {
		b.Cooldown = 5 * time.Second
	}
	pre := opts.BatchPrefix
	if pre == "" {
		var buf [8]byte
		if _, err := rand.Read(buf[:]); err == nil {
			pre = hex.EncodeToString(buf[:])
		} else {
			pre = "batch"
		}
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	return &Client{
		base:     baseURL,
		http:     hc,
		token:    opts.Token,
		tenant:   opts.Tenant,
		retry:    r,
		breaker:  b,
		sleep:    opts.Sleep,
		now:      now,
		jitter:   &lockedRNG{rng: simrand.Root(r.JitterSeed).Derive("usaas/client-jitter").RNG()},
		state:    &breakerState{},
		batchSeq: &atomic.Uint64{},
		batchPre: pre,
		cluster:  cl,
	}
}

// WithToken returns a copy of the client that authenticates with the given
// bearer token. The copy shares the original's breaker state and batch
// sequence.
func (c *Client) WithToken(token string) *Client {
	cp := *c
	cp.token = token
	return &cp
}

// nextBatchID mints a fresh idempotency key: stable for the retries of one
// logical ingest call, distinct across calls.
func (c *Client) nextBatchID() string {
	return c.batchPre + "-" + strconv.FormatUint(c.batchSeq.Add(1), 10)
}

// newPost builds a JSON POST of in.
func (c *Client) newPost(ctx context.Context, path string, in any) (*http.Request, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("usaas client: encoding %s request: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("usaas client: building %s request: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// post sends in as a JSON POST under an idempotency key.
func (c *Client) post(ctx context.Context, path string, batchID string, in, out any) error {
	req, err := c.newPost(ctx, path, in)
	if err != nil {
		return err
	}
	if batchID != "" {
		req.Header.Set(BatchIDHeader, batchID)
	}
	return c.do(req, out, nil)
}

// newGet builds a GET of path with query.
func (c *Client) newGet(ctx context.Context, path string, query url.Values) (*http.Request, error) {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("usaas client: building %s request: %w", path, err)
	}
	return req, nil
}

func (c *Client) get(ctx context.Context, path string, query url.Values, out any) error {
	req, err := c.newGet(ctx, path, query)
	if err != nil {
		return err
	}
	return c.do(req, out, nil)
}

// Validation is what a tagged call learned about the state it read: the
// validator half of a conditional request.
type Validation struct {
	// Tag is the response's ETag ("" when the server sent none).
	Tag string
	// NotModified reports a 304: the tag the caller holds is current, no
	// body was sent and the output value was left untouched.
	NotModified bool
	// Bytes counts the response body bytes transferred.
	Bytes int64
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// statusError is a non-200 response; it keeps the status and any
// Retry-After hint so the retry loop can classify and pace itself.
type statusError struct {
	method, path string
	status       int
	msg          string
	retryAfter   time.Duration
	location     string // Location header on a 3xx (leader redirect)
}

// asStatusError unwraps err to a *statusError if one is in the chain.
func asStatusError(err error) (*statusError, bool) {
	var se *statusError
	ok := errors.As(err, &se)
	return se, ok
}

func (e *statusError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("usaas client: %s %s: %s (status %d)", e.method, e.path, e.msg, e.status)
	}
	return fmt.Sprintf("usaas client: %s %s: status %d", e.method, e.path, e.status)
}

// transientError marks a failure after the response started (truncated or
// undecodable body): the request may have been applied, so it is safe to
// retry only because ingest is idempotent and queries are read-only.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// retryable reports whether the retry loop should try again.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		switch se.status {
		case http.StatusTooManyRequests, http.StatusInternalServerError,
			http.StatusBadGateway, http.StatusServiceUnavailable,
			http.StatusGatewayTimeout:
			return true
		case http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
			// A leader redirect: retried immediately against the leader.
			return true
		}
		return false
	}
	var te *transientError
	if errors.As(err, &te) {
		return true
	}
	var ue *url.Error
	return errors.As(err, &ue) // transport-level failure
}

// countsAgainstBreaker reports whether a failure indicates server sickness
// (as opposed to a caller mistake like a 400 or a canceled context). A
// leader redirect is routing information, not sickness.
func countsAgainstBreaker(err error) bool {
	if se, ok := asStatusError(err); ok &&
		(se.status == http.StatusTemporaryRedirect || se.status == http.StatusPermanentRedirect) {
		return false
	}
	return retryable(err)
}

// do runs one logical call: breaker check, attempt, classify, back off,
// retry. Requests with non-replayable bodies (req.GetBody == nil on a
// body-carrying request) are never retried. With v set the call reads the
// response's validator, and a 304 to a request that carried If-None-Match
// is a success — not retried, not counted against the breaker.
func (c *Client) do(req *http.Request, out any, v *Validation) error {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if c.tenant != "" {
		req.Header.Set(TenantHeader, c.tenant)
	}
	ctx := req.Context()
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := c.breakerAllow(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%w (last error: %v)", err, lastErr)
			}
			return err
		}
		c.retarget(req)
		err := c.doOnce(req, out, v)
		c.breakerRecord(err)
		if err == nil {
			return nil
		}
		if !retryable(err) || attempt >= c.retry.MaxAttempts {
			return err
		}
		if req.Body != nil && req.GetBody == nil {
			return err // streaming body: cannot replay
		}
		if !c.noteRedirect(err) {
			// A real failure: back off, and if this was a write on a
			// replicated cluster, re-discover the leader before retrying —
			// the node we wrote to may be dead or demoted.
			if werr := c.wait(ctx, c.backoff(attempt, err)); werr != nil {
				return fmt.Errorf("usaas client: %s %s: %w (last error: %v)", req.Method, req.URL.Path, werr, err)
			}
			if c.cluster != nil && req.Method != http.MethodGet {
				c.probeLeader(ctx)
			}
		}
		if req.GetBody != nil {
			body, berr := req.GetBody()
			if berr != nil {
				return fmt.Errorf("usaas client: replaying %s body: %w", req.URL.Path, berr)
			}
			req.Body = body
		}
		lastErr = err
	}
}

// doOnce performs a single HTTP attempt.
func (c *Client) doOnce(req *http.Request, out any, v *Validation) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("usaas client: %s %s: %w", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	// An answer to a request that named the partials protocol crosses the
	// cluster's trust boundary: it must name the same protocol, and its body
	// is read strictly and capped. Breaking any of these rules fails the call
	// without a retry — asking again gets the same answer.
	strict := req.Header.Get(PartialsProtocolHeader) != ""
	if strict && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified) {
		if got := resp.Header.Get(PartialsProtocolHeader); got != partialsProtocol {
			return fmt.Errorf("usaas client: %s %s: answer speaks partials protocol %q; this client speaks %d", req.Method, req.URL.Path, got, PartialsProtocol)
		}
	}
	body := io.Reader(resp.Body)
	if v != nil {
		counted := &countingReader{r: resp.Body}
		defer func() { v.Bytes = counted.n }()
		*v = Validation{Tag: resp.Header.Get("ETag")}
		body = counted
		if resp.StatusCode == http.StatusNotModified && req.Header.Get("If-None-Match") != "" {
			// Drain so the connection can be reused.
			_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<16))
			v.NotModified = true
			return nil
		}
	}
	if resp.StatusCode != http.StatusOK {
		se := &statusError{
			method:     req.Method,
			path:       req.URL.Path,
			status:     resp.StatusCode,
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), c.now),
			location:   resp.Header.Get("Location"),
		}
		var apiErr apiError
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			se.msg = apiErr.Error
		}
		return se
	}
	if out == nil {
		// Drain so the connection can be reused.
		_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<20))
		return nil
	}
	dec := json.NewDecoder(body)
	if strict {
		dec = json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(body), MaxPartialsBytes))
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(out); err != nil {
		if cerr := req.Context().Err(); cerr != nil {
			return fmt.Errorf("usaas client: decoding %s response: %w", req.URL.Path, cerr)
		}
		err = fmt.Errorf("usaas client: decoding %s response: %w", req.URL.Path, err)
		if strict && violatesPartials(err) {
			return err
		}
		return &transientError{err}
	}
	return nil
}

// violatesPartials reports a decode failure that breaks the partials
// protocol rather than the transfer: an answer over the cap, or a field the
// protocol does not have (encoding/json reports that one only as text).
// Retrying would read the same answer again.
func violatesPartials(err error) bool {
	var tooLarge *http.MaxBytesError
	return errors.As(err, &tooLarge) || strings.Contains(err.Error(), "json: unknown field ")
}

// parseRetryAfter handles both delta-seconds and HTTP-date forms.
func parseRetryAfter(v string, now func() time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now()); d > 0 {
			return d
		}
	}
	return 0
}

// backoff computes the wait before the next attempt: the server's
// Retry-After when present, otherwise exponential backoff with ±50%
// deterministic jitter; both capped at MaxBackoff.
func (c *Client) backoff(attempt int, err error) time.Duration {
	var se *statusError
	if errors.As(err, &se) && se.retryAfter > 0 {
		if se.retryAfter > c.retry.MaxBackoff {
			return c.retry.MaxBackoff
		}
		return se.retryAfter
	}
	d := c.retry.BaseBackoff << (attempt - 1)
	if d > c.retry.MaxBackoff || d <= 0 {
		d = c.retry.MaxBackoff
	}
	jittered := time.Duration(float64(d) * (0.5 + c.jitter.float64()))
	if jittered > c.retry.MaxBackoff {
		return c.retry.MaxBackoff
	}
	return jittered
}

// wait sleeps for d or until the context is done.
func (c *Client) wait(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		c.sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// breakerAllow fails fast while the breaker is open; after the cooldown it
// admits a single half-open probe.
func (c *Client) breakerAllow() error {
	if c.breaker.FailureThreshold < 0 {
		return nil
	}
	s := c.state
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.openUntil.IsZero() {
		return nil
	}
	if c.now().Before(s.openUntil) {
		return fmt.Errorf("%w until %s", ErrCircuitOpen, s.openUntil.Format(time.RFC3339))
	}
	s.halfOpen = true
	return nil
}

// breakerRecord folds one attempt's outcome into the breaker.
func (c *Client) breakerRecord(err error) {
	if c.breaker.FailureThreshold < 0 {
		return
	}
	s := c.state
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.fails = 0
		s.openUntil = time.Time{}
		s.halfOpen = false
		return
	}
	if !countsAgainstBreaker(err) {
		return
	}
	if s.halfOpen {
		// Failed probe: reopen for another cooldown.
		s.openUntil = c.now().Add(c.breaker.Cooldown)
		s.halfOpen = false
		return
	}
	s.fails++
	if s.fails >= c.breaker.FailureThreshold {
		s.openUntil = c.now().Add(c.breaker.Cooldown)
		s.fails = 0
	}
}

// IngestSessionsNDJSON streams session records from r as JSON Lines,
// without buffering the dataset in the client. The upload carries an
// idempotency key, but a plain io.Reader cannot be replayed, so transient
// failures are returned rather than retried — callers that need retries
// should pass a *bytes.Reader/*strings.Reader (replayable) or re-call with
// the same batch ID via IngestSessionsNDJSONBatch.
func (c *Client) IngestSessionsNDJSON(ctx context.Context, r io.Reader) (IngestResponse, error) {
	return c.IngestSessionsNDJSONBatch(ctx, c.nextBatchID(), r)
}

// IngestSessionsNDJSONBatch is IngestSessionsNDJSON under an explicit batch
// ID, for resuming an upload whose acknowledgement was lost.
func (c *Client) IngestSessionsNDJSONBatch(ctx context.Context, batchID string, r io.Reader) (IngestResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sessions", r)
	if err != nil {
		return IngestResponse{}, fmt.Errorf("usaas client: building NDJSON request: %w", err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if batchID != "" {
		req.Header.Set(BatchIDHeader, batchID)
	}
	var out IngestResponse
	err = c.do(req, &out, nil)
	return out, err
}

// IngestSessions uploads session records under a fresh idempotency key:
// retried deliveries are applied at most once by the server.
func (c *Client) IngestSessions(ctx context.Context, recs []telemetry.SessionRecord) (IngestResponse, error) {
	return c.IngestSessionsBatch(ctx, c.nextBatchID(), recs)
}

// ndjsonBufs pools encode buffers for session uploads. A buffer stays out
// of the pool until do() fully returns: GetBody may replay the bytes on any
// retry, so the buffer cannot be reused before the last attempt finishes.
var ndjsonBufs = sync.Pool{New: func() any { b := make([]byte, 0, 64*1024); return &b }}

// IngestSessionsBatch is IngestSessions under an explicit batch ID. The
// upload is NDJSON encoded with the pooled telemetry codec — the hot ingest
// path allocates no per-record encoder state.
func (c *Client) IngestSessionsBatch(ctx context.Context, batchID string, recs []telemetry.SessionRecord) (IngestResponse, error) {
	bufp := ndjsonBufs.Get().(*[]byte)
	defer func() { ndjsonBufs.Put(bufp) }()
	body, err := telemetry.AppendNDJSON((*bufp)[:0], recs)
	if err != nil {
		return IngestResponse{}, fmt.Errorf("usaas client: encoding /v1/sessions request: %w", err)
	}
	*bufp = body
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		return IngestResponse{}, fmt.Errorf("usaas client: building /v1/sessions request: %w", err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if batchID != "" {
		req.Header.Set(BatchIDHeader, batchID)
	}
	var out IngestResponse
	err = c.do(req, &out, nil)
	return out, err
}

// IngestPosts uploads social posts under a fresh idempotency key.
func (c *Client) IngestPosts(ctx context.Context, posts []social.Post) (IngestResponse, error) {
	return c.IngestPostsBatch(ctx, c.nextBatchID(), posts)
}

// IngestPostsBatch is IngestPosts under an explicit batch ID.
func (c *Client) IngestPostsBatch(ctx context.Context, batchID string, posts []social.Post) (IngestResponse, error) {
	var out IngestResponse
	err := c.post(ctx, "/v1/posts", batchID, posts, &out)
	return out, err
}

// Stats fetches store counts.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.get(ctx, "/v1/stats", nil, &out)
	return out, err
}

// EngagementQuery parameterizes Engagement.
type EngagementQuery struct {
	Metric     telemetry.Metric
	Engagement telemetry.Engagement
	Lo, Hi     float64
	Bins       int
	ISP        string // optional
}

// Engagement fetches a dose-response curve.
func (c *Client) Engagement(ctx context.Context, q EngagementQuery) (EngagementResponse, error) {
	v := url.Values{}
	v.Set("metric", q.Metric.String())
	v.Set("engagement", q.Engagement.String())
	v.Set("lo", fmt.Sprint(q.Lo))
	v.Set("hi", fmt.Sprint(q.Hi))
	if q.Bins > 0 {
		v.Set("bins", fmt.Sprint(q.Bins))
	}
	if q.ISP != "" {
		v.Set("isp", q.ISP)
	}
	var out EngagementResponse
	err := c.get(ctx, "/v1/insights/engagement", v, &out)
	return out, err
}

// MOS fetches the Fig. 4 correlations and predictor evaluation.
func (c *Client) MOS(ctx context.Context) (MOSResponse, error) {
	var out MOSResponse
	err := c.get(ctx, "/v1/insights/mos", nil, &out)
	return out, err
}

// DailySentiment fetches the Fig. 5a series.
func (c *Client) DailySentiment(ctx context.Context) ([]DaySentiment, error) {
	var out []DaySentiment
	err := c.get(ctx, "/v1/insights/sentiment", nil, &out)
	return out, err
}

// Peaks fetches the top-k annotated sentiment peaks.
func (c *Client) Peaks(ctx context.Context, k int) ([]AnnotatedPeak, error) {
	v := url.Values{}
	v.Set("k", fmt.Sprint(k))
	var out []AnnotatedPeak
	err := c.get(ctx, "/v1/insights/peaks", v, &out)
	return out, err
}

// OutageSeries fetches the Fig. 6 keyword series.
func (c *Client) OutageSeries(ctx context.Context) ([]DayKeywords, error) {
	var out []DayKeywords
	err := c.get(ctx, "/v1/insights/outages", nil, &out)
	return out, err
}

// OutageAlerts fetches alert days above the threshold.
func (c *Client) OutageAlerts(ctx context.Context, threshold int) ([]OutageAlert, error) {
	v := url.Values{}
	v.Set("threshold", fmt.Sprint(threshold))
	var out []OutageAlert
	err := c.get(ctx, "/v1/insights/outages", v, &out)
	return out, err
}

// MonthlySpeeds fetches the Fig. 7 series.
func (c *Client) MonthlySpeeds(ctx context.Context) ([]MonthSpeed, error) {
	var out []MonthSpeed
	err := c.get(ctx, "/v1/insights/speeds", nil, &out)
	return out, err
}

// Trends fetches emerging discussion topics.
func (c *Client) Trends(ctx context.Context) ([]Trend, error) {
	var out []Trend
	err := c.get(ctx, "/v1/insights/trends", nil, &out)
	return out, err
}

// Confounders fetches the §6 confounder-effect report for one engagement
// metric.
func (c *Client) Confounders(ctx context.Context, eng telemetry.Engagement) ([]ConfounderEffect, error) {
	v := url.Values{}
	v.Set("engagement", eng.String())
	var out []ConfounderEffect
	err := c.get(ctx, "/v1/insights/confounders", v, &out)
	return out, err
}

// TrafficEngineeringAdvice fetches ranked network-improvement
// recommendations.
func (c *Client) TrafficEngineeringAdvice(ctx context.Context) ([]TERecommendation, error) {
	var out []TERecommendation
	err := c.get(ctx, "/v1/advice/traffic-engineering", nil, &out)
	return out, err
}

// DeploymentAdvice fetches constellation launch-plan scenarios.
func (c *Client) DeploymentAdvice(ctx context.Context, from, horizon timeline.Day, maxExtra, satsPerLaunch int, posTarget float64) (DeploymentAdvice, error) {
	v := url.Values{}
	v.Set("from", fmt.Sprint(int(from)))
	v.Set("horizon", fmt.Sprint(int(horizon)))
	v.Set("max", fmt.Sprint(maxExtra))
	v.Set("sats", fmt.Sprint(satsPerLaunch))
	v.Set("target", fmt.Sprint(posTarget))
	var out DeploymentAdvice
	err := c.get(ctx, "/v1/advice/deployment", v, &out)
	return out, err
}

// Incidents fetches the daily engagement series and detected incidents for
// one engagement metric.
func (c *Client) Incidents(ctx context.Context, eng telemetry.Engagement) (IncidentResponse, error) {
	v := url.Values{}
	v.Set("engagement", eng.String())
	var out IncidentResponse
	err := c.get(ctx, "/v1/insights/incidents", v, &out)
	return out, err
}

// Report fetches the composed operator report.
func (c *Client) Report(ctx context.Context) (OperatorReport, error) {
	var out OperatorReport
	err := c.get(ctx, "/v1/report", nil, &out)
	return out, err
}

// Experience runs the §5 cross-source query for an ISP.
func (c *Client) Experience(ctx context.Context, isp string) (ExperienceResponse, error) {
	v := url.Values{}
	v.Set("isp", isp)
	var out ExperienceResponse
	err := c.get(ctx, "/v1/query/experience", v, &out)
	return out, err
}

// Partials fetches a shard's mergeable accumulator state for the requested
// sections (the cluster coordinator's scatter half; see partials.go).
// query carries the sections parameter plus any section-specific options,
// since= included. held, when not empty, makes the request conditional: it
// is the tag of the state the caller already holds, and a shard still at
// that tag answers 304 — Validation.NotModified, no body, zero partials.
// Validation.Tag is the tag of whichever endpoint answered: reads rotate
// over a shard's endpoints, and tags of different processes never match.
// The request names PartialsProtocol. An answer naming any other (or none),
// carrying a field the protocol lacks, or longer than MaxPartialsBytes fails
// the call and is not retried.
func (c *Client) Partials(ctx context.Context, query url.Values, held string) (ShardPartials, Validation, error) {
	var out ShardPartials
	var v Validation
	req, err := c.newGet(ctx, "/v1/partials", query)
	if err != nil {
		return out, v, err
	}
	if held != "" {
		req.Header.Set("If-None-Match", held)
	}
	req.Header.Set(PartialsProtocolHeader, partialsProtocol)
	err = c.do(req, &out, &v)
	return out, v, err
}

// ModelPartials runs the model phase of a two-phase cluster query: ship the
// coordinator-trained model, get back per-day partials computed under it.
// Validation.Tag is the state tag the shard stamped on its answer, so the
// caller can tell whether the model phase saw the same state as the
// phase-one partials it holds. The exchange follows Partials' protocol
// rules.
func (c *Client) ModelPartials(ctx context.Context, mreq ModelPartialsRequest) (ModelPartials, Validation, error) {
	var out ModelPartials
	var v Validation
	req, err := c.newPost(ctx, "/v1/partials/model", mreq)
	if err != nil {
		return out, v, err
	}
	req.Header.Set(PartialsProtocolHeader, partialsProtocol)
	err = c.do(req, &out, &v)
	return out, v, err
}

// Ready probes /v1/readyz; a nil error means the service reported ready.
func (c *Client) Ready(ctx context.Context) error {
	var out HealthResponse
	return c.get(ctx, "/v1/readyz", nil, &out)
}
