package usaas

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"usersignals/internal/durable"
	"usersignals/internal/leo"
	"usersignals/internal/newswire"
	"usersignals/internal/nlp"
	"usersignals/internal/social"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
)

// Store is the service's ingested-signal repository: session telemetry
// (implicit + sparse explicit feedback) and social posts (offline explicit
// feedback). Safe for concurrent use.
//
// Ingest is idempotent per batch ID: the first delivery of a batch is
// applied and its acknowledgement recorded; replays return the recorded
// acknowledgement without mutating the store. Telemetry arrives over the
// same flaky networks the service measures, so clients retry lost
// acknowledgements — dedup here is what turns at-least-once delivery into
// effectively-once ingest.
// Locking. The single store RWMutex of PRs 1–8 is split three ways so the
// ingest hot path serializes only what the contracts require (DESIGN.md
// §15 has the full rules):
//
//   - ingestMu — the SEQUENCING lock: dedup check, WAL frame write, ack
//     prediction, turn-chain registration. Holding it pins WAL append
//     order == apply order (per kind) == ack order.
//   - sessMu — the session shard: sessions, sessGen, and the session
//     views (rated/daily/eng).
//   - postMu — the post shard: day buckets, their accumulators, the stem
//     arena, postGen (posts.go).
//   - textMu — the text engine posts are read with (interner, scorer
//     tables, matcher). Staging takes it alone; folds and reads take it
//     shared.
//   - dedupMu — the dedup shard: batches (acks) and pending (unresolved
//     commit tickets). A leaf lock.
//
// Lock order: ingestMu ≻ sessMu ≻ postMu ≻ textMu ≻ dedupMu (acquire left
// to right, release any way; skipping levels is fine). te.mu (the
// traffic-engineering fold) is taken with no store lock held. Apply workers take
// only their shard lock; readers take one shard RLock after an apply
// fence (pipeline.go); nothing acquires ingestMu while holding any other
// store lock.
type Store struct {
	// ingestMu guards sequencing: seqSessions/seqPosts (predicted
	// post-apply totals, what acks report), the per-kind turn-chain tails,
	// and pipe. The journal append happens under it — that is the
	// write-ahead contract AND the order pin.
	ingestMu    sync.Mutex
	seqSessions int
	seqPosts    int
	sessTail    chan struct{} // done of the last sequenced session job
	postTail    chan struct{} // done of the last sequenced post job
	pipe        *applyPipeline

	// sessFence/postFence mirror the tails for lock-free reader fences
	// (they hold chan struct{}; see fenceSessions).
	sessFence atomic.Value
	postFence atomic.Value

	// applyDelay, when set (tests only), makes every apply sleep that many
	// nanoseconds first — the hook that holds the apply queue observably
	// open for the crash-mid-queue and duplicate-race tests. Atomic so
	// tests may set it while workers run.
	applyDelay atomic.Int64

	sessMu   sync.RWMutex
	sessions rowStore // chunked row blocks (rows.go)
	sessGen  uint64   // bumped on every session apply

	postMu  sync.RWMutex
	days    []*dayBucket  // ascending by day (posts.go)
	nPosts  int           // posts held across all buckets
	arena   []nlp.TokenID // append-only content stems the buckets' records index
	postGen uint64        // bumped on every post apply
	refolds int           // days folded again because a post arrived out of ID order

	// textMu guards the text engine every post is read with at ingest: the
	// interner and the tables compiled against it grow with the vocabulary.
	textMu     sync.RWMutex
	text       *textEngine
	tokScratch []nlp.TokenID // a staged batch's raw tokens, reused

	dedupMu sync.RWMutex
	batches map[string]IngestResponse // batch ID → first acknowledgement

	// journal, when non-nil, receives every accepted (non-duplicate)
	// batch under ingestMu BEFORE the batch is sequenced into the apply
	// chain: the write-ahead contract (durable.go). The dedup check runs
	// under the same lock, so duplicates are never journaled — replication
	// depends on follower WALs being byte-identical to the leader's.
	journal batchJournal

	// pending maps a batch ID to its unresolved commit ticket: under group
	// commit the journal returns before the covering fsync, and a duplicate
	// delivery arriving in that window must wait on the SAME fsync as the
	// original — answering it from the dedup table alone would acknowledge
	// a batch that is not durable yet. Entries are removed by finishIngest
	// once the ticket resolves. Guarded by dedupMu.
	pending map[string]*durable.Ticket

	// views holds the incrementally maintained materialized state the
	// query handlers read (views.go). Folded only on non-duplicate
	// batches, so replays never double-count. Session-backed fields
	// (rated, daily, eng) are guarded by sessMu; post-backed fields
	// (speeds, day hull) by postMu.
	views viewState

	// te is the traffic-engineering fold, kept current under the last model
	// asked for (planning.go).
	te teFold
	// termRows is the term rows of the newest post generation a reader
	// asked for, patched forward by the days later generations folded
	// (posts.go). Its lock is taken with no store lock held.
	termRows termRows
}

// AddSessions ingests session records unconditionally (no dedup). The
// error is non-nil only on a durable store whose log append failed.
func (s *Store) AddSessions(recs []telemetry.SessionRecord) error {
	_, _, err := s.AddSessionsBatch("", recs)
	return err
}

// AddSessionsBatch ingests session records under an idempotency key. A
// batch ID already seen returns the original acknowledgement with dup=true
// and leaves the store unchanged; an empty batch ID skips dedup. On a
// durable store a failed log append rejects the batch — nothing is
// applied or acknowledged, so the client's retry is safe.
func (s *Store) AddSessionsBatch(batchID string, recs []telemetry.SessionRecord) (resp IngestResponse, dup bool, err error) {
	return s.addSessionsBatch(batchID, recs, nil)
}

// addSessionsBatch is the synchronous ingest shape: sequence, wait for the
// batch to be applied, then wait for the covering fsync before
// acknowledging. Replay, replication, preloads, and the non-HTTP API all
// come through here, so they observe their own writes immediately.
func (s *Store) addSessionsBatch(batchID string, recs []telemetry.SessionRecord, wire []byte) (resp IngestResponse, dup bool, err error) {
	resp, dup, t, job, err := s.addSessionsBatchAsync(batchID, recs, wire, false)
	if err != nil {
		return IngestResponse{}, dup, err
	}
	if job != nil {
		<-job.done
	}
	if err := s.finishIngest(batchID, t); err != nil {
		return IngestResponse{}, dup, err
	}
	return resp, dup, nil
}

// addSessionsBatchAsync is the sequencing core. wire, when non-nil, is the
// batch's NDJSON wire form as received (the HTTP handler captures the
// request body); the journal logs it verbatim instead of re-encoding,
// which is both cheaper and more faithful — replay parses the same bytes
// the live path did. The journal copies the frame before returning, so
// wire may be pooled by the caller.
//
// Only sequencing happens under ingestMu: dedup, the WAL frame write, the
// predicted-total acknowledgement, and the turn-chain registration. The
// returned job applies the batch outside the lock (worker pool or the
// caller's runJob); its done channel closes when the batch is visible.
// pooled marks recs as owned by the handler slice pool — ownership
// transfers to the job only when job != nil.
//
// The acknowledgement is recorded before the method returns, but the
// caller MUST NOT release it until finishIngest(batchID, t) returns nil:
// under group commit the frame's fsync is still in flight, and the
// sequencing lock is deliberately released while it runs — that window is
// where concurrent batches coalesce into one commit group.
func (s *Store) addSessionsBatchAsync(batchID string, recs []telemetry.SessionRecord, wire []byte, pooled bool) (resp IngestResponse, dup bool, t *durable.Ticket, job *applyJob, err error) {
	s.ingestMu.Lock()
	if batchID != "" {
		s.dedupMu.RLock()
		prev, seen := s.batches[batchID]
		pt := s.pending[batchID]
		s.dedupMu.RUnlock()
		if seen {
			s.ingestMu.Unlock()
			prev.Duplicate = true
			return prev, true, pt, nil, nil
		}
	}
	if s.journal != nil {
		t, err = s.journal.logSessions(batchID, recs, wire)
		if err != nil {
			s.ingestMu.Unlock()
			return IngestResponse{}, false, nil, nil, err
		}
	}
	s.seqSessions += len(recs)
	resp = IngestResponse{
		Accepted:      len(recs),
		TotalSessions: s.seqSessions,
		TotalPosts:    s.seqPosts,
		BatchID:       batchID,
	}
	job = &applyJob{kind: recSessions, recs: recs, prev: s.sessTail, done: make(chan struct{}), pooled: pooled}
	s.sessTail = job.done
	s.sessFence.Store(job.done)
	if batchID != "" {
		s.dedupMu.Lock()
		s.recordBatchLocked(batchID, resp)
		s.trackPendingLocked(batchID, t)
		s.dedupMu.Unlock()
	}
	pipe := s.pipe
	if pipe != nil {
		// Enqueue under ingestMu: queue order = sequence order, and a
		// concurrent StopApplyPipeline (which detaches under this lock)
		// can never close the channel between our load and our send.
		pipe.queue <- job
	}
	s.ingestMu.Unlock()
	if pipe == nil {
		s.runJob(job)
	}
	return resp, false, t, job, nil
}

// AddPosts ingests social posts unconditionally (no dedup). The error is
// non-nil only on a durable store whose log append failed.
func (s *Store) AddPosts(posts []social.Post) error {
	_, _, err := s.AddPostsBatch("", posts)
	return err
}

// AddPostsBatch ingests social posts under an idempotency key, with the
// same replay and durability semantics as AddSessionsBatch.
func (s *Store) AddPostsBatch(batchID string, posts []social.Post) (resp IngestResponse, dup bool, err error) {
	return s.addPostsBatch(batchID, posts, nil)
}

// addPostsBatch is the synchronous post-ingest shape; see addSessionsBatch.
func (s *Store) addPostsBatch(batchID string, posts []social.Post, wire []byte) (resp IngestResponse, dup bool, err error) {
	resp, dup, t, job, err := s.addPostsBatchAsync(batchID, posts, wire, false)
	if err != nil {
		return IngestResponse{}, dup, err
	}
	if job != nil {
		<-job.done
	}
	if err := s.finishIngest(batchID, t); err != nil {
		return IngestResponse{}, dup, err
	}
	return resp, dup, nil
}

// addPostsBatchAsync mirrors addSessionsBatchAsync: wire, when non-nil, is
// the received JSONL body and is journaled verbatim.
func (s *Store) addPostsBatchAsync(batchID string, posts []social.Post, wire []byte, pooled bool) (resp IngestResponse, dup bool, t *durable.Ticket, job *applyJob, err error) {
	s.ingestMu.Lock()
	if batchID != "" {
		s.dedupMu.RLock()
		prev, seen := s.batches[batchID]
		pt := s.pending[batchID]
		s.dedupMu.RUnlock()
		if seen {
			s.ingestMu.Unlock()
			prev.Duplicate = true
			return prev, true, pt, nil, nil
		}
	}
	if s.journal != nil {
		t, err = s.journal.logPosts(batchID, posts, wire)
		if err != nil {
			s.ingestMu.Unlock()
			return IngestResponse{}, false, nil, nil, err
		}
	}
	s.seqPosts += len(posts)
	resp = IngestResponse{
		Accepted:      len(posts),
		TotalSessions: s.seqSessions,
		TotalPosts:    s.seqPosts,
		BatchID:       batchID,
	}
	job = &applyJob{kind: recPosts, posts: posts, prev: s.postTail, done: make(chan struct{}), pooled: pooled}
	s.postTail = job.done
	s.postFence.Store(job.done)
	if batchID != "" {
		s.dedupMu.Lock()
		s.recordBatchLocked(batchID, resp)
		s.trackPendingLocked(batchID, t)
		s.dedupMu.Unlock()
	}
	pipe := s.pipe
	if pipe != nil {
		pipe.queue <- job
	}
	s.ingestMu.Unlock()
	if pipe == nil {
		s.runJob(job)
	}
	return resp, false, t, job, nil
}

// trackPendingLocked registers an unresolved commit ticket under the batch
// ID so duplicate deliveries arriving before the fsync completes wait on
// it too. Caller holds dedupMu. Resolved tickets (the non-group
// policies) are not tracked — there is nothing left to wait for.
func (s *Store) trackPendingLocked(batchID string, t *durable.Ticket) {
	if batchID == "" || t == nil || t.Resolved() {
		return
	}
	if s.pending == nil {
		s.pending = map[string]*durable.Ticket{}
	}
	s.pending[batchID] = t
}

// finishIngest waits for the commit ticket covering an applied batch and
// reports the fsync outcome — the acknowledgement gate. On success the
// batch's pending entry is cleared. On failure the recorded
// acknowledgement is withdrawn too: the log is poisoned (durable/commit.go)
// and will reject the retry explicitly, and a dedup hit must not answer
// "accepted" for a batch whose durability failed. Nil and pre-resolved
// tickets return immediately, so non-durable stores and the interval/off
// policies pay nothing.
func (s *Store) finishIngest(batchID string, t *durable.Ticket) error {
	if t == nil {
		return nil
	}
	err := t.Wait()
	if batchID != "" {
		s.dedupMu.Lock()
		if s.pending[batchID] == t {
			delete(s.pending, batchID)
		}
		if err != nil {
			delete(s.batches, batchID)
		}
		s.dedupMu.Unlock()
	}
	return err
}

// recordBatchLocked stores a batch's first acknowledgement. Caller holds
// dedupMu.
func (s *Store) recordBatchLocked(batchID string, resp IngestResponse) {
	if batchID == "" {
		return
	}
	if s.batches == nil {
		s.batches = map[string]IngestResponse{}
	}
	s.batches[batchID] = resp
}

// Sessions returns a snapshot copy of the sessions. Read-only consumers
// should prefer Rows (rows.go), which avoids the O(store) copy; this
// accessor remains for callers that mutate the returned records.
func (s *Store) Sessions() []telemetry.SessionRecord {
	rows := s.Rows()
	return rows.AppendTo(make([]telemetry.SessionRecord, 0, rows.Len()))
}

// Counts returns the store sizes.
func (s *Store) Counts() (sessions, posts int) {
	s.fenceSessions()
	s.fencePosts()
	s.sessMu.RLock()
	sessions = s.sessions.n
	s.sessMu.RUnlock()
	s.postMu.RLock()
	posts = s.nPosts
	s.postMu.RUnlock()
	return sessions, posts
}

// ServerOptions configures the USaaS HTTP service.
type ServerOptions struct {
	// Analyzer and OutageDict are what the store reads posts with at
	// ingest; they default to nlp.NewAnalyzer() and nlp.OutageDictionary().
	// NewServer binds them to the store, and the first binding wins: a
	// store that already holds posts, or already serves another Server,
	// keeps the instances it has.
	Analyzer   *nlp.Analyzer
	OutageDict *nlp.Dictionary
	// News enables peak annotation (optional).
	News *newswire.Index
	// Model enables Fig. 7 launch/subscriber annotations (optional).
	Model *leo.Model
	// MaxBodyBytes caps ingest request bodies (default 64 MiB).
	MaxBodyBytes int64
	// AuthToken, when set, requires every request to carry
	// "Authorization: Bearer <token>" — the §5 "access control for
	// different stakeholders" in its simplest form. Empty disables auth.
	AuthToken string
	// RequestTimeout bounds each request's total handling time; requests
	// exceeding it receive a 503 (default 60s; negative disables).
	RequestTimeout time.Duration
	// MaxInflight caps concurrently handled requests; excess requests are
	// rejected with 429 + Retry-After instead of queueing without bound
	// (0 disables).
	MaxInflight int
	// Admission rate-limits ingest per tenant (admission.go); a zero Rate
	// disables it. Runs outside the inflight limiter, so one tenant's
	// excess is rejected before it can occupy inflight slots.
	Admission AdmissionOptions
	// ResultCacheSize caps the generation-keyed result cache (cache.go):
	// 0 means the default of 256 entries, negative disables caching.
	ResultCacheSize int
	// Ready, when set, gates /v1/readyz: a nil return means the node can
	// serve (recovery replay finished; a follower's lag is under bound),
	// any error is reported with a 503. nil Ready means always ready.
	Ready func() error
}

// Server is the USaaS HTTP service.
type Server struct {
	store *Store
	opts  ServerOptions
	mux   *http.ServeMux
	cache *ResultCache // nil when disabled
	reads *ReadPath
	admit *admission // nil when admission control is disabled
	boot  string     // per-server half of the state tag (cache.go)
}

// NewServer builds a service around a store (a fresh one if nil).
func NewServer(store *Store, opts ServerOptions) *Server {
	if store == nil {
		store = &Store{}
	}
	if opts.Analyzer == nil {
		opts.Analyzer = nlp.NewAnalyzer()
	}
	if opts.OutageDict == nil {
		opts.OutageDict = nlp.OutageDictionary()
	}
	store.bindText(opts.Analyzer, opts.OutageDict)
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = 60 * time.Second
	}
	s := &Server{
		store: store, opts: opts, mux: http.NewServeMux(),
		cache: NewResultCache(opts.ResultCacheSize), boot: newBootNonce(),
	}
	if opts.Admission.Rate > 0 {
		s.admit = newAdmission(opts.Admission)
	}
	// Ingest and store-stats endpoints stay uncached; the read endpoints are
	// the plans of read.go over this node's own store.
	s.mux.HandleFunc("/v1/sessions", s.handleSessions)
	s.mux.HandleFunc("/v1/posts", s.handlePosts)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.reads = NewReadPath(localSource{s}, s.cache, opts.News, opts.Model)
	s.reads.Mount(s.mux)
	// Cluster partial-state exchange (partials.go). The GET side is tagged
	// and cached like any read; the model phase is a POST and stays
	// uncached, but stamps the same tag on its answer. Both speak one
	// numbered protocol.
	s.mux.HandleFunc("/v1/partials", speaksPartials(s.cached(s.handleGetPartials)))
	s.mux.HandleFunc("/v1/partials/model", speaksPartials(s.handleModelPartials))
	s.mux.HandleFunc(healthzPath, s.handleHealthz)
	s.mux.HandleFunc(readyzPath, s.handleReadyz)
	return s
}

// Health endpoints. Liveness answers whenever the process can serve HTTP
// at all; readiness distinguishes "up but not yet serving correct answers"
// (recovering, or a follower too far behind the leader) — the state a
// supervisor or load balancer must not route traffic to. Both bypass
// auth, the inflight limiter, and the request timeout (Handler), so a
// saturated or misconfigured node still reports its health.
const (
	healthzPath = "/v1/healthz"
	readyzPath  = "/v1/readyz"
)

// HealthResponse is the body of /v1/healthz and /v1/readyz.
type HealthResponse struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	if s.opts.Ready != nil {
		if err := s.opts.Ready(); err != nil {
			WriteJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "not ready", Error: err.Error()})
			return
		}
	}
	WriteJSON(w, http.StatusOK, HealthResponse{Status: "ready"})
}

// IncidentResponse pairs the daily series with detected incidents.
type IncidentResponse struct {
	Engagement string          `json:"engagement"`
	Days       []DayEngagement `json:"days"`
	Incidents  []Incident      `json:"incidents"`
}

// Handler returns the HTTP handler, wrapped (outermost first) with
// bearer-token auth, per-tenant admission control, the inflight limiter,
// and the per-request timeout. Admission sits outside the inflight
// limiter so an over-budget tenant is rejected before occupying a slot.
// The health endpoints short-circuit past all wrappers: probes carry
// no credentials, and a node at its inflight cap or wedged past its
// timeout is exactly the node whose health must still be observable.
func (s *Server) Handler() http.Handler {
	h := http.Handler(s.mux)
	if s.opts.RequestTimeout > 0 {
		h = timeoutHandler(h, s.opts.RequestTimeout)
	}
	if s.opts.MaxInflight > 0 {
		h = inflightLimiter(h, s.opts.MaxInflight)
	}
	if s.admit != nil {
		h = admissionLimiter(h, s.admit)
	}
	if s.opts.AuthToken != "" {
		h = BearerAuth(h, s.opts.AuthToken)
	}
	wrapped := h
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == healthzPath || r.URL.Path == readyzPath {
			s.mux.ServeHTTP(w, r)
			return
		}
		wrapped.ServeHTTP(w, r)
	})
}

// BearerAuth rejects requests that do not carry "Authorization: Bearer
// <token>", compared in constant time. The health endpoints pass without
// credentials: probes carry none.
func BearerAuth(next http.Handler, token string) http.Handler {
	want := []byte("Bearer " + token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != healthzPath && r.URL.Path != readyzPath &&
			subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), want) != 1 {
			WriteError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// timeoutHandler bounds each request's handling time, answering 503 with a
// deterministic Retry-After when exceeded. A hand-rolled replacement for
// http.TimeoutHandler, which cannot attach headers to its timeout response
// — and without the hint the PR-2 client retries a timed-out (likely
// overloaded) server immediately.
func timeoutHandler(next http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		tw := &timeoutWriter{h: make(http.Header), code: http.StatusOK}
		done := make(chan struct{})
		go func() {
			defer close(done)
			next.ServeHTTP(tw, r.WithContext(ctx))
		}()
		select {
		case <-done:
			tw.mu.Lock()
			dst := w.Header()
			for k, v := range tw.h {
				dst[k] = v
			}
			w.WriteHeader(tw.code)
			_, _ = w.Write(tw.body.Bytes())
			tw.mu.Unlock()
		case <-ctx.Done():
			// The handler goroutine keeps running until it notices the
			// canceled context; it writes into the buffer, which is
			// discarded. Mark it timed out so late writes error like
			// http.TimeoutHandler's do.
			tw.mu.Lock()
			tw.timedOut = true
			tw.mu.Unlock()
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusServiceUnavailable, "request timed out")
		}
	})
}

// timeoutWriter buffers a response so it can be forwarded whole (handler
// finished in time) or dropped whole (deadline hit first).
type timeoutWriter struct {
	mu       sync.Mutex
	h        http.Header
	body     bytes.Buffer
	code     int
	wrote    bool
	timedOut bool
}

func (tw *timeoutWriter) Header() http.Header { return tw.h }

func (tw *timeoutWriter) WriteHeader(code int) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.wrote || tw.timedOut {
		return
	}
	tw.wrote = true
	tw.code = code
}

func (tw *timeoutWriter) Write(p []byte) (int, error) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.timedOut {
		return 0, http.ErrHandlerTimeout
	}
	tw.wrote = true
	return tw.body.Write(p)
}

// inflightLimiter sheds load beyond max concurrent requests with a 429 and
// a Retry-After hint, so overload degrades into fast, retryable rejections
// instead of unbounded queueing.
func inflightLimiter(next http.Handler, max int) http.Handler {
	slots := make(chan struct{}, max)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case slots <- struct{}{}:
			defer func() { <-slots }()
			next.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, "server at capacity (%d in flight)", max)
		}
	})
}

// --- wire helpers, shared by every usaasd front end ---

type apiError struct {
	Error string `json:"error"`
}

// WriteJSON answers status with v as the JSON body. json.Encoder marshals
// the whole value before its one Write, and the status goes out with that
// Write: an answer that cannot be encoded — a NaN in it, say — is a 500
// naming the failure, never a 200 with an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	sw := &statusOnWrite{ResponseWriter: w, status: status}
	if err := json.NewEncoder(sw).Encode(v); err != nil && !sw.sent {
		WriteError(w, http.StatusInternalServerError, "encoding the answer: %v", err)
	}
	// A failed write after the status is sent has no one left to tell.
}

// statusOnWrite sends its status just before the first body bytes.
type statusOnWrite struct {
	http.ResponseWriter
	status int
	sent   bool
}

func (s *statusOnWrite) Write(b []byte) (int, error) {
	if !s.sent {
		s.sent = true
		s.ResponseWriter.WriteHeader(s.status)
	}
	return s.ResponseWriter.Write(b)
}

// WriteError answers status with the formatted message as the JSON error
// body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// RequireMethod answers 405, naming method in the message and in Allow,
// unless r uses it.
func RequireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed; use %s", r.Method, method)
	return false
}

// queryForm parses typed query parameters, remembering the first
// malformed value so handlers can answer 400 naming the offending key.
// Only an absent or empty parameter falls back to the default —
// "?bins=abc" is a client error, not a synonym for "?bins=".
type queryForm struct {
	q   url.Values
	err error
}

func formOf(r *http.Request) *queryForm { return &queryForm{q: r.URL.Query()} }

func (f *queryForm) int(key string, def int) int {
	v := f.q.Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		if f.err == nil {
			f.err = fmt.Errorf("query parameter %q: invalid integer %q", key, v)
		}
		return def
	}
	return n
}

func (f *queryForm) float(key string, def float64) float64 {
	v := f.q.Get(key)
	if v == "" {
		return def
	}
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		if f.err == nil {
			f.err = fmt.Errorf("query parameter %q: invalid number %q", key, v)
		}
		return def
	}
	return x
}

// bound fails key with why unless ok, keeping an earlier parameter's error.
func (f *queryForm) bound(key string, ok bool, why string, args ...any) {
	if f.err == nil && !ok {
		f.err = fmt.Errorf("query parameter %q: "+why, append([]any{key}, args...)...)
	}
}

// reject answers 400 with the first parse error, reporting whether the
// handler should stop.
func (f *queryForm) reject(w http.ResponseWriter) bool {
	if f.err == nil {
		return false
	}
	WriteError(w, http.StatusBadRequest, "%v", f.err)
	return true
}

// --- ingestion ---

// IngestResponse acknowledges an ingest call. A replayed batch returns the
// original acknowledgement with Duplicate set: Accepted reports what the
// first delivery applied, and the totals are those recorded at that time.
type IngestResponse struct {
	Accepted      int    `json:"accepted"`
	TotalSessions int    `json:"total_sessions"`
	TotalPosts    int    `json:"total_posts"`
	BatchID       string `json:"batch_id,omitempty"`
	Duplicate     bool   `json:"duplicate,omitempty"`
}

// isNDJSON reports whether the request body is JSON Lines (one record per
// line) rather than a JSON array.
func isNDJSON(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return strings.Contains(ct, "ndjson") || strings.Contains(ct, "jsonlines") || strings.Contains(ct, "jsonl")
}

// bodyCapture tees an NDJSON request body into a pooled buffer while it
// is parsed, so the durability journal can log the wire bytes verbatim
// instead of re-encoding the batch (float formatting dominates encode
// cost). Replay then parses the exact bytes the live path parsed.
type bodyCapture struct {
	r   io.Reader
	buf *[]byte
}

func newBodyCapture(r io.Reader) *bodyCapture {
	b := ndjsonBufs.Get().(*[]byte)
	*b = (*b)[:0]
	return &bodyCapture{r: r, buf: b}
}

func (c *bodyCapture) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.buf = append(*c.buf, p[:n]...)
	return n, err
}

// wire is the body as received: nil for a body that was not captured.
func (c *bodyCapture) wire() []byte {
	if c == nil {
		return nil
	}
	return *c.buf
}

// release returns the buffer to the pool. The journal copies the frame
// before the ingest call returns, so the bytes are dead by handler exit.
func (c *bodyCapture) release() {
	ndjsonBufs.Put(c.buf)
}

// DecodeSessions reads a POST /v1/sessions body, appending to dst: JSON
// Lines when r's Content-Type names them, a JSON array otherwise. The error
// is the message a node answers 400 with.
func DecodeSessions(r *http.Request, body io.Reader, dst []telemetry.SessionRecord) ([]telemetry.SessionRecord, error) {
	if !isNDJSON(r) {
		if err := json.NewDecoder(body).Decode(&dst); err != nil {
			return dst, fmt.Errorf("decoding sessions: %w", err)
		}
		return dst, nil
	}
	err := telemetry.ReadJSONL(body, func(rec *telemetry.SessionRecord) error {
		dst = append(dst, *rec)
		return nil
	})
	if err != nil {
		return dst, fmt.Errorf("decoding NDJSON sessions: %w", err)
	}
	return dst, nil
}

// DecodePosts reads a POST /v1/posts body the way DecodeSessions reads
// sessions.
func DecodePosts(r *http.Request, body io.Reader, dst []social.Post) ([]social.Post, error) {
	if !isNDJSON(r) {
		if err := json.NewDecoder(body).Decode(&dst); err != nil {
			return dst, fmt.Errorf("decoding posts: %w", err)
		}
		return dst, nil
	}
	err := social.ReadPostsJSONL(body, func(p *social.Post) error {
		dst = append(dst, *p)
		return nil
	})
	if err != nil {
		return dst, fmt.Errorf("decoding NDJSON posts: %w", err)
	}
	return dst, nil
}

// handleSessions parses an NDJSON body into a pooled slice (the hot
// load-generator path would otherwise allocate, and the GC zero, a fresh one
// per request) while bodyCapture keeps its wire bytes for the journal.
// Ownership of the slice transfers to the apply job on acceptance; on any
// other outcome the handler releases it. handlePosts does the same.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodPost) {
		return
	}
	in := io.Reader(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	var recs []telemetry.SessionRecord
	var capture *bodyCapture
	if isNDJSON(r) {
		recs, capture = getSessionSlice(), newBodyCapture(in)
		defer capture.release()
		in = capture
	}
	recs, err := DecodeSessions(r, in, recs)
	if err != nil {
		if capture != nil {
			putSessionSlice(recs)
		}
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The async shape releases the sequencing lock before the fsync wait,
	// so concurrent ingest handlers coalesce into shared commit groups —
	// and before the apply, so they overlap the fold work too.
	batchID := r.Header.Get(BatchIDHeader)
	resp, _, t, job, err := s.store.addSessionsBatchAsync(batchID, recs, capture.wire(), capture != nil)
	if capture != nil && job == nil {
		putSessionSlice(recs) // duplicate or journal error: ownership stays here
	}
	if err == nil {
		err = s.store.finishIngest(batchID, t)
	}
	if err != nil {
		WriteError(w, http.StatusServiceUnavailable, "persisting sessions: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePosts(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodPost) {
		return
	}
	in := io.Reader(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	var posts []social.Post
	var capture *bodyCapture
	if isNDJSON(r) {
		posts, capture = getPostSlice(), newBodyCapture(in)
		defer capture.release()
		in = capture
	}
	posts, err := DecodePosts(r, in, posts)
	if err != nil {
		if capture != nil {
			putPostSlice(posts)
		}
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	batchID := r.Header.Get(BatchIDHeader)
	resp, _, t, job, err := s.store.addPostsBatchAsync(batchID, posts, capture.wire(), capture != nil)
	if capture != nil && job == nil {
		putPostSlice(posts)
	}
	if err == nil {
		err = s.store.finishIngest(batchID, t)
	}
	if err != nil {
		WriteError(w, http.StatusServiceUnavailable, "persisting posts: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// StatsResponse reports store contents, plus — when the corresponding
// subsystems are enabled — ingest pipeline, admission and result-cache
// gauges. The optional sections are omitted entirely when off, so the wire
// bytes of a plain store (result cache disabled) are unchanged (several
// tests byte-compare /v1/stats across stores).
type StatsResponse struct {
	Sessions  int                  `json:"sessions"`
	Posts     int                  `json:"posts"`
	Ingest    *IngestPipelineStats `json:"ingest,omitempty"`
	Admission []TenantAdmission    `json:"admission,omitempty"`
	Cache     *CacheMetrics        `json:"cache,omitempty"`
	Cluster   *ClusterStats        `json:"cluster,omitempty"`
}

// ClusterStats is a coordinator's view of its shard fleet, embedded in
// /v1/stats when usaasd runs in coordinator role (internal/cluster fills
// it in; single nodes never set it, so their stats bytes are unchanged).
type ClusterStats struct {
	MapVersion uint64        `json:"map_version"`
	Shards     []ShardStatus `json:"shards"`
	// PartialMerges counts merges actually performed: a query answered from
	// the coordinator's result cache does not merge.
	PartialMerges    uint64        `json:"partial_merges"`
	DegradedSections uint64        `json:"degraded_sections"`
	Cache            *CacheMetrics `json:"cache,omitempty"` // nil when the coordinator caches are off
}

// ShardStatus is one shard's health and fan-out gauges. Revalidated counts
// partials requests the shard answered 304 (the coordinator's held state
// was current), Fetched those it answered with a body, Deltas those of them
// that were deltas — answers with any section patched onto held state
// (since=) — and PartialsBytes the body bytes transferred.
type ShardStatus struct {
	Name          string        `json:"name"`
	Up            bool          `json:"up"`
	Fanouts       uint64        `json:"fanouts"`
	Errors        uint64        `json:"errors"`
	Revalidated   uint64        `json:"revalidated"`
	Fetched       uint64        `json:"fetched"`
	Deltas        uint64        `json:"deltas,omitempty"`
	PartialsBytes uint64        `json:"partials_bytes"`
	LatencyMs     stats.GeoHist `json:"latency_ms"`
}

// IngestPipelineStats is the group-commit scheduler's view of ingest: how
// many fsync groups were issued, how well they amortized, and what each
// fsync cost. The load harness asserts against these.
type IngestPipelineStats struct {
	// CommitGroups counts fsyncs issued; CommitBatches counts the batches
	// they covered. MeanGroup = CommitBatches/CommitGroups is the
	// amortization factor.
	CommitGroups  uint64  `json:"commit_groups"`
	CommitBatches uint64  `json:"commit_batches"`
	MeanGroup     float64 `json:"mean_group"`
	MaxGroup      uint64  `json:"max_group"`
	// GroupSizeHist buckets groups by size: 1, 2, 3-4, 5-8, 9-16, 17-32, >32.
	GroupSizeHist []uint64 `json:"group_size_hist"`
	// QueueDepth is the number of batches awaiting their fsync right now.
	QueueDepth int `json:"queue_depth"`
	// Fsync latency over group syncs, milliseconds.
	FsyncCount  uint64  `json:"fsync_count"`
	FsyncMeanMs float64 `json:"fsync_mean_ms"`
	FsyncMaxMs  float64 `json:"fsync_max_ms"`
}

// commitMetricsSource is implemented by DurableStore; the server reaches
// the scheduler through the store's journal hook without the Store type
// needing to know about durability.
type commitMetricsSource interface {
	CommitMetrics() (durable.CommitMetrics, bool)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	sessions, posts := s.store.Counts()
	resp := StatsResponse{Sessions: sessions, Posts: posts}
	if src, ok := s.store.journal.(commitMetricsSource); ok {
		if m, on := src.CommitMetrics(); on {
			ps := &IngestPipelineStats{
				CommitGroups:  m.Groups,
				CommitBatches: m.Batches,
				MaxGroup:      m.MaxGroup,
				GroupSizeHist: append([]uint64(nil), m.GroupSizeHist[:]...),
				QueueDepth:    m.QueueDepth,
				FsyncCount:    m.FsyncCount,
				FsyncMaxMs:    float64(m.FsyncMaxNs) / 1e6,
			}
			if m.Groups > 0 {
				ps.MeanGroup = float64(m.Batches) / float64(m.Groups)
			}
			if m.FsyncCount > 0 {
				ps.FsyncMeanMs = float64(m.FsyncTotalNs) / float64(m.FsyncCount) / 1e6
			}
			resp.Ingest = ps
		}
	}
	if s.admit != nil {
		resp.Admission = s.admit.snapshot()
	}
	if s.cache != nil {
		m := s.cache.Metrics()
		resp.Cache = &m
	}
	WriteJSON(w, http.StatusOK, resp)
}

// --- insights ---

// zeroNaNs copies a series replacing NaN with 0; consumers must treat
// Count[i] == 0 bins as "no data" (documented on EngagementResponse).
func zeroNaNs(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if !math.IsNaN(x) {
			out[i] = x
		}
	}
	return out
}

// EngagementResponse is a dose-response curve. Bins with Count == 0 carry
// no data; their Y and Normalized entries are zeroed placeholders.
type EngagementResponse struct {
	Metric     string    `json:"metric"`
	Engagement string    `json:"engagement"`
	X          []float64 `json:"x"`
	Y          []float64 `json:"y"`
	Normalized []float64 `json:"normalized"`
	Count      []int     `json:"count"`
}

// EngagementFromSeries is the /v1/insights/engagement answer for a merged
// dose-response series (MergeDosePartials output).
func EngagementFromSeries(metric telemetry.Metric, eng telemetry.Engagement, series stats.BinnedSeries) EngagementResponse {
	return EngagementResponse{
		Metric:     metric.String(),
		Engagement: eng.String(),
		X:          series.X,
		Y:          zeroNaNs(series.Y),
		Normalized: zeroNaNs(Normalize100(series).Y),
		Count:      series.Count,
	}
}

// MOSResponse carries the Fig. 4 correlations and the predictor evaluation.
type MOSResponse struct {
	Correlations []MOSCorrelation `json:"correlations"`
	Predictor    *PredictorEval   `json:"predictor,omitempty"`
}

// MOSCorrelation is the wire form of EngagementMOS.
type MOSCorrelation struct {
	Engagement    string  `json:"engagement"`
	Pearson       float64 `json:"pearson"`
	Spearman      float64 `json:"spearman"`
	RatedSessions int     `json:"rated_sessions"`
}

// ExperienceResponse answers the §5 cross-source query: how users of one
// access network experience the conferencing service, fused from implicit
// actions, sparse surveys, the trained predictor, and social sentiment.
type ExperienceResponse struct {
	ISP            string  `json:"isp"`
	Sessions       int     `json:"sessions"`
	MeanPresence   float64 `json:"mean_presence_pct"`
	MeanCamOn      float64 `json:"mean_cam_on_pct"`
	MeanMicOn      float64 `json:"mean_mic_on_pct"`
	SurveyedMOS    float64 `json:"surveyed_mos"`
	SurveyedCount  int     `json:"surveyed_count"`
	PredictedMOS   float64 `json:"predicted_mos"`
	SocialPosRatio float64 `json:"social_pos_ratio"`
	OutageMentions int     `json:"outage_mentions"`
}

// speaksPartials stamps every answer of a partials endpoint with the protocol
// this build speaks, and refuses a request that names another with a 400
// naming both. A request naming none (curl, a direct fetch) is served.
func speaksPartials(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(PartialsProtocolHeader, partialsProtocol)
		if got := r.Header.Get(PartialsProtocolHeader); got != "" && got != partialsProtocol {
			WriteError(w, http.StatusBadRequest, "partials protocol %q requested; this shard speaks %d", got, PartialsProtocol)
			return
		}
		next(w, r)
	}
}

// handleGetPartials serves the cluster partial-state exchange (partials.go):
// the mergeable per-day accumulator state for the requested sections — as a
// delta when since= names a base it can serve one against. Answers are
// tagged and cached like any read.
func (s *Server) handleGetPartials(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query()
	req, err := parsePartials(q)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, s.store.partials(req, s.parseSince(q.Get("since")), false))
}

// handleModelPartials serves the model phase of two-phase cluster queries:
// the coordinator POSTs the canonical trained model and the shard answers
// with per-day partials computed under it. POST, so never cached here; the
// answer carries the state tag (read before the content, like cached does)
// so the coordinator can hold it beside the phase-one partials. The body
// keys the store's traffic-engineering fold, so it is decoded strictly:
// unknown fields and a malformed model answer 400.
func (s *Server) handleModelPartials(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodPost) {
		return
	}
	w.Header().Set("ETag", s.stateTag())
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	var req ModelPartialsRequest
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "decoding model request: %v", err)
		return
	}
	out, err := s.CollectModelPartials(req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, out)
}
