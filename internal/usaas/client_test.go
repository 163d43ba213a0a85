package usaas

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"usersignals/internal/telemetry"
)

// noRetry disables retries, the breaker, and real sleeping, for tests that
// probe single-attempt behavior.
func noRetry(ts *httptest.Server) *Client {
	return NewClientWithOptions(ts.URL, ClientOptions{
		HTTPClient: ts.Client(),
		Retry:      RetryPolicy{MaxAttempts: 1},
		Breaker:    BreakerPolicy{FailureThreshold: -1},
		Sleep:      func(time.Duration) {},
	})
}

// fastRetry retries aggressively without real sleeping.
func fastRetry(ts *httptest.Server, attempts int) *Client {
	return NewClientWithOptions(ts.URL, ClientOptions{
		HTTPClient: ts.Client(),
		Retry:      RetryPolicy{MaxAttempts: attempts, BaseBackoff: time.Nanosecond, MaxBackoff: time.Microsecond},
		Breaker:    BreakerPolicy{FailureThreshold: -1},
		Sleep:      func(time.Duration) {},
	})
}

func TestClientDoNonJSONErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "<html>definitely not json</html>")
	}))
	defer ts.Close()
	_, err := noRetry(ts).Stats(context.Background())
	if err == nil || !strings.Contains(err.Error(), "status 418") {
		t.Fatalf("err = %v, want status 418 with no parsed message", err)
	}
	if strings.Contains(err.Error(), "html") {
		t.Fatalf("unparseable body leaked into error: %v", err)
	}
}

func TestClientDoOversizedErrorBody(t *testing.T) {
	// The error body is far beyond the 64 KiB LimitReader cap; the client
	// must not buffer it all, and the resulting error must stay bounded.
	huge := strings.Repeat("x", 1<<20)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		io.WriteString(w, `{"error":"`+huge)
	}))
	defer ts.Close()
	_, err := noRetry(ts).Stats(context.Background())
	if err == nil {
		t.Fatal("oversized error body produced no error")
	}
	if !strings.Contains(err.Error(), "status 409") {
		t.Fatalf("err = %.80q..., want fallback status form", err.Error())
	}
	if len(err.Error()) > 1<<10 {
		t.Fatalf("error message is %d bytes; the cap leaked", len(err.Error()))
	}
}

func TestClientDoContextCanceledMidBody(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		// Send a partial JSON body, then cancel the client's context and
		// stall so the read fails mid-stream.
		io.WriteString(w, `{"sessions": 1, "posts`)
		w.(http.Flusher).Flush()
		cancel()
		<-r.Context().Done()
	}))
	defer ts.Close()

	_, err := fastRetry(ts, 5).Stats(ctx)
	if err == nil {
		t.Fatal("canceled mid-body read returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	// Cancellation must not be retried.
	if got := attempts.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (no retry on cancellation)", got)
	}
}

func TestClientRetriesTransientStatuses(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			WriteError(w, http.StatusServiceUnavailable, "warming up")
		case 2:
			WriteError(w, http.StatusInternalServerError, "still warming")
		default:
			WriteJSON(w, http.StatusOK, StatsResponse{Sessions: 7})
		}
	}))
	defer ts.Close()
	st, err := fastRetry(ts, 4).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 7 || calls.Load() != 3 {
		t.Fatalf("stats = %+v after %d calls", st, calls.Load())
	}
}

func TestClientDoesNotRetryCallerErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusBadRequest, "bad query")
	}))
	defer ts.Close()
	if _, err := fastRetry(ts, 5).Stats(context.Background()); err == nil {
		t.Fatal("400 must fail")
	}
	if calls.Load() != 1 {
		t.Fatalf("400 retried %d times", calls.Load())
	}
}

func TestClientRetriesReplayIngestBody(t *testing.T) {
	store := &Store{}
	srv := NewServer(store, ServerOptions{})
	var calls atomic.Int64
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			WriteError(w, http.StatusServiceUnavailable, "first delivery lost")
			return
		}
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	recs := []telemetry.SessionRecord{{CallID: 1}, {CallID: 2}}
	resp, err := fastRetry(ts, 3).IngestSessions(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 || resp.TotalSessions != 2 {
		t.Fatalf("retried ingest = %+v", resp)
	}
	if sessions, _ := store.Counts(); sessions != 2 {
		t.Fatalf("store sessions = %d (replayed body mangled?)", sessions)
	}
}

func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			WriteError(w, http.StatusTooManyRequests, "slow down")
			return
		}
		WriteJSON(w, http.StatusOK, StatsResponse{})
	}))
	defer ts.Close()

	var waits []time.Duration
	c := NewClientWithOptions(ts.URL, ClientOptions{
		HTTPClient: ts.Client(),
		Retry:      RetryPolicy{MaxAttempts: 3, MaxBackoff: 10 * time.Second},
		Breaker:    BreakerPolicy{FailureThreshold: -1},
		Sleep:      func(d time.Duration) { waits = append(waits, d) },
	})
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(waits) != 1 || waits[0] != 3*time.Second {
		t.Fatalf("waits = %v, want exactly the server's Retry-After of 3s", waits)
	}
}

func TestClientBackoffGrowsAndCaps(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusInternalServerError, "down")
	}))
	defer ts.Close()

	var waits []time.Duration
	c := NewClientWithOptions(ts.URL, ClientOptions{
		HTTPClient: ts.Client(),
		Retry:      RetryPolicy{MaxAttempts: 6, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond},
		Breaker:    BreakerPolicy{FailureThreshold: -1},
		Sleep:      func(d time.Duration) { waits = append(waits, d) },
	})
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("all-failing server must error")
	}
	if len(waits) != 5 {
		t.Fatalf("5 retries expected, got waits %v", waits)
	}
	for i, d := range waits {
		if d <= 0 || d > 40*time.Millisecond {
			t.Fatalf("wait %d = %v escaped (0, MaxBackoff]", i, d)
		}
	}
}

func TestClientCircuitBreaker(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusServiceUnavailable, "down hard")
	}))
	defer ts.Close()

	clock := time.Unix(1700000000, 0)
	c := NewClientWithOptions(ts.URL, ClientOptions{
		HTTPClient: ts.Client(),
		Retry:      RetryPolicy{MaxAttempts: 1},
		Breaker:    BreakerPolicy{FailureThreshold: 3, Cooldown: time.Minute},
		Sleep:      func(time.Duration) {},
		Now:        func() time.Time { return clock },
	})
	ctx := context.Background()

	// Three failures open the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Stats(ctx); err == nil {
			t.Fatal("failing server must error")
		}
	}
	before := calls.Load()
	if _, err := c.Stats(ctx); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still hit the network")
	}

	// After the cooldown, a half-open probe goes through; its failure
	// reopens the breaker immediately.
	clock = clock.Add(2 * time.Minute)
	if _, err := c.Stats(ctx); errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("half-open probe was not admitted: %v", err)
	}
	if calls.Load() != before+1 {
		t.Fatalf("probe count = %d, want %d", calls.Load(), before+1)
	}
	if _, err := c.Stats(ctx); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("failed probe must reopen the breaker")
	}

	// A successful probe closes it.
	okts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, StatsResponse{})
	}))
	defer okts.Close()
	clock = clock.Add(2 * time.Minute)
	c.base = okts.URL
	c.http = okts.Client()
	for i := 0; i < 3; i++ {
		if _, err := c.Stats(ctx); err != nil {
			t.Fatalf("closed breaker call %d: %v", i, err)
		}
	}
}

// TestClientConditionalPartials: a 304 to a conditional call is a success —
// one attempt, nothing for the breaker to count, the connection drained and
// reused — while a 304 nobody asked for stays an error that is not retried.
func TestClientConditionalPartials(t *testing.T) {
	const tag = `"boot.3.1"`
	const body = `{"sessions":7}` + "\n"
	var calls, conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set(PartialsProtocolHeader, partialsProtocol)
		switch {
		case r.URL.Path == "/v1/stats":
			w.WriteHeader(http.StatusNotModified) // unsolicited
		case r.Header.Get("If-None-Match") == tag:
			w.Header().Set("ETag", tag)
			w.WriteHeader(http.StatusNotModified)
		default:
			w.Header().Set("ETag", tag)
			io.WriteString(w, body)
		}
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	c := NewClientWithOptions(ts.URL, ClientOptions{
		HTTPClient: ts.Client(),
		Retry:      RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Nanosecond, MaxBackoff: time.Microsecond},
		Breaker:    BreakerPolicy{FailureThreshold: 2, Cooldown: time.Hour},
		Sleep:      func(time.Duration) {},
	})
	ctx := context.Background()
	q := url.Values{"sections": {SectionSessions}}

	p, v, err := c.Partials(ctx, q, "")
	if err != nil || p.Sessions != 7 || v != (Validation{Tag: tag, Bytes: int64(len(body))}) {
		t.Fatalf("first fetch: partials %+v, validation %+v, err %v", p, v, err)
	}
	// More 304s than the breaker's threshold: none may count as a failure.
	for i := 0; i < 5; i++ {
		before := calls.Load()
		p, v, err := c.Partials(ctx, q, tag)
		if err != nil || !v.NotModified || v.Tag != tag || v.Bytes != 0 || p.Sessions != 0 {
			t.Fatalf("revalidation %d: partials %+v, validation %+v, err %v", i, p, v, err)
		}
		if got := calls.Load() - before; got != 1 {
			t.Fatalf("revalidation %d took %d attempts, want 1", i, got)
		}
	}
	if mp, v, err := c.ModelPartials(ctx, ModelPartialsRequest{Sections: []string{ModelSectionTE}}); err != nil || mp.Sessions != 7 || v.Tag != tag {
		t.Fatalf("model phase: %+v, validation %+v, err %v", mp, v, err)
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("%d connections opened, want 1 reused throughout", got)
	}

	before := calls.Load()
	if _, err := c.Stats(ctx); err == nil || !strings.Contains(err.Error(), "status 304") {
		t.Fatalf("unsolicited 304: err = %v, want a status error", err)
	}
	if got := calls.Load() - before; got != 1 {
		t.Fatalf("unsolicited 304 took %d attempts, want 1", got)
	}
}

// TestClientPartialsTrustBoundary: a partials answer that names another
// protocol (or none), or carries a field the protocol lacks, fails the call
// on the first attempt — retrying would read the same answer — while one
// cut off mid-body is still retried as transient.
func TestClientPartialsTrustBoundary(t *testing.T) {
	next := strconv.Itoa(PartialsProtocol + 1)
	for _, tc := range []struct {
		name, proto, body string
		attempts          int64
		want              string
	}{
		{"other protocol", next, `{"sessions":7}`, 1, fmt.Sprintf(`protocol %q; this client speaks %d`, next, PartialsProtocol)},
		{"no protocol", "", `{"sessions":7}`, 1, `protocol ""`},
		{"unknown field", partialsProtocol, `{"sessions":7,"terms":[]}`, 1, `unknown field "terms"`},
		{"truncated", partialsProtocol, `{"sessions":7,"rated":[`, 3, "unexpected EOF"},
	} {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			if tc.proto != "" {
				w.Header().Set(PartialsProtocolHeader, tc.proto)
			}
			io.WriteString(w, tc.body)
		}))
		_, _, err := fastRetry(ts, 3).Partials(context.Background(), url.Values{"sections": {SectionSessions}}, "")
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), tc.want) || calls.Load() != tc.attempts {
			t.Errorf("%s: %d attempts, err %v; want %d naming %q", tc.name, calls.Load(), err, tc.attempts, tc.want)
		}
	}

	// The cap is the same kind of violation, shown here on a 4-byte one.
	_, err := io.ReadAll(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader("12345")), 4))
	if err == nil || !violatesPartials(fmt.Errorf("decoding: %w", err)) {
		t.Errorf("an answer over the cap: err %v, not a protocol violation", err)
	}
}

func TestClientStreamingBodyIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		io.Copy(io.Discard, r.Body)
		WriteError(w, http.StatusServiceUnavailable, "lost it")
	}))
	defer ts.Close()

	// An unreplayable reader (no GetBody): exactly one attempt.
	pr, pw := io.Pipe()
	go func() {
		fmt.Fprintln(pw, `{"call_id":1}`)
		pw.Close()
	}()
	if _, err := fastRetry(ts, 4).IngestSessionsNDJSON(context.Background(), pr); err == nil {
		t.Fatal("failing NDJSON ingest must error")
	}
	if calls.Load() != 1 {
		t.Fatalf("streaming body retried: %d attempts", calls.Load())
	}

	// A replayable reader (strings.Reader sets GetBody): retried.
	calls.Store(0)
	if _, err := fastRetry(ts, 3).IngestSessionsNDJSON(context.Background(), strings.NewReader(`{"call_id":1}`+"\n")); err == nil {
		t.Fatal("failing NDJSON ingest must error")
	}
	if calls.Load() != 3 {
		t.Fatalf("replayable NDJSON body: %d attempts, want 3", calls.Load())
	}
}

func TestIngestIdempotency(t *testing.T) {
	store := &Store{}
	srv := NewServer(store, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := noRetry(ts)
	ctx := context.Background()
	recs := []telemetry.SessionRecord{{CallID: 1}, {CallID: 2}, {CallID: 3}}

	first, err := client.IngestSessionsBatch(ctx, "upload-1", recs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Accepted != 3 || first.Duplicate || first.BatchID != "upload-1" {
		t.Fatalf("first delivery = %+v", first)
	}

	// The replayed delivery acknowledges without double-counting.
	second, err := client.IngestSessionsBatch(ctx, "upload-1", recs)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Duplicate || second.Accepted != 3 || second.TotalSessions != 3 {
		t.Fatalf("replay = %+v", second)
	}
	if sessions, _ := store.Counts(); sessions != 3 {
		t.Fatalf("store = %d sessions after replay, want 3", sessions)
	}

	// A different batch ID is new data.
	third, err := client.IngestSessionsBatch(ctx, "upload-2", recs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if third.Duplicate || third.TotalSessions != 4 {
		t.Fatalf("new batch = %+v", third)
	}

	// Auto-generated batch IDs differ call to call.
	a, err := client.IngestSessions(ctx, recs[:1])
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.IngestSessions(ctx, recs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if a.BatchID == "" || a.BatchID == b.BatchID {
		t.Fatalf("auto batch IDs: %q then %q", a.BatchID, b.BatchID)
	}
	if sessions, _ := store.Counts(); sessions != 6 {
		t.Fatalf("store = %d sessions, want 6", sessions)
	}
}

func TestPostsIngestIdempotency(t *testing.T) {
	store := &Store{}
	srv := NewServer(store, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := noRetry(ts)
	ctx := context.Background()

	c, _, _ := studyCorpus(t)
	posts := c.Posts[:8]
	if _, err := client.IngestPostsBatch(ctx, "p-1", posts); err != nil {
		t.Fatal(err)
	}
	resp, err := client.IngestPostsBatch(ctx, "p-1", posts)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Duplicate {
		t.Fatalf("replay = %+v", resp)
	}
	if _, got := store.Counts(); got != 8 {
		t.Fatalf("posts = %d after replay, want 8", got)
	}
	if store.Corpus().Len() != 8 {
		t.Fatalf("corpus len = %d", store.Corpus().Len())
	}
}

func TestServerInflightLimit(t *testing.T) {
	release := make(chan struct{})
	var parked atomic.Int64
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parked.Add(1)
		<-release
		WriteJSON(w, http.StatusOK, StatsResponse{})
	})
	ts := httptest.NewServer(inflightLimiter(slow, 2))
	defer ts.Close()

	// Fill both slots.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := ts.Client().Get(ts.URL)
			if err == nil {
				resp.Body.Close()
			}
			errs <- err
		}()
	}
	// Wait until both are provably parked inside the handler, then probe.
	deadline := time.Now().Add(5 * time.Second)
	for parked.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("slot-filling requests never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed request missing Retry-After")
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerRequestTimeout(t *testing.T) {
	slow := &Server{store: &Store{}, opts: ServerOptions{RequestTimeout: 50 * time.Millisecond}, mux: http.NewServeMux()}
	slow.mux.HandleFunc("/hang", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})
	ts := httptest.NewServer(slow.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/hang")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("hung handler status = %d, want 503", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "timed out") {
		t.Fatalf("timeout body = %q", body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("timeout Retry-After = %q, want deterministic \"1\"", got)
	}
}

func TestDegradedReport(t *testing.T) {
	// Sessions only, no posts: the report must still carry the implicit
	// side, flag the explicit side as degraded, and never 500.
	store := &Store{}
	store.AddSessions(mixDataset(t)[:200])
	srv := NewServer(store, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := noRetry(ts).Report(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 200 {
		t.Fatalf("sessions = %d", rep.Sessions)
	}
	if !rep.Degraded || len(rep.Errors) == 0 {
		t.Fatalf("report with no posts should be degraded: %+v", rep)
	}
	found := false
	for _, e := range rep.Errors {
		if strings.Contains(e, "posts: none ingested") {
			found = true
		}
	}
	if !found {
		t.Fatalf("degradation reasons = %v", rep.Errors)
	}
	// The text rendering surfaces the degradation too.
	if !strings.Contains(BuildReport(store, nil, ServerOptions{}).Render(), "DEGRADED") {
		t.Fatal("text report hides degradation")
	}

	// Empty store: both sides degraded, still 200.
	empty := NewServer(nil, ServerOptions{})
	ets := httptest.NewServer(empty.Handler())
	defer ets.Close()
	rep, err = noRetry(ets).Report(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || len(rep.Errors) < 2 {
		t.Fatalf("empty-store report = %+v", rep)
	}
}
