package usaas

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"usersignals/internal/telemetry"
)

// fetchBody GETs a URL and returns the body (shared by the view equivalence
// tests).
func fetchBody(t *testing.T, ctx context.Context, url string) string {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// cacheTestServer builds a server over a small ingested store.
func cacheTestServer(t *testing.T, opts ServerOptions) (*Server, *httptest.Server, []telemetry.SessionRecord) {
	t.Helper()
	recs := mixDataset(t)
	srv := NewServer(nil, opts)
	srv.store.AddSessions(recs)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, recs
}

// TestCacheGenerationInvalidation: a repeated query hits the cache; an
// ingest bumps the generation, so the same query misses and reflects the new
// data.
func TestCacheGenerationInvalidation(t *testing.T) {
	srv, ts, recs := cacheTestServer(t, ServerOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	url := ts.URL + "/v1/insights/engagement?metric=latency-mean-ms&engagement=presence&lo=0&hi=300&bins=8"

	cold := fetchBody(t, ctx, url)
	warm := fetchBody(t, ctx, url)
	if cold != warm {
		t.Fatal("warm response differs from cold")
	}
	m := srv.CacheMetrics()
	if m.Misses != 1 || m.Hits != 1 {
		t.Fatalf("metrics after warm read = %+v, want 1 miss + 1 hit", m)
	}

	// Ingest more sessions: the generation moves and the cache must not
	// serve the stale body.
	srv.store.AddSessions(recs[:100])
	fresh := fetchBody(t, ctx, url)
	if fresh == cold {
		t.Fatal("response unchanged after ingest; cache served stale bytes")
	}
	m = srv.CacheMetrics()
	if m.Misses != 2 {
		t.Fatalf("metrics after invalidation = %+v, want 2 misses", m)
	}
	// The fresh body itself is now cached again.
	if again := fetchBody(t, ctx, url); again != fresh {
		t.Fatal("post-ingest warm response differs")
	}
}

// TestCacheSingleflightCollapse: concurrent identical queries produce one
// computation; followers wait and replay the leader's bytes.
func TestCacheSingleflightCollapse(t *testing.T) {
	srv := NewServer(nil, ServerOptions{})
	var computations atomic.Int64
	release := make(chan struct{})
	handler := srv.cached(func(w http.ResponseWriter, r *http.Request) {
		n := computations.Add(1) // leader-only: one flight per key
		<-release
		WriteJSON(w, http.StatusOK, map[string]int64{"n": n})
	})

	ts := httptest.NewServer(handler)
	defer ts.Close()

	const followers = 8
	bodies := make([]string, followers)
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i] = fetchBody(t, ctx, ts.URL+"/v1/x?q=1")
		}(i)
	}
	// Wait until the leader's flight is registered and followers queue up,
	// then let the leader finish.
	deadline := time.Now().Add(30 * time.Second)
	for srv.cache.inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no flight registered")
		}
		time.Sleep(time.Millisecond)
	}
	for srv.CacheMetrics().Collapsed < followers-1 {
		if time.Now().After(deadline) {
			break // some followers may have raced ahead to cache hits
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computations.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
	for i := 1; i < followers; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("follower %d got different bytes", i)
		}
	}
	m := srv.CacheMetrics()
	if m.Misses != 1 {
		t.Fatalf("metrics = %+v, want exactly 1 miss", m)
	}
	if m.Collapsed+m.Hits != followers-1 {
		t.Fatalf("metrics = %+v, want %d collapsed+hits", m, followers-1)
	}
	if srv.cache.inflight() != 0 {
		t.Fatal("flight leaked")
	}
}

// TestCacheDisabled: a negative ResultCacheSize turns caching off entirely.
func TestCacheDisabled(t *testing.T) {
	srv, ts, _ := cacheTestServer(t, ServerOptions{ResultCacheSize: -1})
	if srv.cache != nil {
		t.Fatal("cache built despite ResultCacheSize < 0")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	url := ts.URL + "/v1/insights/mos"
	a := fetchBody(t, ctx, url)
	b := fetchBody(t, ctx, url)
	if a != b {
		t.Fatal("uncached responses diverge")
	}
	if m := srv.CacheMetrics(); m != (CacheMetrics{}) {
		t.Fatalf("disabled cache reported metrics %+v", m)
	}
}

// TestCacheErrorResponsesNotCached: a 5xx body must not stick around until
// the next ingest.
func TestCacheErrorResponsesNotCached(t *testing.T) {
	srv := NewServer(nil, ServerOptions{})
	var fail atomic.Bool
	fail.Store(true)
	handler := srv.cached(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			WriteError(w, http.StatusInternalServerError, "transient")
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	first := fetchBody(t, ctx, ts.URL+"/v1/x")
	fail.Store(false)
	second := fetchBody(t, ctx, ts.URL+"/v1/x")
	if first == second {
		t.Fatal("500 response was cached")
	}
	// 404s (e.g. "no posts ingested") are cacheable: same generation, same
	// answer.
	third := fetchBody(t, ctx, ts.URL+"/v1/x")
	if third != second {
		t.Fatal("successful response was not cached")
	}
}

// TestCacheEviction: the FIFO cap holds and evictions are counted.
func TestCacheEviction(t *testing.T) {
	srv := NewServer(nil, ServerOptions{ResultCacheSize: 2})
	handler := srv.cached(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, r.URL.RawQuery)
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	for _, q := range []string{"a", "b", "c"} {
		fetchBody(t, ctx, ts.URL+"/v1/x?q="+q)
	}
	m := srv.CacheMetrics()
	if m.Entries != 2 || m.Evictions != 1 {
		t.Fatalf("metrics = %+v, want 2 entries and 1 eviction", m)
	}
	// Oldest key ("a") was evicted: re-fetching it misses again.
	fetchBody(t, ctx, ts.URL+"/v1/x?q=a")
	if m := srv.CacheMetrics(); m.Misses != 4 {
		t.Fatalf("metrics = %+v, want 4 misses", m)
	}
}

// TestCacheStateTagValidates: every cached GET carries the state tag as its
// ETag; If-None-Match equal to the current tag answers 304 before any
// lookup or render, an ingest moves the tag, the model phase stamps the same
// tag, and a second server over the very same store has a tag of its own —
// with the result cache on or off.
func TestCacheStateTagValidates(t *testing.T) {
	for _, size := range []int{0, -1} {
		srv, ts, recs := cacheTestServer(t, ServerOptions{ResultCacheSize: size})
		var renders atomic.Int64
		probe := httptest.NewServer(srv.cached(func(w http.ResponseWriter, r *http.Request) {
			renders.Add(1)
			WriteJSON(w, http.StatusOK, "rendered")
		}))
		defer probe.Close()
		fetch := func(url, ifNoneMatch string) (int, string, string) {
			t.Helper()
			req, err := http.NewRequest(http.MethodGet, url, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ifNoneMatch != "" {
				req.Header.Set("If-None-Match", ifNoneMatch)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, resp.Header.Get("ETag"), string(body)
		}

		status, tag, body := fetch(probe.URL+"/v1/x", "")
		if status != http.StatusOK || tag == "" || body == "" || renders.Load() != 1 {
			t.Fatalf("size %d: first GET: %d, tag %q, body %q, %d renders", size, status, tag, body, renders.Load())
		}
		before := srv.CacheMetrics()
		status, again, body := fetch(probe.URL+"/v1/x", tag)
		if status != http.StatusNotModified || again != tag || body != "" {
			t.Fatalf("size %d: revalidation: %d, tag %q, body %q; want a bodiless 304 under %q", size, status, again, body, tag)
		}
		if renders.Load() != 1 || srv.CacheMetrics() != before {
			t.Fatalf("size %d: a 304 rendered or touched the cache: %d renders, %+v → %+v", size, renders.Load(), before, srv.CacheMetrics())
		}

		// The real endpoints share the tag, the model phase included.
		_, partialsTag, _ := fetch(ts.URL+"/v1/partials?sections=daily", "")
		resp, err := http.Post(ts.URL+"/v1/partials/model", "application/json", strings.NewReader(`{"sections":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if partialsTag != tag || resp.Header.Get("ETag") != tag {
			t.Fatalf("size %d: tags %q (partials) and %q (model phase), want %q", size, partialsTag, resp.Header.Get("ETag"), tag)
		}

		// Another process over the same state: same counters, its own tag.
		other := httptest.NewServer(NewServer(srv.store, ServerOptions{ResultCacheSize: size}).Handler())
		defer other.Close()
		if status, otherTag, _ := fetch(other.URL+"/v1/partials?sections=daily", tag); status != http.StatusOK || otherTag == tag {
			t.Fatalf("size %d: a second server validated the first one's tag: %d under %q", size, status, otherTag)
		}

		// An ingest moves the tag: the old one no longer validates.
		srv.store.AddSessions(recs[:10])
		status, moved, body := fetch(probe.URL+"/v1/x", tag)
		if status != http.StatusOK || moved == tag || body == "" {
			t.Fatalf("size %d: after ingest: %d, tag %q (was %q), body %q", size, status, moved, tag, body)
		}

		// /v1/stats serves the cache counters exactly when the cache is on.
		_, _, statsBody := fetch(ts.URL+"/v1/stats", "")
		if on := strings.Contains(statsBody, `"cache":{"hits":`); on != (size >= 0) {
			t.Fatalf("size %d: /v1/stats = %s", size, statsBody)
		}
	}
}
