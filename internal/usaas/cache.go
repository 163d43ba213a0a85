package usaas

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The result cache memoizes fully-rendered GET responses keyed by the query
// (path + raw query string) and a generation string naming the state they
// were rendered from. A single node's generation is its state tag (partials
// protocol, boot nonce, store generations); a cluster coordinator's is the
// vector of shard tags it merged. A write moves the generation, which
// retires every cached entry at once — a cached body is therefore always
// byte-identical to recomputing against the current state. Concurrent
// identical queries collapse into one computation (singleflight): one leader
// renders, followers replay its recorded response.
//
// The same tag is the HTTP validator: every cached GET carries it as a
// strong ETag, and If-None-Match equal to the current tag answers 304
// before any lookup or render. The coordinator revalidates the decoded
// shard partials it holds that way (internal/cluster).

// CacheMetrics counts result-cache activity.
type CacheMetrics struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Collapsed uint64 `json:"collapsed"` // follower requests served by a leader's flight
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// cacheEntry is one recorded response.
type cacheEntry struct {
	status int
	header http.Header
	body   []byte
}

// flightCall tracks one in-flight computation; followers wait on done.
type flightCall struct {
	done  chan struct{}
	entry *cacheEntry // nil if the leader's response was not cacheable
}

// ResultCache is a generation-scoped memo of rendered responses with
// singleflight collapsing. Keys embed the generation, so entries written by
// a flight that straddled an ingest land under a dead key instead of
// poisoning the fresh generation. A nil *ResultCache is the disabled cache:
// Serve renders every request.
type ResultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry
	flights map[string]*flightCall
	order   []string // FIFO eviction order
	gen     string   // generation prefix of the entries currently held

	hits, misses, collapsed, evictions uint64
}

// DefaultResultCacheSize is the entry cap a zero ResultCacheSize selects.
const DefaultResultCacheSize = 256

// NewResultCache builds a cache of at most size entries (FIFO): 0 means
// DefaultResultCacheSize, negative disables caching (nil).
func NewResultCache(size int) *ResultCache {
	if size < 0 {
		return nil
	}
	if size == 0 {
		size = DefaultResultCacheSize
	}
	return &ResultCache{
		max:     size,
		entries: map[string]*cacheEntry{},
		flights: map[string]*flightCall{},
	}
}

// lookup returns a cached entry, an existing flight to follow, or (when
// both are nil) leadership of a new flight for the key. A generation change
// purges all previous-generation entries.
func (c *ResultCache) lookup(gen, key string) (entry *cacheEntry, follow *flightCall) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		c.gen = gen
		c.entries = map[string]*cacheEntry{}
		c.order = c.order[:0]
	}
	if e, ok := c.entries[key]; ok {
		c.hits++
		return e, nil
	}
	if f, ok := c.flights[key]; ok {
		c.collapsed++
		return nil, f
	}
	c.misses++
	f := &flightCall{done: make(chan struct{})}
	c.flights[key] = f
	return nil, nil
}

// complete finishes the leader's flight, storing the entry (when cacheable
// and the generation is still current) and waking followers.
func (c *ResultCache) complete(gen, key string, entry *cacheEntry) {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		delete(c.flights, key)
		f.entry = entry
		defer close(f.done)
	}
	if entry != nil && c.gen == gen {
		if _, exists := c.entries[key]; !exists {
			for len(c.order) >= c.max {
				oldest := c.order[0]
				c.order = c.order[1:]
				delete(c.entries, oldest)
				c.evictions++
			}
			c.entries[key] = entry
			c.order = append(c.order, key)
		}
	}
	c.mu.Unlock()
}

// inflight reports the number of open flights (test hook).
func (c *ResultCache) inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flights)
}

// Metrics reports the cache's counters (zero value when disabled).
func (c *ResultCache) Metrics() CacheMetrics {
	if c == nil {
		return CacheMetrics{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheMetrics{
		Hits: c.hits, Misses: c.misses, Collapsed: c.collapsed,
		Evictions: c.evictions, Entries: len(c.entries),
	}
}

// responseRecorder captures a handler's response for caching while
// streaming nothing: the recorded copy is replayed to the caller.
type responseRecorder struct {
	status int
	header http.Header
	body   []byte
}

func newResponseRecorder() *responseRecorder {
	return &responseRecorder{status: http.StatusOK, header: http.Header{}}
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) WriteHeader(status int) { r.status = status }

func (r *responseRecorder) Write(b []byte) (int, error) {
	r.body = append(r.body, b...)
	return len(b), nil
}

// replay writes a recorded response to a real writer.
func replayEntry(w http.ResponseWriter, e *cacheEntry) {
	for k, vs := range e.header {
		w.Header()[k] = vs
	}
	w.WriteHeader(e.status)
	_, _ = w.Write(e.body)
}

// Serve answers a GET whose state generation is gen: a hit replays the
// recorded bytes, a request identical to one in flight waits for it, and
// otherwise render runs into a recorder whose response is stored when render
// reports it storable and the status is below 500 (transient failures must
// not stick until the next ingest).
func (c *ResultCache) Serve(w http.ResponseWriter, r *http.Request, gen string, render func(http.ResponseWriter) (storable bool)) {
	if c == nil {
		render(w)
		return
	}
	key := gen + "|" + r.URL.Path + "?" + r.URL.RawQuery
	entry, follow := c.lookup(gen, key)
	if entry != nil {
		replayEntry(w, entry)
		return
	}
	if follow != nil {
		select {
		case <-follow.done:
			if follow.entry != nil {
				replayEntry(w, follow.entry)
				return
			}
			// Leader's response was not cacheable; compute solo.
			render(w)
		case <-r.Context().Done():
			WriteError(w, http.StatusServiceUnavailable, "request canceled while waiting for identical query")
		}
		return
	}
	// Leader: render into a recorder, then publish and replay.
	rec := newResponseRecorder()
	var stored *cacheEntry
	defer func() { c.complete(gen, key, stored) }()
	storable := render(rec)
	entry = &cacheEntry{status: rec.status, header: rec.header, body: rec.body}
	if storable && rec.status < http.StatusInternalServerError {
		stored = entry
	}
	replayEntry(w, entry)
}

// newBootNonce draws the per-server half of the state tag. Generation
// counters restart at recovery and differ between a leader and its follower,
// so a tag built from them alone could validate bytes another process
// rendered; the nonce makes every such case a mismatch.
func newBootNonce() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(buf[:])
}

// stateTag is the strong ETag of the store state,
// "<protocol>.<nonce>.<sessGen>.<postGen>": the partials protocol, the boot
// nonce, and the session and post generations read through the apply fence
// so an acked write is never hidden. Callers read it before the content it
// stamps, so content is never older than its tag.
func (s *Server) stateTag() string {
	sessGen, postGen := s.store.Generations()
	return `"` + partialsProtocol + "." + s.boot + "." + strconv.FormatUint(sessGen, 10) + "." + strconv.FormatUint(postGen, 10) + `"`
}

// serveTagged answers a GET for content read at or after tag: the tag is the
// strong ETag, If-None-Match equal to it answers a bodiless 304 before any
// lookup or render, and otherwise Serve runs with tag as the generation.
func (c *ResultCache) serveTagged(w http.ResponseWriter, r *http.Request, tag string, render func(http.ResponseWriter) (storable bool)) {
	w.Header().Set("ETag", tag)
	if r.Header.Get("If-None-Match") == tag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	c.Serve(w, r, tag, render)
}

// cached wraps a GET handler with the state tag and the tag-keyed result
// cache (serveTagged).
func (s *Server) cached(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			next(w, r)
			return
		}
		s.cache.serveTagged(w, r, s.stateTag(), func(w http.ResponseWriter) bool {
			next(w, r)
			return true
		})
	}
}

// CacheMetrics reports result-cache counters (zero value when the cache is
// disabled).
func (s *Server) CacheMetrics() CacheMetrics { return s.cache.Metrics() }
