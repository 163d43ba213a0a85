package cluster

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"usersignals/internal/leo"
	"usersignals/internal/newswire"
	"usersignals/internal/stats"
	"usersignals/internal/usaas"
)

// Options configures a Coordinator.
type Options struct {
	// Token is required from callers and forwarded to shards.
	Token string
	// HTTPClient overrides the transport used for shard fan-out.
	HTTPClient *http.Client
	// Model and News feed the coordinator-side annotation stages (speed
	// launch annotations, peak news search, deployment advice).
	Model *leo.Model
	News  *newswire.Index
	// Retry and Breaker tune the per-shard clients; zero values use the
	// usaas client defaults.
	Retry   usaas.RetryPolicy
	Breaker usaas.BreakerPolicy
	// MaxBodyBytes caps ingest request bodies (default 64 MiB).
	MaxBodyBytes int64
	// ResultCacheSize mirrors usaas.ServerOptions.ResultCacheSize: it caps
	// the rendered-response cache and, per shard, the decoded partials held
	// for revalidation (held.go). 0 means the default of 256 entries,
	// negative disables both.
	ResultCacheSize int
}

// shardConn is one shard's client, what the coordinator holds of its state,
// and its fan-out gauges.
type shardConn struct {
	name   string
	client *usaas.Client
	held   *held // nil when the coordinator caches are off or the shard is replicated

	up      atomic.Bool
	fanouts atomic.Uint64
	errs    atomic.Uint64
	// Partials exchanges: answered 304, answered with a body, answered with
	// a delta, body bytes.
	revalidated, fetched, deltas, bytes atomic.Uint64

	mu  sync.Mutex
	lat *stats.GeoHist // fan-out latency, ms
}

// newLatencyHist is the fan-out latency histogram: 17 buckets doubling from
// 0.125 ms to 8.2 s, so a sub-millisecond revalidation, a 70 ms fetch and a
// multi-second stall each land in a bucket of their own.
func newLatencyHist() *stats.GeoHist { return stats.NewGeoHist(0.125, 2, 17) }

// call runs one fan-out RPC and records it against the shard's gauges.
func (sc *shardConn) call(rpc func() error) error {
	start := time.Now()
	err := rpc()
	sc.fanouts.Add(1)
	sc.up.Store(err == nil)
	if err != nil {
		sc.errs.Add(1)
	}
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	sc.mu.Lock()
	sc.lat.Add(ms)
	sc.mu.Unlock()
	return err
}

// count records one answered partials exchange.
func (sc *shardConn) count(v usaas.Validation) {
	if v.NotModified {
		sc.revalidated.Add(1)
	} else {
		sc.fetched.Add(1)
	}
	sc.bytes.Add(uint64(v.Bytes))
}

// Coordinator is the scatter-gather query front end: it owns no store,
// routes ingest by the partition map, and serves the read endpoints through
// usaas's read plans over its shards — a PartialsSource whose parts are the
// shards' /v1/partials — so its answers are byte-identical to a single node
// holding all the data.
type Coordinator struct {
	pmap   Map
	opts   Options
	shards []*shardConn
	mux    *http.ServeMux
	cache  *usaas.ResultCache // rendered answers by tag vector; nil when off
	reads  *usaas.ReadPath

	degraded atomic.Uint64 // shard failures met by a gather, a model phase, ingest or stats
}

// New builds a coordinator over the partition map.
func New(m Map, opts Options) *Coordinator {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	size := opts.ResultCacheSize
	if size == 0 {
		size = usaas.DefaultResultCacheSize
	}
	c := &Coordinator{pmap: m, opts: opts, mux: http.NewServeMux(), cache: usaas.NewResultCache(size)}
	for _, sh := range m.Shards {
		sc := &shardConn{
			name: sh.Name,
			client: usaas.NewClientWithOptions("", usaas.ClientOptions{
				HTTPClient: opts.HTTPClient,
				Endpoints:  sh.Endpoints,
				Token:      opts.Token,
				Retry:      opts.Retry,
				Breaker:    opts.Breaker,
			}),
			lat: newLatencyHist(),
		}
		// A replicated shard's reads rotate over processes whose tags never
		// match, so holding one's partials would only add refetches: it is
		// asked plainly, at the uncached cost.
		if c.cache != nil && len(sh.Endpoints) == 1 {
			sc.held = newHeld(size)
		}
		c.shards = append(c.shards, sc)
	}
	c.mux.HandleFunc("/v1/sessions", c.handleSessions)
	c.mux.HandleFunc("/v1/posts", c.handlePosts)
	c.mux.HandleFunc("/v1/stats", c.handleStats)
	c.reads = usaas.NewReadPath(c, c.cache, opts.News, opts.Model)
	c.reads.Mount(c.mux)
	c.mux.HandleFunc("/v1/healthz", c.handleHealthz)
	c.mux.HandleFunc("/v1/readyz", c.handleReadyz)
	return c
}

// Handler returns the coordinator's HTTP handler, behind a node's bearer
// auth when a token is configured.
func (c *Coordinator) Handler() http.Handler {
	if c.opts.Token == "" {
		return c.mux
	}
	return usaas.BearerAuth(c.mux, c.opts.Token)
}

// --- fan-out plumbing ---

// shardErr is one shard's fan-out failure.
type shardErr struct {
	name string
	err  error
}

func (e shardErr) String() string { return fmt.Sprintf("shard %s unavailable: %v", e.name, e.err) }

// each runs f against every shard concurrently and returns the failures
// sorted by shard name (stable degradation annotations). f records its RPCs
// against the shard's gauges through shardConn.call.
func (c *Coordinator) each(f func(i int, sc *shardConn) error) []shardErr {
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sc := range c.shards {
		wg.Add(1)
		go func(i int, sc *shardConn) {
			defer wg.Done()
			errs[i] = f(i, sc)
		}(i, sc)
	}
	wg.Wait()
	var out []shardErr
	for i, err := range errs {
		if err != nil {
			out = append(out, shardErr{name: c.shards[i].name, err: err})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Tag is empty: a coordinator learns its shards' state only by
// revalidating them, so the read path gathers first (usaas.PartialsSource).
func (c *Coordinator) Tag() string { return "" }

// Gather brings every shard's bundle of the sections up to date — one
// conditional request per shard (held.go) — and names each shard that
// failed. Gen is the vector of the shards' tags, or "" when some shard gave
// none (failed, or predates tags) and nothing may be replayed.
func (c *Coordinator) Gather(ctx context.Context, sections []usaas.Section) *usaas.Gathered {
	g := &usaas.Gathered{Bundles: make([]*usaas.ShardPartials, len(c.shards))}
	tags := make([]string, len(c.shards))
	errs := c.each(func(i int, sc *shardConn) (err error) {
		g.Bundles[i], tags[i], err = sc.partials(ctx, sections)
		return err
	})
	c.degraded.Add(uint64(len(errs)))
	for _, e := range errs {
		g.Failed = append(g.Failed, e.String())
	}
	if !slices.Contains(tags, "") {
		g.Gen = strings.Join(tags, " ")
	}
	g.ModelPhase = func(req usaas.ModelPartialsRequest) ([]usaas.ModelPartials, bool, error) {
		return c.modelPhase(ctx, tags, req)
	}
	return g
}

// modelPhase runs the model phase on every shard, answering from held results
// where the shard is still at its phase-one tag; consistent is false when a
// shard answered under another tag (a write landed between the phases, or
// the other replica answered).
func (c *Coordinator) modelPhase(ctx context.Context, tags []string, req usaas.ModelPartialsRequest) ([]usaas.ModelPartials, bool, error) {
	key := modelKey(req)
	out := make([]usaas.ModelPartials, len(c.shards))
	var moved atomic.Bool
	errs := c.each(func(i int, sc *shardConn) error {
		mp, same, err := sc.modelPartials(ctx, tags[i], key, req)
		if !same {
			moved.Store(true)
		}
		out[i] = mp
		return err
	})
	if len(errs) > 0 {
		c.degraded.Add(uint64(len(errs)))
		return nil, false, fmt.Errorf("%s", errs[0])
	}
	return out, !moved.Load(), nil
}

// refuse writes a scatter failure as an explicit 503 naming the shard — the
// degradation contract for ingest and stats. Never a silently partial
// answer.
func (c *Coordinator) refuse(w http.ResponseWriter, errs []shardErr) bool {
	if len(errs) == 0 {
		return false
	}
	c.degraded.Add(uint64(len(errs)))
	usaas.WriteError(w, http.StatusServiceUnavailable, "%s", errs[0])
	return true
}

// --- ingest ---

// handleSessions routes a session batch: records split by owning shard
// (ShardOf the record's start day), each slice ships under a derived
// sub-batch ID so retries stay idempotent per shard.
func (c *Coordinator) handleSessions(w http.ResponseWriter, r *http.Request) {
	if !usaas.RequireMethod(w, r, http.MethodPost) {
		return
	}
	recs, err := usaas.DecodeSessions(r, http.MaxBytesReader(w, r.Body, c.opts.MaxBodyBytes), nil)
	if err != nil {
		usaas.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	groups := c.pmap.SplitSessions(recs)
	batchID := r.Header.Get(usaas.BatchIDHeader)
	c.ingest(w, r.Context(), batchID, func(ctx context.Context, i int, sc *shardConn) (usaas.IngestResponse, error) {
		return sc.client.IngestSessionsBatch(ctx, c.pmap.SubBatchID(batchID, i), groups[i])
	})
}

// handlePosts routes a post batch by each post's day.
func (c *Coordinator) handlePosts(w http.ResponseWriter, r *http.Request) {
	if !usaas.RequireMethod(w, r, http.MethodPost) {
		return
	}
	posts, err := usaas.DecodePosts(r, http.MaxBytesReader(w, r.Body, c.opts.MaxBodyBytes), nil)
	if err != nil {
		usaas.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	groups := c.pmap.SplitPosts(posts)
	batchID := r.Header.Get(usaas.BatchIDHeader)
	c.ingest(w, r.Context(), batchID, func(ctx context.Context, i int, sc *shardConn) (usaas.IngestResponse, error) {
		return sc.client.IngestPostsBatch(ctx, c.pmap.SubBatchID(batchID, i), groups[i])
	})
}

// ingest fans the per-shard slices out — every shard gets its sub-batch,
// even an empty one, so each records the idempotency key — and answers the
// folded acknowledgement (foldAcks). A shard failure is an explicit 503; the
// derived sub-batch IDs make a client retry exact (already-applied slices
// deduplicate shard-side).
func (c *Coordinator) ingest(w http.ResponseWriter, ctx context.Context, batchID string, send func(ctx context.Context, i int, sc *shardConn) (usaas.IngestResponse, error)) {
	acks := make([]usaas.IngestResponse, len(c.shards))
	errs := c.each(func(i int, sc *shardConn) error {
		return sc.call(func() (err error) {
			acks[i], err = send(ctx, i, sc)
			return err
		})
	})
	if c.refuse(w, errs) {
		return
	}
	usaas.WriteJSON(w, http.StatusOK, foldAcks(batchID, acks))
}

// --- stats & health ---

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if !usaas.RequireMethod(w, r, http.MethodGet) {
		return
	}
	totals := make([]usaas.StatsResponse, len(c.shards))
	errs := c.each(func(i int, sc *shardConn) error {
		return sc.call(func() (err error) {
			totals[i], err = sc.client.Stats(r.Context())
			return err
		})
	})
	if c.refuse(w, errs) {
		return
	}
	resp := usaas.StatsResponse{Cluster: c.clusterStats()}
	for _, st := range totals {
		resp.Sessions += st.Sessions
		resp.Posts += st.Posts
	}
	usaas.WriteJSON(w, http.StatusOK, resp)
}

// clusterStats snapshots the coordinator gauges.
func (c *Coordinator) clusterStats() *usaas.ClusterStats {
	cs := &usaas.ClusterStats{
		MapVersion:       c.pmap.Version,
		PartialMerges:    c.reads.Merges(),
		DegradedSections: c.degraded.Load(),
	}
	if c.cache != nil {
		m := c.cache.Metrics()
		cs.Cache = &m
	}
	for _, sc := range c.shards {
		sc.mu.Lock()
		hist := sc.lat.Clone()
		sc.mu.Unlock()
		cs.Shards = append(cs.Shards, usaas.ShardStatus{
			Name:          sc.name,
			Up:            sc.up.Load(),
			Fanouts:       sc.fanouts.Load(),
			Errors:        sc.errs.Load(),
			Revalidated:   sc.revalidated.Load(),
			Fetched:       sc.fetched.Load(),
			Deltas:        sc.deltas.Load(),
			PartialsBytes: sc.bytes.Load(),
			LatencyMs:     hist,
		})
	}
	return cs
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !usaas.RequireMethod(w, r, http.MethodGet) {
		return
	}
	usaas.WriteJSON(w, http.StatusOK, usaas.HealthResponse{Status: "ok"})
}

// handleReadyz reports ready only when every shard is ready: a coordinator
// that cannot reach its full fleet would serve refusals, and a load
// balancer should know before routing to it.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !usaas.RequireMethod(w, r, http.MethodGet) {
		return
	}
	errs := c.each(func(i int, sc *shardConn) error {
		return sc.call(func() error { return sc.client.Ready(r.Context()) })
	})
	if len(errs) > 0 {
		usaas.WriteJSON(w, http.StatusServiceUnavailable, usaas.HealthResponse{Status: "not ready", Error: errs[0].String()})
		return
	}
	usaas.WriteJSON(w, http.StatusOK, usaas.HealthResponse{Status: "ready"})
}
