package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"usersignals/internal/leo"
	"usersignals/internal/newswire"
	"usersignals/internal/social"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
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
	// a social delta, body bytes.
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
// routes ingest by the partition map, fans queries to every shard's
// /v1/partials, and folds the returned accumulator state in canonical
// ascending-day order (usaas's exported Merge* functions), so its answers
// are byte-identical to a single node holding all the data.
type Coordinator struct {
	pmap   Map
	opts   Options
	shards []*shardConn
	mux    *http.ServeMux
	cache  *usaas.ResultCache // rendered answers by tag vector; nil when off

	merges   atomic.Uint64 // merges performed (a replayed answer does not merge)
	degraded atomic.Uint64 // degradation annotations + shard-failure refusals
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
	c.mux.HandleFunc("/v1/insights/engagement", c.serve(c.engagement))
	c.mux.HandleFunc("/v1/insights/mos", c.serve(c.mos))
	c.mux.HandleFunc("/v1/insights/sentiment", c.serve(c.sentiment))
	c.mux.HandleFunc("/v1/insights/peaks", c.serve(c.peaks))
	c.mux.HandleFunc("/v1/insights/outages", c.serve(c.outages))
	c.mux.HandleFunc("/v1/insights/speeds", c.serve(c.speeds))
	c.mux.HandleFunc("/v1/insights/trends", c.serve(c.trends))
	c.mux.HandleFunc("/v1/query/experience", c.serve(c.experience))
	c.mux.HandleFunc("/v1/insights/confounders", c.serve(c.confounders))
	c.mux.HandleFunc("/v1/advice/traffic-engineering", c.serve(c.teAdvice))
	c.mux.HandleFunc("/v1/advice/deployment", c.handleDeploymentAdvice)
	c.mux.HandleFunc("/v1/report", c.serve(c.report))
	c.mux.HandleFunc("/v1/insights/incidents", c.serve(c.incidents))
	c.mux.HandleFunc("/v1/healthz", c.handleHealthz)
	c.mux.HandleFunc("/v1/readyz", c.handleReadyz)
	return c
}

// Handler returns the coordinator's HTTP handler, wrapped with bearer auth
// when a token is configured (health endpoints bypass, like usaasd).
func (c *Coordinator) Handler() http.Handler {
	if c.opts.Token == "" {
		return c.mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" || r.URL.Path == "/v1/readyz" {
			c.mux.ServeHTTP(w, r)
			return
		}
		if r.Header.Get("Authorization") != "Bearer "+c.opts.Token {
			writeErr(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		c.mux.ServeHTTP(w, r)
	})
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

// query is a read endpoint after parameter parsing: the shard state it
// needs and how to render the answer from it.
type query struct {
	sections []section
	// degrades marks /v1/report: a shard failure becomes per-section notes
	// on a 200 instead of a 503.
	degrades bool
	render   func(w http.ResponseWriter, g *gathered)
}

// gathered is one query's view of the fleet: per shard, the bundle of the
// query's sections and the tag it is valid at (nil and "" for a shard that
// failed).
type gathered struct {
	c       *Coordinator
	ctx     context.Context
	bundles []*usaas.ShardPartials
	tags    []string
	errs    []shardErr
	// unstorable is set when the answer is not a pure function of the tags
	// in the cache key: a model phase failed, or answered under a tag other
	// than phase one's (a write landed between the phases, or the other
	// replica answered).
	unstorable atomic.Bool
}

// gather brings every shard's bundle for the sections up to date: one
// conditional request per shard (held.go).
func (c *Coordinator) gather(ctx context.Context, sections []section) *gathered {
	g := &gathered{c: c, ctx: ctx, bundles: make([]*usaas.ShardPartials, len(c.shards)), tags: make([]string, len(c.shards))}
	g.errs = c.each(func(i int, sc *shardConn) (err error) {
		g.bundles[i], g.tags[i], err = sc.partials(ctx, sections)
		return err
	})
	return g
}

// generation is the result-cache generation of the gathered state: the
// vector of shard tags, or "" when some shard gave none (failed, or predates
// tags) and nothing may be replayed.
func (g *gathered) generation() string {
	for _, tag := range g.tags {
		if tag == "" {
			return ""
		}
	}
	return strings.Join(g.tags, " ")
}

// modelPartials runs the model phase on every shard, answering from held
// results where the shard is still at the phase-one tag. Any failure fails
// the phase (a partial model-phase answer would silently change the merged
// number).
func (g *gathered) modelPartials(req usaas.ModelPartialsRequest) ([]usaas.ModelPartials, error) {
	key := modelKey(req)
	out := make([]usaas.ModelPartials, len(g.c.shards))
	errs := g.c.each(func(i int, sc *shardConn) error {
		mp, same, err := sc.modelPartials(g.ctx, g.tags[i], key, req)
		if err != nil || !same {
			g.unstorable.Store(true)
		}
		out[i] = mp
		return err
	})
	if len(errs) > 0 {
		g.c.degraded.Add(uint64(len(errs)))
		return nil, fmt.Errorf("%s", errs[0])
	}
	return out, nil
}

// tePartials is the traffic-engineering model phase.
func (g *gathered) tePartials(model stats.LinearModel) ([][]usaas.TEDayPartial, error) {
	mps, err := g.modelPartials(usaas.ModelPartialsRequest{Model: model, Sections: []string{usaas.ModelSectionTE}})
	if err != nil {
		return nil, err
	}
	parts := make([][]usaas.TEDayPartial, 0, len(mps))
	for _, mp := range mps {
		parts = append(parts, mp.TE)
	}
	return parts, nil
}

// rated merges the day-major rated subsequence and the cluster session
// count out of SectionSessions bundles.
func (g *gathered) rated() (rated []telemetry.SessionRecord, total int) {
	parts := make([][]telemetry.SessionRecord, 0, len(g.bundles))
	for _, b := range g.bundles {
		total += b.Sessions
		parts = append(parts, b.Rated)
	}
	return usaas.MergeRated(parts), total
}

// serve is the one read path: method check, parameters (plan answers a 4xx
// itself and returns nil), gather, refuse or degrade, then the result cache
// keyed by the tags actually gathered — a hit replays recorded bytes, a
// miss merges and renders. A shard that cannot be revalidated is never
// answered from cache: every endpoint but /v1/report refuses with a 503
// naming it, and the degraded report is rendered fresh and not stored.
func (c *Coordinator) serve(plan func(w http.ResponseWriter, r *http.Request) *query) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		q := plan(w, r)
		if q == nil {
			return
		}
		g := c.gather(r.Context(), q.sections)
		if q.degrades {
			c.degraded.Add(uint64(len(g.errs)))
		} else if c.refuse(w, g.errs) {
			return
		}
		cache, gen := c.cache, g.generation()
		if gen == "" {
			cache = nil
		}
		cache.Serve(w, r, gen, func(w http.ResponseWriter) bool {
			c.merges.Add(1)
			q.render(w, g)
			return !g.unstorable.Load()
		})
	}
}

// refuse writes the scatter failure as an explicit 503 naming the shard —
// the degradation contract for ingest and stats. Never a silently partial
// answer.
func (c *Coordinator) refuse(w http.ResponseWriter, errs []shardErr) bool {
	if len(errs) == 0 {
		return false
	}
	c.degraded.Add(uint64(len(errs)))
	writeErr(w, http.StatusServiceUnavailable, "%s", errs[0])
	return true
}

// --- response plumbing (mirrors the usaas service's wire helpers) ---

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	return false
}

// queryForm mirrors the usaas service's lenient numeric query parsing,
// including its error strings.
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

func (f *queryForm) reject(w http.ResponseWriter) bool {
	if f.err == nil {
		return false
	}
	writeErr(w, http.StatusBadRequest, "%v", f.err)
	return true
}

// --- ingest ---

// handleSessions routes a session batch: records split by owning shard
// (ShardOf the record's start day), each slice ships under a derived
// sub-batch ID so retries stay idempotent per shard.
func (c *Coordinator) handleSessions(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	body := http.MaxBytesReader(w, r.Body, c.opts.MaxBodyBytes)
	var recs []telemetry.SessionRecord
	ct := r.Header.Get("Content-Type")
	if strings.Contains(ct, "ndjson") {
		if err := telemetry.ReadJSONL(body, func(rec *telemetry.SessionRecord) error {
			recs = append(recs, *rec)
			return nil
		}); err != nil {
			writeErr(w, http.StatusBadRequest, "decoding sessions: %v", err)
			return
		}
	} else if err := json.NewDecoder(body).Decode(&recs); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding sessions: %v", err)
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
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	body := http.MaxBytesReader(w, r.Body, c.opts.MaxBodyBytes)
	var posts []social.Post
	if err := json.NewDecoder(body).Decode(&posts); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding posts: %v", err)
		return
	}
	groups := c.pmap.SplitPosts(posts)
	batchID := r.Header.Get(usaas.BatchIDHeader)
	c.ingest(w, r.Context(), batchID, func(ctx context.Context, i int, sc *shardConn) (usaas.IngestResponse, error) {
		return sc.client.IngestPostsBatch(ctx, c.pmap.SubBatchID(batchID, i), groups[i])
	})
}

// ingest fans the per-shard slices out — every shard gets its sub-batch,
// even an empty one, so each records the idempotency key — and aggregates
// the acknowledgement: Accepted and the totals sum the shards' responses,
// Duplicate is set only when every shard deduplicated. Because a shard
// replays its original acknowledgement, the sums reproduce the single-node
// ack exactly, replays included. A shard failure is an explicit 503; the
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
	out := usaas.IngestResponse{BatchID: batchID, Duplicate: true}
	for _, a := range acks {
		out.Accepted += a.Accepted
		out.TotalSessions += a.TotalSessions
		out.TotalPosts += a.TotalPosts
		if !a.Duplicate {
			out.Duplicate = false
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// --- stats & health ---

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
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
	writeJSON(w, http.StatusOK, resp)
}

// clusterStats snapshots the coordinator gauges.
func (c *Coordinator) clusterStats() *usaas.ClusterStats {
	cs := &usaas.ClusterStats{
		MapVersion:       c.pmap.Version,
		PartialMerges:    c.merges.Load(),
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
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, usaas.HealthResponse{Status: "ok"})
}

// handleReadyz reports ready only when every shard is ready: a coordinator
// that cannot reach its full fleet would serve refusals, and a load
// balancer should know before routing to it.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	errs := c.each(func(i int, sc *shardConn) error {
		return sc.call(func() error { return sc.client.Ready(r.Context()) })
	})
	if len(errs) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, usaas.HealthResponse{Status: "not ready", Error: errs[0].String()})
		return
	}
	writeJSON(w, http.StatusOK, usaas.HealthResponse{Status: "ready"})
}

// --- scatter-gather queries ---

func (c *Coordinator) engagement(w http.ResponseWriter, r *http.Request) *query {
	metric, err := telemetry.ParseMetric(r.URL.Query().Get("metric"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	eng, err := telemetry.ParseEngagement(r.URL.Query().Get("engagement"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	f := formOf(r)
	lo := f.float("lo", 0)
	hi := f.float("hi", 300)
	bins := f.int("bins", 10)
	if f.reject(w) {
		return nil
	}
	if hi <= lo || bins < 1 || bins > 1000 {
		writeErr(w, http.StatusBadRequest, "invalid binning lo=%v hi=%v bins=%d", lo, hi, bins)
		return nil
	}
	params := url.Values{
		"metric": {metric.String()}, "engagement": {eng.String()},
		"lo": {fmt.Sprint(lo)}, "hi": {fmt.Sprint(hi)}, "bins": {fmt.Sprint(bins)},
	}
	if isp := r.URL.Query().Get("isp"); isp != "" {
		params.Set("isp", isp)
	}
	return &query{sections: []section{{usaas.SectionDose, params}}, render: func(w http.ResponseWriter, g *gathered) {
		parts := make([][]usaas.DoseDayPartial, 0, len(g.bundles))
		for _, b := range g.bundles {
			parts = append(parts, b.Dose)
		}
		series, err := usaas.MergeDosePartials(stats.Binner{Lo: lo, Hi: hi, NBins: bins}, parts)
		if err != nil {
			writeErr(w, http.StatusBadGateway, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, usaas.EngagementFromSeries(metric, eng, series))
	}}
}

func (c *Coordinator) mos(w http.ResponseWriter, r *http.Request) *query {
	f := formOf(r)
	bins := f.int("bins", 10)
	if f.reject(w) {
		return nil
	}
	return &query{sections: []section{{name: usaas.SectionSessions}}, render: func(w http.ResponseWriter, g *gathered) {
		rated, total := g.rated()
		resp, err := usaas.MOSFromRated(rated, total, bins)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}}
}

// socialParts is the post-side accumulator state of the shards that hold
// posts, one slice per kind.
type socialParts struct {
	window timeline.Range
	sent   [][]usaas.DaySentiment
	kw     [][]usaas.DayKeywords
	clouds [][]usaas.DayCloud
	terms  [][]usaas.TermPartial
	speeds [][]usaas.SpeedMonthPartial
}

// socialQuery builds the query of an endpoint over one post section. render runs
// only when some shard holds posts; otherwise the answer is the single
// node's "no posts ingested" 404.
func socialQuery(name string, render func(w http.ResponseWriter, p socialParts)) *query {
	return &query{sections: []section{{name: name}}, render: func(w http.ResponseWriter, g *gathered) {
		var p socialParts
		var have bool
		if p.window, have = usaas.SocialWindow(g.bundles); !have {
			writeErr(w, http.StatusNotFound, "no posts ingested")
			return
		}
		for _, b := range g.bundles {
			if !b.HavePosts {
				continue
			}
			rows := b.SocialRows()
			p.sent = append(p.sent, rows.Sentiment)
			p.kw = append(p.kw, rows.Keywords)
			p.clouds = append(p.clouds, rows.Clouds)
			p.terms = append(p.terms, rows.Terms)
			p.speeds = append(p.speeds, b.Speeds)
		}
		render(w, p)
	}}
}

func (c *Coordinator) sentiment(http.ResponseWriter, *http.Request) *query {
	return socialQuery(usaas.SectionSocial, func(w http.ResponseWriter, p socialParts) {
		writeJSON(w, http.StatusOK, usaas.MergeSentiment(p.window, p.sent))
	})
}

func (c *Coordinator) peaks(w http.ResponseWriter, r *http.Request) *query {
	f := formOf(r)
	k := f.int("k", 3)
	if f.reject(w) {
		return nil
	}
	if k < 1 || k > 50 {
		writeErr(w, http.StatusBadRequest, "k out of range")
		return nil
	}
	return socialQuery(usaas.SectionSocial, func(w http.ResponseWriter, p socialParts) {
		daily := usaas.MergeSentiment(p.window, p.sent)
		writeJSON(w, http.StatusOK, usaas.MergePeaks(daily, usaas.MergeClouds(p.clouds), c.opts.News, k))
	})
}

func (c *Coordinator) outages(w http.ResponseWriter, r *http.Request) *query {
	f := formOf(r)
	threshold := f.int("threshold", 0)
	if f.reject(w) {
		return nil
	}
	return socialQuery(usaas.SectionSocial, func(w http.ResponseWriter, p socialParts) {
		series := usaas.MergeKeywords(p.window, p.kw)
		if threshold > 0 {
			writeJSON(w, http.StatusOK, usaas.AlertsFromSeries(series, threshold))
			return
		}
		writeJSON(w, http.StatusOK, series)
	})
}

func (c *Coordinator) speeds(http.ResponseWriter, *http.Request) *query {
	return socialQuery(usaas.SectionSpeeds, func(w http.ResponseWriter, p socialParts) {
		writeJSON(w, http.StatusOK, usaas.MergeSpeeds(p.window, p.speeds, c.opts.Model, 1))
	})
}

func (c *Coordinator) trends(http.ResponseWriter, *http.Request) *query {
	return socialQuery(usaas.SectionSocial, func(w http.ResponseWriter, p socialParts) {
		writeJSON(w, http.StatusOK, usaas.MergeTrends(p.window, p.terms, usaas.TrendOptions{}))
	})
}

func (c *Coordinator) experience(w http.ResponseWriter, r *http.Request) *query {
	isp := r.URL.Query().Get("isp")
	if isp == "" {
		writeErr(w, http.StatusBadRequest, "isp parameter required")
		return nil
	}
	sections := []section{{name: usaas.SectionSessions}, {usaas.SectionExperience, url.Values{"isp": {isp}}}}
	return &query{sections: sections, render: func(w http.ResponseWriter, g *gathered) {
		var expParts []*usaas.ExperiencePartial
		expSessions := 0
		for _, b := range g.bundles {
			expParts = append(expParts, b.Experience)
			if b.Experience != nil {
				expSessions += b.Experience.Sessions
			}
		}
		if expSessions == 0 {
			writeErr(w, http.StatusNotFound, "no sessions for isp %q", isp)
			return
		}
		var predicted [][]usaas.DayOnlinePartial
		rated, _ := g.rated()
		if p, err := usaas.TrainMOSPredictor(rated, 1.0); err == nil {
			mps, err := g.modelPartials(usaas.ModelPartialsRequest{
				Model:    *p.Model(),
				ISP:      isp,
				Sections: []string{usaas.ModelSectionExperience},
			})
			if err != nil {
				writeErr(w, http.StatusServiceUnavailable, "%v", err)
				return
			}
			for _, mp := range mps {
				predicted = append(predicted, mp.Predicted)
			}
		}
		writeJSON(w, http.StatusOK, usaas.MergeExperience(isp, expParts, predicted))
	}}
}

func (c *Coordinator) confounders(w http.ResponseWriter, r *http.Request) *query {
	eng, err := telemetry.ParseEngagement(r.URL.Query().Get("engagement"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	sections := []section{{usaas.SectionConfounders, url.Values{"engagement": {eng.String()}}}}
	return &query{sections: sections, render: func(w http.ResponseWriter, g *gathered) {
		parts := make([][]usaas.ConfounderDayPartial, 0, len(g.bundles))
		for _, b := range g.bundles {
			parts = append(parts, b.Confounders)
		}
		effects, err := usaas.MergeConfounders(parts)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, effects)
	}}
}

func (c *Coordinator) teAdvice(http.ResponseWriter, *http.Request) *query {
	return &query{sections: []section{{name: usaas.SectionSessions}}, render: func(w http.ResponseWriter, g *gathered) {
		rated, total := g.rated()
		if total == 0 {
			writeErr(w, http.StatusUnprocessableEntity, "usaas: no sessions to advise on")
			return
		}
		p, err := usaas.TrainMOSPredictor(rated, 1.0)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "usaas: traffic-engineering advisor: %v", err)
			return
		}
		parts, err := g.tePartials(*p.Model())
		if err != nil {
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, usaas.MergeTE(total, parts))
	}}
}

// handleDeploymentAdvice serves locally: the launch planner consults only
// the constellation model, no store state.
func (c *Coordinator) handleDeploymentAdvice(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	f := formOf(r)
	from := timeline.Day(f.int("from", int(timeline.Date(2022, 6, 1))))
	horizon := timeline.Day(f.int("horizon", int(timeline.Date(2022, 12, 1))))
	maxExtra := f.int("max", 8)
	sats := f.int("sats", 50)
	target := f.float("target", 0)
	if f.reject(w) {
		return
	}
	if c.opts.Model == nil {
		writeErr(w, http.StatusNotFound, "no constellation model configured")
		return
	}
	advice, err := usaas.AdviseDeployment(c.opts.Model, from, horizon, maxExtra, sats, target)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, advice)
}

func (c *Coordinator) incidents(w http.ResponseWriter, r *http.Request) *query {
	eng, err := telemetry.ParseEngagement(r.URL.Query().Get("engagement"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	f := formOf(r)
	minDrop := f.float("min_drop", 0)
	if f.reject(w) {
		return nil
	}
	return &query{sections: []section{{name: usaas.SectionDaily}}, render: func(w http.ResponseWriter, g *gathered) {
		parts := make([][]usaas.DayEngagement, 0, len(g.bundles))
		for _, b := range g.bundles {
			parts = append(parts, b.Daily)
		}
		days := usaas.MergeDaily(parts)
		if len(days) == 0 {
			writeErr(w, http.StatusNotFound, "no sessions ingested")
			return
		}
		incidents := usaas.EngagementIncidents(days, eng, usaas.IncidentOptions{MinDrop: minDrop})
		writeJSON(w, http.StatusOK, usaas.IncidentResponse{
			Engagement: eng.String(), Days: days, Incidents: incidents,
		})
	}}
}

// reportSections are every section name buildReportFrom can attach notes
// to, in guard-chain order. A dead shard during the report scatter taints
// all of them — the data it held could have fed any section.
var reportSections = []string{
	"sessions", "engagement-drops", "mos-correlations", "mos-predictor",
	"traffic-engineering", "posts", "social-sweep", "sentiment-peaks",
	"outage-monitor", "trends", "speeds",
}

// reportPartials are the shard sections /v1/report merges.
var reportPartials = []section{
	{name: usaas.SectionSessions}, {name: usaas.SectionDrops}, {name: usaas.SectionSocial}, {name: usaas.SectionSpeeds},
}

// report is the scatter-gather report: the report's sections merged through
// the exact guard chain BuildReport uses. Shards that fail mid-scatter
// degrade per section — the report still lands with explicit notes naming
// the shard, never silently missing its days.
func (c *Coordinator) report(_ http.ResponseWriter, r *http.Request) *query {
	text := r.URL.Query().Get("format") == "text"
	return &query{sections: reportPartials, degrades: true, render: func(w http.ResponseWriter, g *gathered) {
		notes := map[string][]string{}
		for _, e := range g.errs {
			for _, sec := range reportSections {
				notes[sec] = append(notes[sec], fmt.Sprintf("%s: %s", sec, e))
			}
		}
		rep := usaas.AssembleClusterReport(usaas.ClusterReportInput{
			Bundles:    g.bundles,
			Notes:      notes,
			News:       c.opts.News,
			Model:      c.opts.Model,
			TEPartials: g.tePartials,
		})
		if text {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, rep.Render())
			return
		}
		writeJSON(w, http.StatusOK, rep)
	}}
}
