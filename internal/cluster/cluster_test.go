package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"usersignals/internal/conference"
	"usersignals/internal/newswire"
	"usersignals/internal/simrand"
	"usersignals/internal/social"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
	"usersignals/internal/usaas"
)

// The shared study corpus: one post corpus (with its constellation model
// and news index) reused across every cluster test; sessions vary by seed.
var (
	corpusOnce sync.Once
	corpus     *social.Corpus
	corpusCfg  social.Config
	newsIndex  *newswire.Index
)

func studyCorpus(t *testing.T) (*social.Corpus, social.Config, *newswire.Index) {
	t.Helper()
	corpusOnce.Do(func() {
		corpusCfg = social.DefaultConfig(17)
		var err error
		corpus, err = social.Generate(corpusCfg)
		if err != nil {
			panic(err)
		}
		newsIndex = newswire.Build(corpusCfg.Model.Launches(), corpusCfg.Outages, corpusCfg.Milestones)
	})
	return corpus, corpusCfg, newsIndex
}

// sessionData generates enough sessions to cross the single node's 4096-row
// chunk boundary, so byte-identity against the coordinator also pins the
// chunked row store's merged/tail split. Generated once per seed and shared:
// tests only read the records.
func sessionData(t *testing.T, seed uint64) []telemetry.SessionRecord {
	t.Helper()
	sessionMu.Lock()
	defer sessionMu.Unlock()
	if recs, ok := sessionSets[seed]; ok {
		return recs
	}
	opts := conference.Defaults(seed, 5000)
	opts.SurveyRate = 0.08
	g, err := conference.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := g.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	sessionSets[seed] = recs
	return recs
}

var (
	sessionMu   sync.Mutex
	sessionSets = map[uint64][]telemetry.SessionRecord{}
)

// testCluster is one coordinator over n single-node shard servers, plus a
// reference single node fed the identical batches.
type testCluster struct {
	coord   *Coordinator
	coordTS *httptest.Server
	shards  []*httptest.Server
	probes  []*shardProbe // one per shard, same order
	single  *httptest.Server
}

// shardProbe sits in front of one shard's handler: it counts what the
// coordinator asked of the shard, and can play dead (every connection
// dropped without an answer, like a process that crashed) and come back.
type shardProbe struct {
	next http.Handler
	down atomic.Bool

	mu          sync.Mutex
	fetched     map[string]int // GET /v1/partials answered 200, per section
	revalidated int            // GET /v1/partials answered 304
	modelPhases map[string]int // POST /v1/partials/model answered 200, per model section
	asked       int            // requests for partials of either phase, whatever the answer
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (p *shardProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.down.Load() {
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
		return
	}
	var modelSections []string
	if r.URL.Path == "/v1/partials/model" {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req usaas.ModelPartialsRequest
		_ = json.Unmarshal(body, &req)
		modelSections = req.Sections
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	p.next.ServeHTTP(sw, r)
	p.mu.Lock()
	defer p.mu.Unlock()
	if strings.HasPrefix(r.URL.Path, "/v1/partials") {
		p.asked++
	}
	switch {
	case r.URL.Path == "/v1/partials" && sw.status == http.StatusNotModified:
		p.revalidated++
	case r.URL.Path == "/v1/partials" && sw.status == http.StatusOK:
		for _, sec := range usaas.ParseSections(r.URL.Query().Get("sections")) {
			p.fetched[sec]++
		}
	case modelSections != nil && sw.status == http.StatusOK:
		for _, sec := range modelSections {
			p.modelPhases[sec]++
		}
	}
}

// reset zeroes the probe's counters.
func (p *shardProbe) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fetched, p.modelPhases, p.revalidated, p.asked = map[string]int{}, map[string]int{}, 0, 0
}

// counts snapshots the probe's counters.
func (p *shardProbe) counts() (fetched, modelPhases map[string]int, revalidated int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fetched, modelPhases = map[string]int{}, map[string]int{}
	for k, v := range p.fetched {
		fetched[k] = v
	}
	for k, v := range p.modelPhases {
		modelPhases[k] = v
	}
	return fetched, modelPhases, p.revalidated
}

// newShardHandler builds one shard process: a fresh store behind a fresh
// server (its own boot nonce).
func newShardHandler(t *testing.T, workers int) http.Handler {
	t.Helper()
	_, cfg, news := studyCorpus(t)
	store := &usaas.Store{}
	store.StartApplyPipeline(workers)
	return usaas.NewServer(store, usaas.ServerOptions{Model: cfg.Model, News: news}).Handler()
}

func newShardServer(t *testing.T, workers int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newShardHandler(t, workers))
	t.Cleanup(ts.Close)
	return ts
}

// buildCluster stands up n shards, a coordinator, and the reference single
// node. workers sets the shards' apply-pipeline width (the reference node
// applies inline; bytes must match regardless). opts tunes the coordinator
// (retry, breaker, caches); the annotation sources are filled in here.
func buildCluster(t *testing.T, n, workers int, opts Options) *testCluster {
	t.Helper()
	_, cfg, news := studyCorpus(t)
	tc := &testCluster{single: newShardServer(t, 0)}
	m := Map{Version: 1}
	for i := 0; i < n; i++ {
		probe := &shardProbe{next: newShardHandler(t, workers)}
		probe.reset()
		ts := httptest.NewServer(probe)
		t.Cleanup(ts.Close)
		tc.shards = append(tc.shards, ts)
		tc.probes = append(tc.probes, probe)
		m.Shards = append(m.Shards, Shard{Name: fmt.Sprintf("s%d", i), Endpoints: []string{ts.URL}})
	}
	opts.Model, opts.News = cfg.Model, news
	tc.coord = New(m, opts)
	tc.coordTS = httptest.NewServer(tc.coord.Handler())
	t.Cleanup(tc.coordTS.Close)
	return tc
}

// postBody POSTs one ingest body with the given Content-Type and returns the
// acknowledgement.
func postBody(t *testing.T, ctx context.Context, base, path, contentType, batchID string, body []byte) usaas.IngestResponse {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(usaas.BatchIDHeader, batchID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack usaas.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s%s (%s): status %d, %v", base, path, contentType, resp.StatusCode, err)
	}
	return ack
}

// ingestBoth feeds the coordinator and the reference node the same ragged
// batches (including a duplicate replay) and cross-checks the aggregated
// acknowledgements. One session batch arrives as application/jsonl and one
// post batch as NDJSON, the shapes a node accepts beside JSON arrays.
func ingestBoth(t *testing.T, tc *testCluster, recs []telemetry.SessionRecord, posts []social.Post) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cc := usaas.NewClientWithOptions(tc.coordTS.URL, usaas.ClientOptions{})
	sc := usaas.NewClientWithOptions(tc.single.URL, usaas.ClientOptions{})

	cuts := []int{1, 600, 2047, 2048, 2049, 4500, len(recs)}
	prev := 0
	for i, cut := range cuts {
		if cut > len(recs) {
			cut = len(recs)
		}
		if cut < prev {
			continue
		}
		id := fmt.Sprintf("batch-%d", i)
		var cr, sr usaas.IngestResponse
		if i == 2 {
			body, err := telemetry.AppendNDJSON(nil, recs[prev:cut])
			if err != nil {
				t.Fatal(err)
			}
			cr = postBody(t, ctx, tc.coordTS.URL, "/v1/sessions", "application/jsonl", id, body)
			sr = postBody(t, ctx, tc.single.URL, "/v1/sessions", "application/jsonl", id, body)
		} else {
			var err error
			if cr, err = cc.IngestSessionsBatch(ctx, id, recs[prev:cut]); err != nil {
				t.Fatalf("coordinator ingest %s: %v", id, err)
			}
			if sr, err = sc.IngestSessionsBatch(ctx, id, recs[prev:cut]); err != nil {
				t.Fatalf("single ingest %s: %v", id, err)
			}
		}
		if cr != sr {
			t.Fatalf("ingest ack diverges for %s: coordinator %+v vs single %+v", id, cr, sr)
		}
		prev = cut
	}
	// Replay one batch: every routed sub-batch must deduplicate, and the
	// aggregated acknowledgement must replay the original ack exactly like
	// the single node does.
	cr, err := cc.IngestSessionsBatch(ctx, "batch-1", recs[1:600])
	if err != nil {
		t.Fatalf("coordinator replay: %v", err)
	}
	sr, err := sc.IngestSessionsBatch(ctx, "batch-1", recs[1:600])
	if err != nil {
		t.Fatalf("single replay: %v", err)
	}
	if !cr.Duplicate {
		t.Fatalf("coordinator replay not deduplicated: %+v", cr)
	}
	if cr != sr {
		t.Fatalf("replay ack diverges: coordinator %+v vs single %+v", cr, sr)
	}

	if len(posts) > 0 {
		half := len(posts) / 2
		if _, err := cc.IngestPostsBatch(ctx, "posts-0", posts[:half]); err != nil {
			t.Fatalf("coordinator post ingest: %v", err)
		}
		if _, err := sc.IngestPostsBatch(ctx, "posts-0", posts[:half]); err != nil {
			t.Fatalf("single post ingest: %v", err)
		}
		var ndjson bytes.Buffer
		enc := json.NewEncoder(&ndjson)
		for i := range posts[half:] {
			if err := enc.Encode(&posts[half+i]); err != nil {
				t.Fatal(err)
			}
		}
		cr := postBody(t, ctx, tc.coordTS.URL, "/v1/posts", "application/x-ndjson", "posts-1", ndjson.Bytes())
		if sr := postBody(t, ctx, tc.single.URL, "/v1/posts", "application/x-ndjson", "posts-1", ndjson.Bytes()); cr != sr {
			t.Fatalf("NDJSON post ack diverges: coordinator %+v vs single %+v", cr, sr)
		}
		// Replay the first half against the coordinator only; the shard-side
		// dedup must swallow it.
		if cr, err := cc.IngestPostsBatch(ctx, "posts-0", posts[:half]); err != nil || !cr.Duplicate {
			t.Fatalf("coordinator post replay: resp=%+v err=%v", cr, err)
		}
	}

	// The cluster-wide totals must agree with the single node's counts.
	cs, err := cc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Sessions != ss.Sessions || cs.Posts != ss.Posts {
		t.Fatalf("store totals diverge: coordinator %d/%d vs single %d/%d",
			cs.Sessions, cs.Posts, ss.Sessions, ss.Posts)
	}
}

// ingestPostsArrival makes post arrival order an axis of the identity
// matrix: the coordinator receives the corpus as ragged batches in a seeded
// shuffled order — plus a straggler landing in an already-populated earlier
// day and one post ID replayed under a batch ID of its own — while the
// reference node receives the same posts as one batch in corpus order.
func ingestPostsArrival(t *testing.T, tc *testCluster, posts []social.Post, perm uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cc := usaas.NewClientWithOptions(tc.coordTS.URL, usaas.ClientOptions{})
	sc := usaas.NewClientWithOptions(tc.single.URL, usaas.ClientOptions{})

	hold := len(posts) / 3
	rest := append(append([]social.Post(nil), posts[:hold]...), posts[hold+1:]...)
	var batches [][]social.Post
	for i, n := 0, 0; i < len(rest); n++ {
		hi := min(i+900+(n*613)%1700, len(rest))
		batches = append(batches, rest[i:hi])
		i = hi
	}
	batches = append(batches, posts[hold:hold+1], posts[2*hold:2*hold+1])
	for _, j := range simrand.Root(perm).Derive("cluster/arrival-order").RNG().Perm(len(batches)) {
		if _, err := cc.IngestPostsBatch(ctx, fmt.Sprintf("arrive-%d", j), batches[j]); err != nil {
			t.Fatalf("coordinator post ingest: %v", err)
		}
	}

	var inOrder []social.Post
	for _, b := range batches {
		inOrder = append(inOrder, b...)
	}
	sort.SliceStable(inOrder, func(i, j int) bool { return inOrder[i].Before(&inOrder[j]) })
	if _, err := sc.IngestPostsBatch(ctx, "in-order", inOrder); err != nil {
		t.Fatalf("single post ingest: %v", err)
	}
	cs, err := cc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Posts != len(inOrder) {
		t.Fatalf("cluster holds %d posts, delivered %d", cs.Posts, len(inOrder))
	}
}

// get fetches a path and returns (status, body bytes as string).
func get(t *testing.T, base, path string) (int, string) {
	t.Helper()
	status, _, body := send(t, http.MethodGet, base+path, nil)
	return status, body
}

// send makes one bodiless request and returns the status, the answer's
// headers and its body.
func send(t *testing.T, method, url string, header http.Header) (int, http.Header, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		req.Header[k] = vs
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
	return resp.StatusCode, resp.Header, string(body)
}

// queryPaths is every read endpoint the coordinator must answer
// byte-identically to a single node holding all the data.
func queryPaths(isp string) []string {
	return []string{
		"/v1/report",
		"/v1/report?format=text",
		"/v1/insights/engagement?metric=latency-mean-ms&engagement=presence&lo=0&hi=300&bins=8",
		"/v1/insights/engagement?metric=loss-mean-pct&engagement=cam-on&lo=0&hi=4&bins=10",
		"/v1/insights/mos",
		"/v1/insights/mos?bins=6",
		"/v1/insights/sentiment",
		"/v1/insights/peaks",
		"/v1/insights/peaks?k=5",
		"/v1/insights/outages",
		"/v1/insights/outages?threshold=3",
		"/v1/insights/speeds",
		"/v1/insights/trends",
		"/v1/insights/confounders?engagement=presence",
		"/v1/advice/traffic-engineering",
		"/v1/advice/deployment",
		"/v1/insights/incidents?engagement=presence",
		"/v1/insights/incidents?engagement=cam-on&min_drop=0.05",
		"/v1/query/experience?isp=" + isp,
	}
}

// assertByteIdentical fetches every query path from the coordinator and the
// reference node and requires literal response-byte equality.
func assertByteIdentical(t *testing.T, tc *testCluster, isp string) {
	t.Helper()
	for _, p := range queryPaths(isp) {
		cStatus, cBody := get(t, tc.coordTS.URL, p)
		sStatus, sBody := get(t, tc.single.URL, p)
		if cStatus != sStatus {
			t.Errorf("%s: status %d (coordinator) vs %d (single)", p, cStatus, sStatus)
			continue
		}
		if cBody != sBody {
			t.Errorf("%s: coordinator bytes differ from single node\ncoordinator: %.400s\nsingle:      %.400s", p, cBody, sBody)
		}
	}
}

// ingestDirect sends one more session batch and one more post batch straight
// to the shards through the client-side splitter — past the coordinator,
// which must notice anyway — and to the reference node.
func ingestDirect(t *testing.T, tc *testCluster, recs []telemetry.SessionRecord, posts []social.Post) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	split := NewClient(tc.coord.pmap, ClientConfig{})
	sc := usaas.NewClientWithOptions(tc.single.URL, usaas.ClientOptions{})
	ca, err := split.IngestSessionsBatch(ctx, "direct-sessions", recs)
	if err != nil {
		t.Fatalf("direct session ingest: %v", err)
	}
	sa, err := sc.IngestSessionsBatch(ctx, "direct-sessions", recs)
	if err != nil {
		t.Fatalf("single session ingest: %v", err)
	}
	if ca != sa {
		t.Fatalf("direct session ack diverges: client %+v vs single %+v", ca, sa)
	}
	if _, err := split.IngestPostsBatch(ctx, "direct-posts", posts); err != nil {
		t.Fatalf("direct post ingest: %v", err)
	}
	if _, err := sc.IngestPostsBatch(ctx, "direct-posts", posts); err != nil {
		t.Fatalf("single post ingest: %v", err)
	}
}

// mergingPaths is how many of queryPaths merge shard state (all but
// /v1/advice/deployment, which consults only the constellation model).
const mergingPaths = 18

// TestClusterByteIdenticalToSingleNode is the tentpole property: for every
// read endpoint, a coordinator over 1, 2, or 4 shards answers
// byte-identically to one node fed the same batches — across seeds and
// shard apply-pipeline widths, cold, warm (a second pass, replayed from the
// coordinator's caches where they are on) and after a further ingest the
// coordinator never saw. Short mode keeps one seed (still covering all
// three shard counts and both cache settings).
func TestClusterByteIdenticalToSingleNode(t *testing.T) {
	c, _, _ := studyCorpus(t)
	// arrival 0 delivers the corpus in generator order to both sides; any
	// other value is the seed of a shuffled delivery to the cluster, checked
	// against a reference node fed in corpus order (ingestPostsArrival).
	// cacheSize is the coordinator's ResultCacheSize: 0 the default, < 0 off.
	configs := []struct {
		seed      uint64
		nShards   int
		workers   int
		arrival   uint64
		cacheSize int
	}{
		{5, 1, 0, 1, 0},
		{5, 2, 4, 2, -1},
		{5, 4, 1, 3, 0},
		{6, 2, 0, 0, 0},
		{6, 4, 4, 1, -1},
		{7, 1, 4, 0, 0},
		{7, 2, 1, 3, 0},
		{7, 4, 0, 0, 3},
	}
	if testing.Short() {
		configs = configs[:3]
	}
	for _, tc := range configs {
		t.Run(fmt.Sprintf("seed%d_shards%d_workers%d_arrival%d", tc.seed, tc.nShards, tc.workers, tc.arrival), func(t *testing.T) {
			all := sessionData(t, tc.seed)
			recs, lateRecs := all[:len(all)-300], all[len(all)-300:]
			posts, latePosts := c.Posts[:len(c.Posts)-200], c.Posts[len(c.Posts)-200:]
			cl := buildCluster(t, tc.nShards, tc.workers, Options{ResultCacheSize: tc.cacheSize})
			if tc.arrival == 0 {
				ingestBoth(t, cl, recs, posts)
			} else {
				ingestBoth(t, cl, recs, nil)
				ingestPostsArrival(t, cl, posts, tc.arrival)
			}
			isp := all[0].ISP
			assertByteIdentical(t, cl, isp)
			cold := cl.coord.clusterStats()
			assertByteIdentical(t, cl, isp)
			warm := cl.coord.clusterStats()
			// Warm merges: none with the default cache (every answer replayed),
			// all without one, and with a 3-entry cache some but never more.
			lo, hi := uint64(mergingPaths), uint64(mergingPaths)
			if tc.cacheSize == 0 {
				lo, hi = 0, 0
			} else if tc.cacheSize > 0 {
				lo = 1
			}
			if got := warm.PartialMerges - cold.PartialMerges; got < lo || got > hi || cold.PartialMerges != mergingPaths {
				t.Errorf("merges: %d cold, %d warm; want %d and %d..%d", cold.PartialMerges, got, mergingPaths, lo, hi)
			}
			if on := warm.Cache != nil; on != (tc.cacheSize >= 0) {
				t.Errorf("cache block present = %v with ResultCacheSize %d", on, tc.cacheSize)
			}
			ingestDirect(t, cl, lateRecs, latePosts)
			assertByteIdentical(t, cl, isp)
		})
	}
}

// TestClientSideSplitMatchesCoordinator pins the client-side write path:
// a cluster.Client splitting batches at the producer and sending them
// straight to the shards must produce acknowledgements identical to the
// single node's (replays included), and the coordinator's answers over
// shard-ingested data must stay byte-identical to the single node's.
func TestClientSideSplitMatchesCoordinator(t *testing.T) {
	c, _, _ := studyCorpus(t)
	recs := sessionData(t, 6)
	cl := buildCluster(t, 2, 0, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	split := NewClient(cl.coord.pmap, ClientConfig{})
	sc := usaas.NewClientWithOptions(cl.single.URL, usaas.ClientOptions{})

	cuts := []int{1, 600, 2047, 2048, 2049, 4500, len(recs)}
	prev := 0
	for i, cut := range cuts {
		if cut > len(recs) {
			cut = len(recs)
		}
		if cut < prev {
			continue
		}
		id := fmt.Sprintf("split-%d", i)
		ca, err := split.IngestSessionsBatch(ctx, id, recs[prev:cut])
		if err != nil {
			t.Fatalf("split ingest %s: %v", id, err)
		}
		sa, err := sc.IngestSessionsBatch(ctx, id, recs[prev:cut])
		if err != nil {
			t.Fatalf("single ingest %s: %v", id, err)
		}
		if ca != sa {
			t.Fatalf("split ack diverges for %s: client %+v vs single %+v", id, ca, sa)
		}
		prev = cut
	}
	// Replay through the splitter: every shard returns its original ack,
	// and the fold reproduces the single node's duplicate answer.
	ca, err := split.IngestSessionsBatch(ctx, "split-1", recs[1:600])
	if err != nil {
		t.Fatalf("split replay: %v", err)
	}
	sa, err := sc.IngestSessionsBatch(ctx, "split-1", recs[1:600])
	if err != nil {
		t.Fatalf("single replay: %v", err)
	}
	if !ca.Duplicate || ca != sa {
		t.Fatalf("split replay diverges: client %+v vs single %+v", ca, sa)
	}

	half := len(c.Posts) / 2
	for i, span := range [][]social.Post{c.Posts[:half], c.Posts[half:]} {
		id := fmt.Sprintf("split-posts-%d", i)
		ca, err := split.IngestPostsBatch(ctx, id, span)
		if err != nil {
			t.Fatalf("split post ingest: %v", err)
		}
		sa, err := sc.IngestPostsBatch(ctx, id, span)
		if err != nil {
			t.Fatalf("single post ingest: %v", err)
		}
		if ca != sa {
			t.Fatalf("post ack diverges for %s: client %+v vs single %+v", id, ca, sa)
		}
	}

	// Reads fan through the coordinator as usual — the write path taken
	// must be invisible in the bytes.
	assertByteIdentical(t, cl, recs[0].ISP)
}

// TestCoordinatorErrorPaths pins the coordinator's parameter validation to
// the single node's: same status, same bytes, no fan-out needed to agree.
func TestCoordinatorErrorPaths(t *testing.T) {
	studyCorpus(t)
	cl := buildCluster(t, 2, 0, Options{})
	recs := sessionData(t, 5)
	ingestBoth(t, cl, recs[:600], nil)
	for _, p := range []string{
		"/v1/insights/engagement?metric=bogus&engagement=presence",
		"/v1/insights/engagement?metric=latency-mean-ms&engagement=bogus",
		"/v1/insights/engagement?metric=latency-mean-ms&engagement=presence&bins=0",
		"/v1/insights/engagement?metric=latency-mean-ms&engagement=presence&bins=nope",
		"/v1/insights/peaks?k=0",
		"/v1/insights/peaks?k=banana",
		"/v1/query/experience",
		"/v1/query/experience?isp=no-such-isp",
		"/v1/insights/confounders?engagement=nope",
		"/v1/insights/incidents?engagement=",
		"/v1/insights/sentiment", // no posts ingested
		"/v1/insights/speeds",
	} {
		cStatus, cBody := get(t, cl.coordTS.URL, p)
		sStatus, sBody := get(t, cl.single.URL, p)
		if cStatus != sStatus || cBody != sBody {
			t.Errorf("%s: coordinator (%d, %q) vs single (%d, %q)", p, cStatus, cBody, sStatus, sBody)
		}
	}
	// Values strconv parses but no binning, threshold, launch plan or
	// incident scan can use: the node's 400 naming the parameter, refused
	// before any shard is asked — and a shard registers views only when
	// asked for partials, so none registers one.
	for _, probe := range cl.probes {
		probe.reset()
	}
	var refused [][2]string // path, the parameter its refusal names
	for _, bounds := range [][2]string{{"lo=NaN", "lo"}, {"hi=NaN", "hi"}, {"lo=-Inf&hi=Inf", "lo"}, {"lo=0&hi=Inf", "hi"}, {"lo=-1e308&hi=1e308", "hi"}} {
		refused = append(refused, [2]string{"/v1/insights/engagement?metric=latency-mean-ms&engagement=presence&" + bounds[0], bounds[1]})
	}
	for _, p := range [][2]string{{"/v1/insights/incidents?engagement=presence&", "min_drop"}, {"/v1/advice/deployment?", "target"},
		{"/v1/advice/deployment?", "sats"}, {"/v1/insights/outages?", "threshold"}, {"/v1/advice/deployment?", "max"}} {
		for _, v := range []string{"NaN", "Inf", "-Inf", "-5"} {
			refused = append(refused, [2]string{p[0] + p[1] + "=" + v, p[1]})
		}
	}
	for _, r := range refused {
		p, key := r[0], r[1]
		cStatus, cBody := get(t, cl.coordTS.URL, p)
		sStatus, sBody := get(t, cl.single.URL, p)
		if cStatus != http.StatusBadRequest || cStatus != sStatus || cBody != sBody || !strings.Contains(cBody, `\"`+key+`\"`) {
			t.Errorf("%s: coordinator (%d, %q) vs single (%d, %q), want both 400 naming %q", p, cStatus, cBody, sStatus, sBody, key)
		}
	}
	for i, probe := range cl.probes {
		if probe.mu.Lock(); probe.asked != 0 {
			t.Errorf("shard %d was asked for partials %d times for refused queries", i, probe.asked)
		}
		probe.mu.Unlock()
	}
	// A wrong method: the same 405, message and Allow header.
	for _, m := range [][2]string{{http.MethodPost, "/v1/report"}, {http.MethodGet, "/v1/sessions"}} {
		cStatus, cHeader, cBody := send(t, m[0], cl.coordTS.URL+m[1], nil)
		sStatus, sHeader, sBody := send(t, m[0], cl.single.URL+m[1], nil)
		cAllow, sAllow := cHeader.Get("Allow"), sHeader.Get("Allow")
		if cStatus != http.StatusMethodNotAllowed || cStatus != sStatus || cAllow == "" || cAllow != sAllow || cBody != sBody {
			t.Errorf("%s %s: coordinator (%d, Allow %q, %q) vs single (%d, Allow %q, %q)", m[0], m[1], cStatus, cAllow, cBody, sStatus, sAllow, sBody)
		}
	}
}

// TestCoordinatorAuth: a coordinator with a token guards its routes as a node
// does — a missing or wrong token gets a node's 401, byte for byte — and
// health probes pass without one.
func TestCoordinatorAuth(t *testing.T) {
	shard := newShardServer(t, 0)
	m := Map{Version: 1, Shards: []Shard{{Name: "s0", Endpoints: []string{shard.URL}}}}
	coord := httptest.NewServer(New(m, Options{Token: "sekrit"}).Handler())
	defer coord.Close()
	node := httptest.NewServer(usaas.NewServer(nil, usaas.ServerOptions{AuthToken: "sekrit"}).Handler())
	defer node.Close()
	for _, auth := range []string{"", "Bearer nope", "sekrit"} {
		header := http.Header{"Authorization": {auth}}
		for _, p := range []string{"/v1/stats", "/v1/report", "/v1/insights/sentiment"} {
			cStatus, _, cBody := send(t, http.MethodGet, coord.URL+p, header)
			sStatus, _, sBody := send(t, http.MethodGet, node.URL+p, header)
			if cStatus != http.StatusUnauthorized || cStatus != sStatus || cBody != sBody {
				t.Errorf("%s with Authorization %q: coordinator (%d, %q) vs node (%d, %q)", p, auth, cStatus, cBody, sStatus, sBody)
			}
		}
	}
	if status, _, body := send(t, http.MethodGet, coord.URL+"/v1/stats", http.Header{"Authorization": {"Bearer sekrit"}}); status != http.StatusOK {
		t.Errorf("/v1/stats with the token: %d %.200s", status, body)
	}
	for _, p := range []string{"/v1/healthz", "/v1/readyz"} {
		if status, _, body := send(t, http.MethodGet, coord.URL+p, nil); status != http.StatusOK {
			t.Errorf("%s without a token: %d %.200s", p, status, body)
		}
	}
}

// TestShardOfDeterminism pins the routing hash: the same (version, day)
// must land on the same shard across processes and runs, and bumping the
// version must actually reshuffle.
func TestShardOfDeterminism(t *testing.T) {
	m, err := ParseShards("a=http://h1;b=http://h2;c=http://h3")
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for d := 0; d < 1000; d++ {
		day := timeline.Day(d)
		i := m.ShardOf(day)
		if j := m.ShardOf(day); i != j {
			t.Fatalf("ShardOf(%d) unstable: %d then %d", d, i, j)
		}
		if i < 0 || i >= len(m.Shards) {
			t.Fatalf("ShardOf(%d) = %d out of range", d, i)
		}
		m2 := m
		m2.Version = 2
		if m2.ShardOf(day) != i {
			moved = true
		}
	}
	if !moved {
		t.Error("version bump did not move any of 1000 days")
	}
}

func TestSubBatchID(t *testing.T) {
	m := Map{Version: 3, Shards: make([]Shard, 2)}
	if got := m.SubBatchID("", 1); got != "" {
		t.Errorf("empty parent should stay empty, got %q", got)
	}
	if got, want := m.SubBatchID("b-7", 1), "b-7@v3/s1"; got != want {
		t.Errorf("SubBatchID = %q, want %q", got, want)
	}
}

func TestParseShards(t *testing.T) {
	m, err := ParseShards(" a=http://h1 ; b = http://h2,http://h3 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 2 || m.Shards[0].Name != "a" || len(m.Shards[1].Endpoints) != 2 {
		t.Fatalf("unexpected map: %+v", m)
	}
	for _, bad := range []string{"", "a", "a=;b=http://h2", "a=http://h1;a=http://h2"} {
		if _, err := ParseShards(bad); err == nil {
			t.Errorf("ParseShards(%q) accepted", bad)
		}
	}
}

// TestSplitPreservesOrderAndCompleteness: splitting then concatenating in
// shard order is a permutation that keeps each shard's records in batch
// order (the property the per-shard ingest order depends on).
func TestSplitPreservesOrderAndCompleteness(t *testing.T) {
	recs := sessionData(t, 5)[:500]
	m := Map{Version: 1, Shards: make([]Shard, 4)}
	groups := m.SplitSessions(recs)
	total := 0
	for i, g := range groups {
		total += len(g)
		for j := range g {
			if m.ShardOf(timeline.DayOf(g[j].Start)) != i {
				t.Fatalf("record in group %d routed elsewhere", i)
			}
		}
	}
	if total != len(recs) {
		t.Fatalf("split lost records: %d != %d", total, len(recs))
	}
}

// TestCoordinatorUnencodableShardAnswer: a shard whose section cannot be
// encoded (a NaN a record fed through the Go API puts in a day's mean)
// answers its partials with a 500 naming the failure, and the coordinator
// refuses with an error naming the shard — never a 200 with an empty body.
func TestCoordinatorUnencodableShardAnswer(t *testing.T) {
	recs := append([]telemetry.SessionRecord(nil), sessionData(t, 5)[:300]...) // the dataset is shared
	recs[3].PresencePct = math.NaN()
	store := &usaas.Store{}
	if _, _, err := store.AddSessionsBatch("nan", recs); err != nil {
		t.Fatal(err)
	}
	shard := httptest.NewServer(usaas.NewServer(store, usaas.ServerOptions{}).Handler())
	t.Cleanup(shard.Close)
	coord := coordinatorOver(t, 0, shard.URL)
	const path = "/v1/insights/incidents?engagement=presence"
	for _, c := range []struct {
		base   string
		status int
		names  []string
	}{
		{shard.URL, http.StatusInternalServerError, []string{"encoding the answer", "NaN"}},
		{coord.URL, http.StatusServiceUnavailable, []string{"shard s0", "encoding the answer", "NaN"}},
	} {
		status, body := get(t, c.base, path)
		var e struct{ Error string }
		if status != c.status || json.Unmarshal([]byte(body), &e) != nil {
			t.Fatalf("%s%s: %d %q, want %d with a JSON error", c.base, path, status, body, c.status)
		}
		for _, name := range c.names {
			if !strings.Contains(e.Error, name) {
				t.Errorf("%s%s: error %q does not name %q", c.base, path, e.Error, name)
			}
		}
	}
}
