package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"usersignals/internal/social"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
	"usersignals/internal/usaas"
)

// dashboardPaths is one operator-dashboard refresh: the 13 endpoints the
// benchmark's dashboard phase polls.
func dashboardPaths(isp string) []string {
	return []string{
		"/v1/report",
		"/v1/insights/engagement?metric=latency-mean-ms&engagement=mic-on",
		"/v1/insights/engagement?metric=loss-mean-pct&engagement=presence&hi=5",
		"/v1/insights/mos",
		"/v1/insights/sentiment",
		"/v1/insights/peaks",
		"/v1/insights/outages",
		"/v1/insights/speeds",
		"/v1/insights/trends",
		"/v1/insights/confounders?engagement=presence",
		"/v1/advice/traffic-engineering",
		"/v1/insights/incidents?engagement=presence",
		"/v1/query/experience?isp=" + isp,
	}
}

// refresh fetches one dashboard refresh from the coordinator and requires
// every answer to equal the reference node's.
func refresh(t *testing.T, tc *testCluster, isp string) {
	t.Helper()
	for _, p := range dashboardPaths(isp) {
		cStatus, cBody := get(t, tc.coordTS.URL, p)
		sStatus, sBody := get(t, tc.single.URL, p)
		if cStatus != sStatus || cBody != sBody {
			t.Errorf("%s: coordinator (%d, %.200s) vs single (%d, %.200s)", p, cStatus, cBody, sStatus, sBody)
		}
	}
}

// TestCoordinatorColdFetchesEachSectionOnce pins what a refresh costs. After
// one ingest that touches one shard, a 13-endpoint refresh transfers each
// section it needs from that shard exactly once — social feeds five
// endpoints, sessions four, the TE model phase two — while the untouched
// shard answers nothing but 304s; the refresh after that merges nothing and
// transfers no body at all.
func TestCoordinatorColdFetchesEachSectionOnce(t *testing.T) {
	c, _, _ := studyCorpus(t)
	all := sessionData(t, 5)
	cl := buildCluster(t, 2, 0, Options{})
	ingestBoth(t, cl, all[:len(all)-600], c.Posts[:len(c.Posts)-400])
	isp := all[0].ISP
	refresh(t, cl, isp) // every section held, every answer stored

	// One more session batch and one more post batch whose days all live on
	// shard 0, sent past the coordinator. Shard 1 gets the empty sub-batches,
	// which must leave its tag where it was. None of the sessions is rated,
	// so the model the coordinator trains — and with it shard 1's held
	// model-phase answers — stays what it was.
	pmap := cl.coord.pmap
	var lateRecs []telemetry.SessionRecord
	for _, r := range all[len(all)-600:] {
		if !r.Rated && pmap.ShardOf(timeline.DayOf(r.Start)) == 0 {
			lateRecs = append(lateRecs, r)
		}
	}
	var latePosts []social.Post
	for _, p := range c.Posts[len(c.Posts)-400:] {
		if pmap.ShardOf(p.Day) == 0 {
			latePosts = append(latePosts, p)
		}
	}
	if len(lateRecs) == 0 || len(latePosts) == 0 {
		t.Fatalf("no late data for shard 0: %d sessions, %d posts", len(lateRecs), len(latePosts))
	}
	ingestDirect(t, cl, lateRecs, latePosts)

	for _, p := range cl.probes {
		p.reset()
	}
	before := cl.coord.clusterStats()
	refresh(t, cl, isp)
	after := cl.coord.clusterStats()
	if got := after.PartialMerges - before.PartialMerges; got != 13 {
		t.Errorf("cold refresh performed %d merges, want 13", got)
	}
	fetched, models, _ := cl.probes[0].counts()
	wantFetched := map[string]int{
		usaas.SectionSessions: 1, usaas.SectionDrops: 1, usaas.SectionSocial: 1, usaas.SectionSpeeds: 1,
		usaas.SectionDose:        2, // two parameterizations, each its own section
		usaas.SectionConfounders: 1, usaas.SectionDaily: 1, usaas.SectionExperience: 1,
	}
	if !reflect.DeepEqual(fetched, wantFetched) {
		t.Errorf("changed shard transferred sections %v, want %v", fetched, wantFetched)
	}
	wantModels := map[string]int{usaas.ModelSectionTE: 1, usaas.ModelSectionExperience: 1}
	if !reflect.DeepEqual(models, wantModels) {
		t.Errorf("changed shard ran model phases %v, want %v", models, wantModels)
	}
	fetched, models, revalidated := cl.probes[1].counts()
	if len(fetched) != 0 || len(models) != 0 || revalidated != 13 {
		t.Errorf("untouched shard: transferred %v, model phases %v, %d 304s; want none, none, 13", fetched, models, revalidated)
	}

	// The following refresh: 13 replays, each validated by one 304 per shard.
	for _, p := range cl.probes {
		p.reset()
	}
	before = after
	refresh(t, cl, isp)
	after = cl.coord.clusterStats()
	if got := after.PartialMerges - before.PartialMerges; got != 0 {
		t.Errorf("warm refresh performed %d merges, want 0", got)
	}
	if got := after.Cache.Hits - before.Cache.Hits; got != 13 {
		t.Errorf("warm refresh hit the result cache %d times, want 13", got)
	}
	for i, p := range cl.probes {
		fetched, models, revalidated := p.counts()
		if len(fetched) != 0 || len(models) != 0 || revalidated != 13 {
			t.Errorf("warm refresh, shard %d: transferred %v, model phases %v, %d 304s; want none, none, 13", i, fetched, models, revalidated)
		}
		b, a := before.Shards[i], after.Shards[i]
		if a.Fetched != b.Fetched || a.PartialsBytes != b.PartialsBytes || a.Revalidated-b.Revalidated != 13 {
			t.Errorf("warm refresh, shard %d gauges: fetched %d→%d, bytes %d→%d, revalidated %d→%d",
				i, b.Fetched, a.Fetched, b.PartialsBytes, a.PartialsBytes, b.Revalidated, a.Revalidated)
		}
	}
}

// swapHandler serves whichever handler is current: one address, successive
// processes behind it.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// generationsOf returns a shard's state tag split into its boot nonce and
// its generation counters.
func generationsOf(t *testing.T, base string) (nonce, gens string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/partials?sections=daily")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tag := strings.Trim(resp.Header.Get("ETag"), `"`)
	proto, rest, _ := strings.Cut(tag, ".")
	nonce, gens, ok := strings.Cut(rest, ".")
	if !ok || proto != fmt.Sprint(usaas.PartialsProtocol) {
		t.Fatalf("shard %s sent tag %q, want protocol.nonce.sessGen.postGen", base, tag)
	}
	return nonce, gens
}

// ingestOne sends one session batch and one post batch to a node.
func ingestOne(t *testing.T, base, id string, recs []telemetry.SessionRecord, posts []social.Post) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cl := usaas.NewClientWithOptions(base, usaas.ClientOptions{})
	if len(recs) > 0 {
		if _, err := cl.IngestSessionsBatch(ctx, id+"-sessions", recs); err != nil {
			t.Fatal(err)
		}
	}
	if len(posts) > 0 {
		if _, err := cl.IngestPostsBatch(ctx, id+"-posts", posts); err != nil {
			t.Fatal(err)
		}
	}
}

// coordinatorOver stands up a coordinator over one shard with the given
// endpoints.
func coordinatorOver(t *testing.T, cacheSize int, endpoints ...string) *httptest.Server {
	t.Helper()
	_, cfg, news := studyCorpus(t)
	m := Map{Version: 1, Shards: []Shard{{Name: "s0", Endpoints: endpoints}}}
	ts := httptest.NewServer(New(m, Options{Model: cfg.Model, News: news, ResultCacheSize: cacheSize}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestCoordinatorNeverFalse304: generation counters are not an identity.
// They restart when a shard restarts and they count differently on a
// leader and its follower, so two processes can stand at the same
// (sessGen, postGen) over different data. Whatever the coordinator holds,
// every answer must be what the process that served it would give a
// coordinator holding nothing.
func TestCoordinatorNeverFalse304(t *testing.T) {
	c, _, _ := studyCorpus(t)
	all := sessionData(t, 6)
	isp := all[0].ISP

	t.Run("restart", func(t *testing.T) {
		shard := &swapHandler{}
		shard.set(newShardHandler(t, 0))
		var since atomic.Int64 // partials requests naming a social base
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/partials" && r.URL.Query().Get("since") != "" {
				since.Add(1)
			}
			shard.ServeHTTP(w, r)
		}))
		defer ts.Close()
		cached, uncached := coordinatorOver(t, 0, ts.URL), coordinatorOver(t, -1, ts.URL)

		ingestOne(t, ts.URL, "a", all[:1500], c.Posts[:3000])
		nonceA, gensA := generationsOf(t, ts.URL)
		before := map[string]string{}
		for _, p := range queryPaths(isp) {
			get(t, cached.URL, p)
			_, before[p] = get(t, cached.URL, p) // held, stored and replayed once
		}

		// The process dies; its successor at the same address comes up on a
		// different data set that happens to reach the same counters.
		shard.set(newShardHandler(t, 0))
		since.Store(0)
		ingestOne(t, ts.URL, "b", all[1500:3500], c.Posts[3000:7000])
		nonceB, gensB := generationsOf(t, ts.URL)
		if gensA != gensB || nonceA == nonceB {
			t.Fatalf("scenario broken: tags %s.%s then %s.%s, want equal counters under different nonces", nonceA, gensA, nonceB, gensB)
		}
		changed := 0
		for _, p := range queryPaths(isp) {
			gotStatus, got := get(t, cached.URL, p)
			wantStatus, want := get(t, uncached.URL, p)
			if gotStatus != wantStatus || got != want {
				t.Errorf("%s after restart: (%d, %.200s), an uncached coordinator answers (%d, %.200s)", p, gotStatus, got, wantStatus, want)
			}
			if got != before[p] {
				changed++
			}
		}
		if changed < 10 {
			t.Errorf("only %d of %d answers differ between the two data sets; the scenario proves little", changed, len(queryPaths(isp)))
		}
		// The held social days met the successor at the very counters they
		// were fetched at: it must have answered them in full, not with an
		// empty delta on the other process's days.
		if st := shardStats(t, cached.URL); since.Load() == 0 || st.Deltas != 0 {
			t.Errorf("%d requests named a social base, %d answers patched one; want some, and none", since.Load(), st.Deltas)
		}
	})

	t.Run("lagging_follower", func(t *testing.T) {
		// One shard, two endpoints. The follower lacks the leader's second
		// batch, and (as after a snapshot install) counted its prefix as two
		// applies: both stand at sessGen 2, postGen 1. No partials are held
		// for a replicated shard; the rendered-answer cache is what must not
		// replay one endpoint's answer under the other's counters.
		leader, follower := newShardHandler(t, 0), newShardHandler(t, 0)
		var last atomic.Pointer[string] // who answered the latest GET /v1/partials
		tracked := func(name string, h http.Handler) *httptest.Server {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodGet && r.URL.Path == "/v1/partials" {
					last.Store(&name)
				}
				h.ServeHTTP(w, r)
			}))
			t.Cleanup(ts.Close)
			return ts
		}
		leaderTS, followerTS := tracked("leader", leader), tracked("follower", follower)
		// What each endpoint gives a coordinator that holds nothing. Reads
		// rotate, but the model phase is a POST and always goes to the leader,
		// so a query the follower served is follower partials under the
		// leader's model phase.
		leaderRef := httptest.NewServer(leader)
		defer leaderRef.Close()
		followerRef := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/partials/model" {
				leader.ServeHTTP(w, r)
				return
			}
			follower.ServeHTTP(w, r)
		}))
		defer followerRef.Close()
		refs := map[string]*httptest.Server{
			"leader":   coordinatorOver(t, -1, leaderRef.URL),
			"follower": coordinatorOver(t, -1, followerRef.URL),
		}

		ingestOne(t, leaderRef.URL, "b1", all[:1000], c.Posts[:3000])
		ingestOne(t, leaderRef.URL, "b2", all[1000:2000], nil)
		ingestOne(t, followerRef.URL, "b1a", all[:500], c.Posts[:3000])
		ingestOne(t, followerRef.URL, "b1b", all[500:1000], nil)
		nonceL, gensL := generationsOf(t, leaderRef.URL)
		nonceF, gensF := generationsOf(t, followerRef.URL)
		if gensL != gensF || nonceL == nonceF {
			t.Fatalf("scenario broken: tags %s.%s and %s.%s, want equal counters under different nonces", nonceL, gensL, nonceF, gensF)
		}

		cached := coordinatorOver(t, 0, leaderTS.URL, followerTS.URL)
		served := map[string]int{}
		for round := 0; round < 3; round++ {
			for _, p := range queryPaths(isp) {
				gotStatus, got := get(t, cached.URL, p)
				who := *last.Load()
				served[who]++
				wantStatus, want := get(t, refs[who].URL, p)
				if gotStatus != wantStatus || got != want {
					t.Errorf("round %d %s, served by the %s: (%d, %.200s), want its own answer (%d, %.200s)", round, p, who, gotStatus, got, wantStatus, want)
				}
			}
		}
		if served["leader"] == 0 || served["follower"] == 0 {
			t.Errorf("reads did not rotate over both endpoints: %v", served)
		}
	})
}

// gateTransport holds every model-phase POST until released.
type gateTransport struct {
	release chan struct{}
	held    atomic.Int64
}

func (g *gateTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/partials/model" {
		g.held.Add(1)
		select {
		case <-g.release:
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestCoordinatorCollapsesConcurrentColdQueries: 32 identical cold GETs
// arriving together are one merge. Each validates the shards for itself
// (a later request must never be answered from an earlier validation), then
// 31 find the first one's flight and wait for its bytes.
func TestCoordinatorCollapsesConcurrentColdQueries(t *testing.T) {
	all := sessionData(t, 7)
	gate := &gateTransport{release: make(chan struct{})}
	cl := buildCluster(t, 2, 0, Options{HTTPClient: &http.Client{Transport: gate}})
	ingestBoth(t, cl, all[:2500], nil)

	const path, n = "/v1/advice/traffic-engineering", 32
	bodies := make([]string, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(cl.coordTS.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
			statuses[i], bodies[i] = resp.StatusCode, string(body)
		}(i)
	}
	// The leader is parked inside its model phase; wait for the other 31 to
	// line up behind its flight, then let it finish.
	deadline := time.Now().Add(60 * time.Second)
	for cl.coord.cache.Metrics().Collapsed < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	wg.Wait()

	wantStatus, want := get(t, cl.single.URL, path)
	for i := range bodies {
		if statuses[i] != wantStatus || bodies[i] != want {
			t.Fatalf("request %d: (%d, %.200s), want the single node's (%d, %.200s)", i, statuses[i], bodies[i], wantStatus, want)
		}
	}
	if wantStatus != http.StatusOK {
		t.Fatalf("reference answered %d; the scenario needs a model phase to park in", wantStatus)
	}
	cs := cl.coord.clusterStats()
	if cs.PartialMerges != 1 || cs.Cache.Misses != 1 || cs.Cache.Collapsed != n-1 {
		t.Errorf("merges %d, cache %+v; want 1 merge, 1 miss, %d collapsed", cs.PartialMerges, *cs.Cache, n-1)
	}
	if got := gate.held.Load(); got != 2 {
		t.Errorf("%d model-phase requests, want one per shard", got)
	}
}

// TestCoordinatorConcurrentReadsDuringWrites drives the held state from many
// goroutines at once: four dashboards refresh in a loop while a producer
// keeps writing straight to the shards — sessions, posts, and now and then a
// post landing ahead of its day's folded ones — so social deltas are patched
// onto held days while renders read them. No read may fail while tags move
// under it, and once the producer stops every answer settles on the single
// node's bytes.
func TestCoordinatorConcurrentReadsDuringWrites(t *testing.T) {
	c, _, _ := studyCorpus(t)
	all := sessionData(t, 6)
	cl := buildCluster(t, 2, 2, Options{})
	// Every 500th post is held back and delivered mid-run, behind later
	// posts of its day.
	var first, stragglers []social.Post
	for i, p := range c.Posts[:4000] {
		if i%500 == 250 && c.Posts[i+1].Day == p.Day {
			stragglers = append(stragglers, p)
		} else {
			first = append(first, p)
		}
	}
	ingestBoth(t, cl, all[:2000], first)
	isp := all[0].ISP

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	split := NewClient(cl.coord.pmap, ClientConfig{})
	sc := usaas.NewClientWithOptions(cl.single.URL, usaas.ClientOptions{})
	done := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				for _, p := range dashboardPaths(isp) {
					resp, err := http.Get(cl.coordTS.URL + p)
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s: status %d mid-write", p, resp.StatusCode)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("live-%d", i)
		recs := all[2000+100*i : 2100+100*i]
		posts := c.Posts[4000+100*i : 4100+100*i]
		if i < len(stragglers) {
			posts = append([]social.Post{stragglers[i]}, posts...)
		}
		if _, err := split.IngestSessionsBatch(ctx, id, recs); err != nil {
			t.Fatal(err)
		}
		if _, err := split.IngestPostsBatch(ctx, id+"p", posts); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.IngestSessionsBatch(ctx, id, recs); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.IngestPostsBatch(ctx, id+"p", posts); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()
	refresh(t, cl, isp)
	refresh(t, cl, isp)
	deltas := uint64(0)
	for _, st := range cl.coord.clusterStats().Shards {
		deltas += st.Deltas
	}
	if len(stragglers) < 4 || deltas == 0 {
		t.Errorf("%d stragglers, %d social deltas patched; the run raced no patch against a render", len(stragglers), deltas)
	}
}

// shardStats reads the first shard's gauges from a coordinator's /v1/stats.
func shardStats(t *testing.T, coord string) usaas.ShardStatus {
	t.Helper()
	_, body := get(t, coord, "/v1/stats")
	var sr usaas.StatsResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil || sr.Cluster == nil || len(sr.Cluster.Shards) == 0 {
		t.Fatalf("coordinator /v1/stats: %v: %.300s", err, body)
	}
	return sr.Cluster.Shards[0]
}

// ingestStep sends one session batch and one post batch, either possibly
// empty, through the coordinator and to the reference node.
func ingestStep(t *testing.T, tc *testCluster, id string, recs []telemetry.SessionRecord, posts []social.Post) {
	t.Helper()
	for _, base := range []string{tc.coordTS.URL, tc.single.URL} {
		ingestOne(t, base, id, recs, posts)
	}
}

// TestCoordinatorSocialDeltaByteIdentical drives the social delta through
// the batches that exercise it — one that moves only the session
// generation, one that touches one day, and a post landing ahead of posts
// its day already folded — and requires every answer to stay the single
// node's, with the held social section intact and, squeezed to one entry,
// evicted. With room to hold it, the one-day batch costs the shard that
// owns the day a twentieth of a full social section, or less.
func TestCoordinatorSocialDeltaByteIdentical(t *testing.T) {
	c, _, _ := studyCorpus(t)
	all := sessionData(t, 5)
	tail := c.Posts[len(c.Posts)-3000:]
	// A held-back post: its day gets a later post in the first ingest.
	late := len(c.Posts) / 2
	for c.Posts[late].Day != c.Posts[late+1].Day {
		late++
	}
	first := append(append([]social.Post(nil), c.Posts[:late]...), c.Posts[late+1:len(c.Posts)-len(tail)]...)
	var oneDay []social.Post
	for _, p := range tail {
		if p.Day == tail[0].Day {
			oneDay = append(oneDay, p)
		}
	}
	isp := all[0].ISP

	for _, size := range []int{0, 1} {
		t.Run(fmt.Sprintf("cache%d", size), func(t *testing.T) {
			cl := buildCluster(t, 2, 0, Options{ResultCacheSize: size})
			ingestBoth(t, cl, all[:4000], first)
			assertByteIdentical(t, cl, isp)

			owner := cl.coord.pmap.ShardOf(oneDay[0].Day)
			_, fullSocial := get(t, cl.shards[owner].URL, "/v1/partials?sections=social")
			steps := []struct {
				name  string
				recs  []telemetry.SessionRecord
				posts []social.Post
			}{
				{"sessions only", all[4000:4100], nil},
				{"one day", nil, oneDay},
				{"refold", nil, c.Posts[late : late+1]},
				{"rest", all[4100:], tail[len(oneDay):]},
			}
			for _, st := range steps {
				before := cl.coord.clusterStats()
				ingestStep(t, cl, st.name, st.recs, st.posts)
				// The social section alone first, so its exchange can be read
				// off the gauges.
				if status, body := get(t, cl.coordTS.URL, "/v1/insights/sentiment"); status != http.StatusOK {
					t.Fatalf("%s: sentiment %d %.200s", st.name, status, body)
				}
				after := cl.coord.clusterStats()
				assertByteIdentical(t, cl, isp)
				if size != 0 {
					continue
				}
				for i := range after.Shards {
					b, a := before.Shards[i], after.Shards[i]
					bytes, deltas := a.PartialsBytes-b.PartialsBytes, a.Deltas-b.Deltas
					switch {
					case a.Fetched == b.Fetched:
						// Untouched: the shard's tag held still, a 304.
					case deltas != 1:
						t.Errorf("%s, shard %d: %d social deltas, want 1", st.name, i, deltas)
					case st.posts == nil && bytes > 512:
						t.Errorf("%s, shard %d: an empty delta cost %d bytes", st.name, i, bytes)
					case st.name == "one day" && 20*bytes > uint64(len(fullSocial)):
						t.Errorf("one day, shard %d: %d bytes, more than a twentieth of a full social section (%d)", i, bytes, len(fullSocial))
					}
				}
				if b, a := before.Shards[owner], after.Shards[owner]; st.name == "one day" {
					if a.Deltas == b.Deltas {
						t.Errorf("one day: the owning shard %d answered no delta", owner)
					}
					t.Logf("one day: %d bytes from shard %d, whose full social section is %d", a.PartialsBytes-b.PartialsBytes, owner, len(fullSocial))
				}
			}
		})
	}
}

// TestCoordinatorRefusesOtherPartialsProtocol: a coordinator speaking
// protocol N against a shard whose answers say N+1 — here a rewriting proxy
// in front of an N shard, as in a half-finished rolling upgrade — treats
// the shard as failed, naming it and both numbers; so does an answer with a
// field the protocol lacks, on the first attempt. The clean answers return
// with the shard.
func TestCoordinatorRefusesOtherPartialsProtocol(t *testing.T) {
	c, _, _ := studyCorpus(t)
	all := sessionData(t, 5)
	next := fmt.Sprint(usaas.PartialsProtocol + 1)
	shard := newShardHandler(t, 0)
	var mode atomic.Value
	mode.Store("")
	var partials atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/partials" {
			partials.Add(1)
		}
		rec := httptest.NewRecorder()
		shard.ServeHTTP(rec, r)
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		body := rec.Body.Bytes()
		switch m := mode.Load().(string); {
		case m == "protocol" || m == "model" && r.URL.Path == "/v1/partials/model":
			if w.Header().Get(usaas.PartialsProtocolHeader) != "" {
				w.Header().Set(usaas.PartialsProtocolHeader, next)
			}
		case m == "field" && r.URL.Path == "/v1/partials" && rec.Code == http.StatusOK:
			body = append([]byte(`{"gram":[],`), body[1:]...)
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer ts.Close()
	coord, reference := coordinatorOver(t, 0, ts.URL), coordinatorOver(t, -1, ts.URL)
	ingestOne(t, ts.URL, "a", all[:1500], c.Posts[:3000])

	both := []string{`protocol \"` + next + `\"`, fmt.Sprintf("speaks %d", usaas.PartialsProtocol)}
	for _, tc := range []struct {
		mode, path string
		names      []string
	}{
		{"protocol", "/v1/insights/sentiment", both},
		{"model", "/v1/advice/traffic-engineering", both},
		{"field", "/v1/insights/trends", []string{`unknown field \"gram\"`}},
	} {
		mode.Store(tc.mode)
		before := partials.Load()
		status, body := get(t, coord.URL, tc.path)
		if status != http.StatusServiceUnavailable || !strings.Contains(body, "shard s0 unavailable") {
			t.Errorf("%s: %s answered (%d, %.300s), want a 503 naming the shard", tc.mode, tc.path, status, body)
		}
		for _, name := range tc.names {
			if !strings.Contains(body, name) {
				t.Errorf("%s: %s does not name %s: %.300s", tc.mode, tc.path, name, body)
			}
		}
		if got := partials.Load() - before; got != 1 {
			t.Errorf("%s: %d partials requests, want 1 (a protocol violation is not retried)", tc.mode, got)
		}
	}

	mode.Store("protocol")
	_, body := get(t, coord.URL, "/v1/report")
	var rep usaas.OperatorReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil || !rep.Degraded {
		t.Fatalf("report against another protocol: degraded %v, err %v", rep.Degraded, err)
	}
	notes := 0
	for _, e := range rep.Errors {
		if strings.Contains(e, "shard s0 unavailable") {
			notes++
			if e = strings.ReplaceAll(e, `"`, `\"`); !strings.Contains(e, both[0]) || !strings.Contains(e, both[1]) {
				t.Errorf("report note %q does not name both protocols", e)
			}
		}
	}
	if notes == 0 {
		t.Errorf("report against another protocol names no failed shard: %q", rep.Errors)
	}

	mode.Store("")
	for _, p := range []string{"/v1/insights/sentiment", "/v1/insights/trends", "/v1/advice/traffic-engineering", "/v1/report"} {
		gotStatus, got := get(t, coord.URL, p)
		wantStatus, want := get(t, reference.URL, p)
		if gotStatus != wantStatus || got != want {
			t.Errorf("%s once the shard speaks the protocol again: (%d, %.200s), want (%d, %.200s)", p, gotStatus, got, wantStatus, want)
		}
	}
}
