package usaas

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"

	"usersignals/internal/durable"
	"usersignals/internal/nlp"
	"usersignals/internal/simrand"
	"usersignals/internal/social"
	"usersignals/internal/telemetry"
)

// This file makes post ARRIVAL ORDER an input of the identity tests. Every
// identity matrix used to feed posts in generator (corpus) order, which is
// how a store whose answers depended on arrival order went unnoticed. The
// helpers below produce one multiset of post batches in several delivery
// orders; the matrices (views, pipeline, recovery, cluster) take them as one
// more axis, and the tests in this file pin the post fold itself.

// arrivalPermutations is K: how many seeded delivery orders each matrix
// checks beside corpus order.
const arrivalPermutations = 3

// arrivalBatches cuts corpus-ordered posts into ragged batches and adds the
// two deliveries generator order never produces: a straggler — a post held
// back from the middle of its day, delivered on its own at the end, so it
// lands in an already-populated earlier day — and one post ID replayed under
// a batch ID of its own (a second, identical post: dedup is per batch).
func arrivalBatches(posts []social.Post, prefix string) []ingestBatch {
	hold := len(posts) / 3
	rest := append(append([]social.Post(nil), posts[:hold]...), posts[hold+1:]...)
	var out []ingestBatch
	for i, n := 0, 0; i < len(rest); n++ {
		hi := min(i+17+(n*29)%41, len(rest))
		out = append(out, ingestBatch{id: fmt.Sprintf("%s-%d", prefix, n), posts: rest[i:hi]})
		i = hi
	}
	return append(out,
		ingestBatch{id: prefix + "-straggler", posts: posts[hold : hold+1]},
		ingestBatch{id: prefix + "-replayed-id", posts: posts[2*hold : 2*hold+1]},
	)
}

// permuteBatches returns the batches in a seeded shuffled order; perm 0 is
// the order given.
func permuteBatches(batches []ingestBatch, perm uint64) []ingestBatch {
	if perm == 0 {
		return batches
	}
	out := make([]ingestBatch, len(batches))
	for i, j := range simrand.Root(perm).Derive("usaas/arrival-order").RNG().Perm(len(batches)) {
		out[i] = batches[j]
	}
	return out
}

// inOrderPosts is the in-order reference delivery of a batch multiset: every
// post of every batch, in corpus order.
func inOrderPosts(batches []ingestBatch) []social.Post {
	var all []social.Post
	for _, b := range batches {
		all = append(all, b.posts...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Before(&all[j]) })
	return all
}

// identityPaths is every read endpoint whose bytes the identity matrices
// compare (the cluster tests compare the same 19 through a coordinator).
func identityPaths(isp string) []string {
	return []string{
		"/v1/report",
		"/v1/report?format=text",
		"/v1/insights/engagement?metric=latency-mean-ms&engagement=presence&lo=0&hi=300&bins=8",
		"/v1/insights/engagement?metric=loss-mean-pct&engagement=cam_on&lo=0&hi=4&bins=10",
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
		"/v1/insights/incidents?engagement=cam_on&min_drop=0.05",
		"/v1/query/experience?isp=" + isp,
	}
}

// endpointBodies serves every identity path from a fresh uncached server
// over the store and returns status and body per path. Thin data answers
// some paths with an error status; those bytes must be identical too.
func endpointBodies(t testing.TB, store *Store, opts ServerOptions, isp string) []string {
	t.Helper()
	opts.ResultCacheSize = -1
	h := NewServer(store, opts).Handler()
	paths := identityPaths(isp)
	out := make([]string, len(paths))
	for i, p := range paths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		out[i] = fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes())
	}
	return out
}

// assertSameBodies compares two endpointBodies results path by path.
func assertSameBodies(t testing.TB, label string, got, want []string, isp string) {
	t.Helper()
	for i, p := range identityPaths(isp) {
		if got[i] != want[i] {
			t.Errorf("%s: %s differs\n got: %.300s\nwant: %.300s", label, p, got[i], want[i])
		}
	}
}

// speedHeavyPosts thins the study corpus to every screenshot post plus one
// in twelve of the rest: small enough to journal quickly, with enough speed
// reports that attributing sentiment to the wrong posts moves Fig. 7.
func speedHeavyPosts(t *testing.T) []social.Post {
	t.Helper()
	c, _, _ := studyCorpus(t)
	var out []social.Post
	for i := range c.Posts {
		if c.Posts[i].Screenshot != nil || i%12 == 0 {
			out = append(out, c.Posts[i])
		}
	}
	return out
}

// TestOutOfOrderPostsLiveEqualsRecovered is the regression test for the
// defect the benchmark found: once post batches arrive out of (day, id)
// order, a live node's /v1/insights/speeds and the report's
// speed_pos_correlation must equal both the in-order reference and the same
// node after recovery. (The parent commit re-sorted its own post array in
// place under indices the speed view kept, and fails all three.)
func TestOutOfOrderPostsLiveEqualsRecovered(t *testing.T) {
	_, news, cfg := studyCorpus(t)
	opts := ServerOptions{News: news, Model: cfg.Model, ResultCacheSize: -1}
	posts := speedHeavyPosts(t)
	batches := arrivalBatches(posts, "ooo")

	answers := func(store *Store) (speeds string, corr float64) {
		h := NewServer(store, opts).Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/insights/speeds", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("speeds: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return rec.Body.String(), BuildReport(store, nil, opts).SpeedPosCorr
	}

	ref := &Store{}
	if err := ref.AddPosts(inOrderPosts(batches)); err != nil {
		t.Fatal(err)
	}
	wantSpeeds, wantCorr := answers(ref)
	if wantCorr == 0 {
		t.Fatal("reference has no speed/sentiment correlation; the dataset cannot show the defect")
	}

	for perm := uint64(1); perm <= arrivalPermutations; perm++ {
		dir := t.TempDir()
		dopts := DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff}
		d, err := OpenDurableStore(dopts)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range permuteBatches(batches, perm) {
			applyBatch(t, d.Store, b)
		}
		liveSpeeds, liveCorr := answers(d.Store)
		if liveSpeeds != wantSpeeds || liveCorr != wantCorr {
			t.Errorf("perm %d: live answers differ from the in-order reference (corr %v, want %v)", perm, liveCorr, wantCorr)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d2, err := OpenDurableStore(dopts)
		if err != nil {
			t.Fatal(err)
		}
		recSpeeds, recCorr := answers(d2.Store)
		if recSpeeds != liveSpeeds || recCorr != liveCorr {
			t.Errorf("perm %d: recovered answers differ from the live node's (corr %v, live %v)", perm, recCorr, liveCorr)
		}
		d2.Close()
	}
}

// TestColdSocialReadsScoreNothing pins "no read-path sweep": after one small
// post batch lands in a preloaded store, the cold report, the five social
// endpoints and the social partials are served without tokenising or
// scoring a single post; an in-order batch folds no existing day again, and
// an out-of-order one folds again exactly the days it touches. It pins what
// the node's read path costs too: the cold pass builds the term rows at most
// once for its post generation, a warm pass collects no partials, and once
// the rows are built a post batch costs one patch of them and no full
// build, none of it for sentiment, peaks and outages.
func TestColdSocialReadsScoreNothing(t *testing.T) {
	c, news, cfg := studyCorpus(t)
	store := &Store{}
	recs := viewSessions(t, 6, 600)
	store.AddSessions(recs)
	experience := "/v1/query/experience?isp=" + recs[0].ISP
	n := len(c.Posts) - 60
	if err := store.AddPosts(c.Posts[:n]); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerOptions{News: news, Model: cfg.Model})
	h := srv.Handler()
	refolds := func() int {
		store.postMu.RLock()
		defer store.postMu.RUnlock()
		return store.refolds
	}
	termWork := func() (builds, patches int) {
		store.termRows.mu.Lock()
		defer store.termRows.mu.Unlock()
		return store.termRows.builds, store.termRows.patches
	}
	serve := func(pass string, paths ...string) {
		t.Helper()
		for _, p := range paths {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %.200s", pass, p, rec.Code, rec.Body.Bytes())
			}
		}
	}

	before := postsAnalyzed.Load()
	if err := store.AddPosts(c.Posts[n : n+20]); err != nil { // continues the newest day, in ID order
		t.Fatal(err)
	}
	if got := postsAnalyzed.Load() - before; got != 20 {
		t.Fatalf("ingesting 20 posts analysed %d", got)
	}
	if got := refolds(); got != 0 {
		t.Fatalf("in-order ingest folded %d existing day(s) again", got)
	}

	paths := []string{
		"/v1/report",
		"/v1/insights/sentiment",
		"/v1/insights/peaks",
		"/v1/insights/outages",
		"/v1/insights/speeds",
		"/v1/insights/trends",
		experience,
		"/v1/partials?sections=social,speeds",
	}
	before = postsAnalyzed.Load()
	builds, patches := termWork()
	serve("cold", paths...)
	if got := postsAnalyzed.Load() - before; got != 0 {
		t.Errorf("cold social reads analysed %d post(s); the read path must analyse none", got)
	}
	if b, p := termWork(); b-builds+p-patches > 1 {
		t.Errorf("the cold pass built the term rows %d times and patched them %d times in one post generation", b-builds, p-patches)
	}
	merges, misses := srv.reads.Merges(), srv.CacheMetrics().Misses
	serve("warm", paths...)
	if got, missed := srv.reads.Merges()-merges, srv.CacheMetrics().Misses-misses; got != 0 || missed != 0 {
		t.Errorf("the warm pass collected partials for %d reads and missed the cache %d times, want none", got, missed)
	}
	if err := store.AddPosts(c.Posts[n+20 : n+30]); err != nil {
		t.Fatal(err)
	}
	builds, patches = termWork()
	serve("after a post batch", "/v1/insights/sentiment", "/v1/insights/peaks", "/v1/insights/outages")
	if b, p := termWork(); b != builds || p != patches {
		t.Errorf("sentiment, peaks and outages built the term rows %d times and patched them %d times", b-builds, p-patches)
	}
	serve("after a post batch", "/v1/report", "/v1/insights/trends")
	if b, p := termWork(); b != builds || p != patches+1 {
		t.Errorf("a post batch cost %d full builds and %d patches of the term rows, want 0 and 1", b-builds, p-patches)
	}

	// Two posts that sort ahead of posts their days already hold: exactly
	// those two days fold again, from cached facts.
	early, mid := c.Posts[0], c.Posts[n/2]
	early.ID, mid.ID = 0, 0
	before = postsAnalyzed.Load()
	if err := store.AddPosts([]social.Post{mid, early}); err != nil {
		t.Fatal(err)
	}
	if got := refolds(); got != 2 {
		t.Errorf("out-of-order ingest into two days folded %d day(s) again, want 2", got)
	}
	if got := postsAnalyzed.Load() - before; got != 2 {
		t.Errorf("out-of-order ingest of 2 posts analysed %d", got)
	}
}

// termRowsFromScratch regroups every day of a view by term, sorted by
// spelling: the full build the memo's patched rows must equal.
func termRowsFromScratch(v *socialView) []TermPartial {
	at := map[string]int{}
	var out []TermPartial
	for _, d := range v.dayPartials(0) {
		for j, term := range d.Terms {
			k, ok := at[term]
			if !ok {
				k = len(out)
				at[term] = k
				out = append(out, TermPartial{Term: term})
			}
			tp := &out[k]
			tp.Days = append(tp.Days, DayWeight{Day: d.Day, Weight: d.Weights[j]})
			tp.Pos += d.Pos[j]
			tp.Total += d.Total[j]
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Term < out[j].Term })
	return out
}

// TestTermRowsPatchMatchesFullBuild: the node builds its term rows once and
// then patches them by the days each post generation folded. After in-order
// 20-post batches, a 500-post batch over several days, out-of-order posts
// that fold days again and concurrent readers, the rows equal a full build;
// a reader holding an older view gets its own generation's rows without
// moving the memo back.
func TestTermRowsPatchMatchesFullBuild(t *testing.T) {
	c, _, _ := studyCorpus(t)
	store := &Store{}
	add := func(posts []social.Post) {
		t.Helper()
		if err := store.AddPosts(posts); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string, v *socialView) {
		t.Helper()
		if got, want := v.terms(), termRowsFromScratch(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the term rows of post generation %d differ from a full build", step, v.gen)
		}
	}
	n := len(c.Posts) * 8 / 10
	add(c.Posts[:n])
	check("preload", store.social())
	for i := 0; i < 10; i++ {
		add(c.Posts[n : n+20])
		n += 20
		check(fmt.Sprintf("in-order batch %d", i), store.social())
	}
	if days := c.Posts[n+499].Day - c.Posts[n].Day; days < 2 {
		t.Fatalf("the 500-post batch spans %d days", days+1)
	}
	add(c.Posts[n : n+500])
	n += 500
	check("a 500-post batch", store.social())

	var late []social.Post
	for _, i := range []int{0, n / 3, n / 2, n - 1} {
		p := c.Posts[i]
		p.ID = 0 // sorts ahead of every post its day holds
		late = append(late, p)
	}
	store.postMu.RLock()
	refolds := store.refolds
	store.postMu.RUnlock()
	add(late)
	store.postMu.RLock()
	refolds = store.refolds - refolds
	store.postMu.RUnlock()
	if refolds != len(late) {
		t.Fatalf("%d out-of-order posts folded %d days again", len(late), refolds)
	}
	check("out-of-order posts", store.social())

	old := store.social()
	add(c.Posts[n : n+20])
	n += 20
	cur := store.social()
	check("the newer view", cur)
	check("an older view, after the newer", old)
	m := &store.termRows
	if m.gen != cur.gen {
		t.Fatalf("reading an older view moved the memo from generation %d to %d", cur.gen, m.gen)
	}
	patches := m.patches
	check("the newer view again", cur)
	if m.patches != patches {
		t.Errorf("the newer view was patched again after an older view was read")
	}

	// Readers of every generation share the memo while batches land.
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				v := store.social()
				if !reflect.DeepEqual(v.terms(), termRowsFromScratch(v)) {
					t.Errorf("a concurrent reader's term rows of post generation %d differ from a full build", v.gen)
				}
				old.terms()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		add(c.Posts[n : n+20])
		n += 20
	}
	wg.Wait()
	check("after concurrent readers", store.social())
	if m.builds != 1 {
		t.Errorf("the term rows were built in full %d times, want once", m.builds)
	}
}

// TestTrafficEngineeringAdviceComputedOncePerGeneration: the report and the
// advice endpoint share the store's one TE fold, which visits each row once
// while the model holds still — a second read of a generation folds
// nothing, a rating-free batch folds exactly its rows — and refolds from row
// 0 when a rating retrains the model.
func TestTrafficEngineeringAdviceComputedOncePerGeneration(t *testing.T) {
	recs := viewSessions(t, 6, 2000)
	// The tail splits into a rating-free 20-row batch and the rest, which
	// carries ratings.
	var quiet, rated []telemetry.SessionRecord
	for _, r := range recs[1500:] {
		if !r.Rated && len(quiet) < 20 {
			quiet = append(quiet, r)
		} else {
			rated = append(rated, r)
		}
	}
	if len(quiet) != 20 || len(ratedOnly(rated)) == 0 {
		t.Fatalf("tail split into %d quiet rows and %d rated ones", len(quiet), len(ratedOnly(rated)))
	}
	arrived := append(append(append([]telemetry.SessionRecord(nil), recs[:1500]...), quiet...), rated...)

	store := &Store{}
	h := NewServer(store, ServerOptions{ResultCacheSize: -1}).Handler()
	ask := func(step string, n, wantFolded int) {
		t.Helper()
		before := store.te.visited
		got := servedAdvice(h)
		rep := BuildReport(store, nil, ServerOptions{})
		if folded := store.te.visited - before; folded != wantFolded {
			t.Errorf("%s: advice and report folded %d rows, want %d", step, folded, wantFolded)
		}
		want, err := AdviseTrafficEngineering(arrived[:n])
		if err != nil {
			t.Fatal(err)
		}
		if got != adviceAnswer(want, nil) || marshal(t, rep.TEAdvice) != marshal(t, want) {
			t.Errorf("%s: advice differs from a from-scratch fold of the %d sessions", step, n)
		}
	}
	store.AddSessions(recs[:1500])
	ask("first read", 1500, 1500)
	ask("same generation", 1500, 0)
	store.AddSessions(quiet)
	ask("rating-free batch", 1520, 20)
	store.AddSessions(rated)
	ask("rated batch", len(arrived), len(arrived))
}

// foldReference folds a corpus from scratch with the offline sweep and its
// companions: what a store holding the same posts must serve, whatever
// order they arrived in.
type foldReference struct {
	Sweep          *Sweep
	Clouds         []DayCloud
	Speeds         []MonthSpeed
	Pos, Neg       int
	OutageMentions int
}

func referenceFold(c *social.Corpus) foldReference {
	an, dict := nlp.NewAnalyzer(), nlp.OutageDictionary()
	ref := foldReference{
		Sweep:  SweepCorpus(c, an, SweepOptions{Sentiment: true, Dict: dict, Gate: true, Trends: &TrendOptions{}}),
		Speeds: MonthlySpeeds(c, an, nil, 1),
	}
	for _, ds := range ref.Sweep.Sentiment {
		ref.Pos += ds.StrongPos
		ref.Neg += ds.StrongNeg
		if ds.Posts > 0 {
			ref.Clouds = append(ref.Clouds, DayCloud{Day: ds.Day, Words: dayWordCloud(c, ds.Day, cloudWords)})
		}
	}
	for i := range c.Posts {
		p := &c.Posts[i]
		if s := an.Score(p.Text()); s.Negative > s.Positive && dict.Matches(p.ThreadText()) {
			ref.OutageMentions++
		}
	}
	return ref
}

// storeFold is what the store serves of the same: its read plans' social
// parts, the clouds of its wire form and its experience counts.
func storeFold(s *Store) foldReference {
	v := s.social()
	p := servedSocial(s)
	got := foldReference{
		Sweep:  &Sweep{Sentiment: p.sentiment(), Keywords: p.keywords(), Trends: p.trends(TrendOptions{})},
		Clouds: socialRowsOf(v.dayPartials(0), nil).Clouds,
		Speeds: MergeSpeeds(p.window, p.speeds, nil, 1),
	}
	got.Pos, got.Neg, got.OutageMentions = v.experienceCounts()
	return got
}

// servedSocial is the store's post-side state as its read plans see it (nil
// without posts).
func servedSocial(s *Store) *socialParts {
	p, _ := socialPartsOf(s.gather([]Section{{Name: SectionSocial}, {Name: SectionSpeeds}}).Bundles)
	return p
}

// FuzzPostFoldEquivalence: for random batch cuts, delivery orders and
// duplicate deliveries of a post pool, the store's incremental per-day
// accumulators serve exactly what the offline sweep computes over the
// sorted corpus of the same posts.
func FuzzPostFoldEquivalence(f *testing.F) {
	_, pool := crashDataset(f, 31)
	pool = pool[:120]
	f.Add([]byte{0})
	f.Add([]byte{7, 3, 250, 1, 9, 9, 40, 200, 13})
	f.Add([]byte{255, 254, 253, 0, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, plan []byte) {
		if len(plan) > 64 {
			plan = plan[:64]
		}
		// Each plan byte delivers one batch: a start in the pool and a
		// length. Starts wander, so batches overlap (duplicate posts under
		// new batch IDs), interleave days and arrive out of order.
		store := &Store{}
		var all []social.Post
		for i, b := range plan {
			lo := (int(b) * 7) % len(pool)
			hi := min(lo+1+int(b)%23, len(pool))
			batch := pool[lo:hi]
			if i%5 == 4 { // and now and then a batch that is itself unsorted
				batch = append([]social.Post(nil), batch...)
				batch[0], batch[len(batch)-1] = batch[len(batch)-1], batch[0]
			}
			if _, _, err := store.AddPostsBatch(fmt.Sprintf("fz-%d", i), batch); err != nil {
				t.Fatal(err)
			}
			all = append(all, batch...)
		}
		if len(all) == 0 {
			if store.social() != nil {
				t.Fatal("empty store has a social view")
			}
			return
		}
		sorted := inOrderPosts([]ingestBatch{{posts: all}})
		c := store.Corpus()
		if !sameJSON(c.Posts, sorted) {
			t.Fatal("Corpus() is not the sorted multiset of delivered posts")
		}
		if got, want := storeFold(store), referenceFold(c); !sameJSON(got, want) {
			t.Errorf("incremental fold differs from the offline sweep\n got: %.600s\nwant: %.600s", mustJSON(got), mustJSON(want))
		}
	})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func sameJSON(a, b any) bool { return bytes.Equal(mustJSON(a), mustJSON(b)) }
