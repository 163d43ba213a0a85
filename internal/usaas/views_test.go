package usaas

import (
	"context"
	"fmt"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"
	"time"

	"usersignals/internal/conference"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// viewSessions generates a session dataset large enough to cross multiple
// canonical chunk boundaries, so the incremental fold's merged/tail split is
// actually exercised.
func viewSessions(t *testing.T, seed uint64, n int) []telemetry.SessionRecord {
	t.Helper()
	opts := conference.Defaults(seed, n)
	opts.SurveyRate = 0.08
	g, err := conference.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := g.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// unevenBatches cuts recs into ragged batches: a one-record batch, batches
// on both sides of a chunk boundary, and the tail.
func unevenBatches(recs []telemetry.SessionRecord) [][]telemetry.SessionRecord {
	var out [][]telemetry.SessionRecord
	prev := 0
	for _, cut := range []int{1, 600, 2047, 2048, 2049, 4500, len(recs)} {
		cut = min(cut, len(recs))
		out = append(out, recs[prev:cut])
		prev = cut
	}
	return out
}

// ingestUnevenly loads records into a store through ragged batches, duplicate
// replays, and an empty batch — the shapes at-least-once delivery produces.
func ingestUnevenly(t *testing.T, s *Store, recs []telemetry.SessionRecord) {
	t.Helper()
	for i, batch := range unevenBatches(recs) {
		id := fmt.Sprintf("uneven-%d", i)
		if _, dup, _ := s.AddSessionsBatch(id, batch); dup {
			t.Fatalf("batch %s unexpectedly duplicate", id)
		}
		// Replay every batch once; the dedup layer must drop it before the
		// views fold, or every accumulator double-counts.
		if _, dup, _ := s.AddSessionsBatch(id, batch); !dup {
			t.Fatalf("replay of batch %s not detected", id)
		}
	}
	if _, dup, _ := s.AddSessionsBatch("uneven-empty", nil); dup {
		t.Fatal("empty batch reported duplicate")
	}
}

// marshal renders a value for exact comparison. fmt's %+v is used instead of
// JSON because empty bins legitimately carry NaN, which encoding/json
// rejects; %+v formats every float with its shortest round-trip
// representation, so equal text means equal values bit-for-bit (the HTTP
// tests below additionally compare literal response bytes).
func marshal(t *testing.T, v any) string {
	t.Helper()
	return fmt.Sprintf("%+v", v)
}

// TestViewsByteIdenticalToRecompute is the core equivalence property: every
// view-served analysis must render byte-identically to the PR-1 batch
// primitives recomputing from a snapshot, regardless of how the records were
// batched on the way in.
func TestViewsByteIdenticalToRecompute(t *testing.T) {
	for _, seed := range []uint64{5, 6, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			recs := viewSessions(t, seed, 5000)
			if len(recs) <= 4096 {
				t.Fatalf("only %d records; need >2 chunk boundaries", len(recs))
			}
			store := &Store{}
			ingestUnevenly(t, store, recs)

			// Dose-response, unfiltered and ISP-filtered, at two binnings.
			for _, tc := range []struct {
				metric telemetry.Metric
				eng    telemetry.Engagement
				lo, hi float64
				bins   int
				isp    string
			}{
				{telemetry.LatencyMean, telemetry.Presence, 0, 300, 8, ""},
				{telemetry.LossMean, telemetry.CamOn, 0, 4, 10, ""},
				{telemetry.LatencyMean, telemetry.MicOn, 0, 300, 6, recs[0].ISP},
			} {
				var filter telemetry.Filter
				if tc.isp != "" {
					filter = telemetry.OnISP(tc.isp)
				}
				// DoseResponseDaily is the canonical reference: the views and
				// the cluster coordinator both replicate its per-day fold.
				want := DoseResponseDaily(recs, tc.metric, tc.eng, stats.NewBinner(tc.lo, tc.hi, tc.bins), filter)
				got := store.DoseResponseSeries(tc.metric, tc.eng, stats.NewBinner(tc.lo, tc.hi, tc.bins), tc.isp)
				if marshal(t, got) != marshal(t, want) {
					t.Errorf("DoseResponseSeries(%v,%v,isp=%q) diverges from recompute", tc.metric, tc.eng, tc.isp)
				}
				// Second read must hit the registered view and still agree.
				again := store.DoseResponseSeries(tc.metric, tc.eng, stats.NewBinner(tc.lo, tc.hi, tc.bins), tc.isp)
				if marshal(t, again) != marshal(t, want) {
					t.Errorf("registered view for (%v,%v,isp=%q) diverges", tc.metric, tc.eng, tc.isp)
				}
			}

			// Daily engagement.
			if got, want := marshal(t, store.dailySince(0)), marshal(t, DailyEngagement(recs, nil)); got != want {
				t.Error("the daily view diverges from DailyEngagement")
			}

			// Confounders and per-ISP experience: views registered after all
			// ingest (one catch-up fold) and halfway through it (the rest
			// folded at ingest) must both equal the recompute.
			early := &Store{}
			isp := recs[0].ISP
			for i, batch := range unevenBatches(recs) {
				early.AddSessions(batch)
				if i == 2 {
					early.confounderPartials(telemetry.CamOn, 0)
					early.experiencePartial(isp, 0)
				}
			}
			wantConf, err := ConfounderReport(recs, telemetry.CamOn)
			if err != nil {
				t.Fatal(err)
			}
			wantExp := naiveExperience(recs, isp)
			for name, s := range map[string]*Store{"registered after ingest": store, "registered midway": early} {
				gotConf, err := assembleConfounders(s.confounderPartials(telemetry.CamOn, 0))
				if err != nil || marshal(t, gotConf) != marshal(t, wantConf) {
					t.Errorf("%s: confounder view diverges from ConfounderReport (%v)", name, err)
				}
				if got := s.experiencePartial(isp, 0); marshal(t, got) != marshal(t, wantExp) {
					t.Errorf("%s: experience view diverges from the per-day recompute", name)
				}
			}

			// Rated-subsequence MOS paths.
			rated, total := store.RatedSessions()
			if total != len(recs) {
				t.Fatalf("total = %d, want %d", total, len(recs))
			}
			wantMOS, err1 := MOSReport(recs, 10, nil)
			gotMOS, err2 := mosReportRated(rated, 10, nil)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("MOS errors diverge: %v vs %v", err1, err2)
			}
			if marshal(t, gotMOS) != marshal(t, wantMOS) {
				t.Error("mosReportRated over view diverges from MOSReport")
			}
			wantEval, err1 := EvaluateMOSPredictor(recs, 0.7, 1.0)
			gotEval, err2 := newRatedSet(rated, new(ratedFits)).evaluation(total)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("predictor errors diverge: %v vs %v", err1, err2)
			}
			if marshal(t, gotEval) != marshal(t, wantEval) {
				t.Error("the rated set's evaluation over the view diverges")
			}
		})
	}
}

// naiveExperience recomputes the experience section for one ISP by walking
// every record: per day, engagement accumulators in arrival order and exact
// rating sums.
func naiveExperience(recs []telemetry.SessionRecord, isp string) *ExperiencePartial {
	type acc struct {
		pres, cam, mic stats.Online
		sum, n         int
	}
	days := map[timeline.Day]*acc{}
	out := &ExperiencePartial{}
	for i := range recs {
		r := &recs[i]
		if r.ISP != isp {
			continue
		}
		out.Sessions++
		d := timeline.DayOf(r.Start)
		if days[d] == nil {
			days[d] = &acc{}
		}
		a := days[d]
		a.pres.Add(r.PresencePct)
		a.cam.Add(r.CamOnPct)
		a.mic.Add(r.MicOnPct)
		if r.Rated {
			a.sum += r.Rating
			a.n++
		}
	}
	keys := make([]timeline.Day, 0, len(days))
	for d := range days {
		keys = append(keys, d)
	}
	slices.Sort(keys)
	out.Days = []ExperienceDayPartial{}
	for _, d := range keys {
		a := days[d]
		out.Days = append(out.Days, ExperienceDayPartial{Day: d, Pres: a.pres.State(), Cam: a.cam.State(), Mic: a.mic.State(), RatingSum: a.sum, RatingN: a.n})
	}
	return out
}

// TestSpeedsViewByteIdenticalToRecompute checks the Fig. 7 path: ingest-time
// OCR extraction plus query-time assembly must reproduce MonthlySpeeds over
// the corpus exactly, including under split batches and duplicate replays.
func TestSpeedsViewByteIdenticalToRecompute(t *testing.T) {
	c, _, cfg := studyCorpus(t)
	store := &Store{}
	posts := c.Posts
	half := len(posts) / 2
	if _, dup, _ := store.AddPostsBatch("sp-1", posts[:half]); dup {
		t.Fatal("first post batch duplicate")
	}
	if _, dup, _ := store.AddPostsBatch("sp-1", posts[:half]); !dup {
		t.Fatal("post replay not detected")
	}
	if _, dup, _ := store.AddPostsBatch("sp-2", posts[half:]); dup {
		t.Fatal("second post batch duplicate")
	}

	want := MonthlySpeeds(store.Corpus(), analyzer, cfg.Model, 1)
	p := servedSocial(store)
	if p == nil {
		t.Fatal("social view reported no posts")
	}
	if marshal(t, MergeSpeeds(p.window, p.speeds, cfg.Model, 1)) != marshal(t, want) {
		t.Error("monthly speeds from the day accumulators diverge from MonthlySpeeds over corpus")
	}
}

// TestDuplicateReplayLeavesViewsUnchanged re-sends an already-acknowledged
// batch and asserts no view output moves and no generation bumps.
func TestDuplicateReplayLeavesViewsUnchanged(t *testing.T) {
	recs := viewSessions(t, 5, 5000)
	store := &Store{}
	if _, dup, _ := store.AddSessionsBatch("replay-me", recs); dup {
		t.Fatal("fresh batch reported duplicate")
	}
	b := stats.NewBinner(0, 300, 8)
	before := marshal(t, store.DoseResponseSeries(telemetry.LatencyMean, telemetry.Presence, b, ""))
	beforeDaily := marshal(t, store.dailySince(0))
	sg1, pg1 := store.Generations()

	resp, dup, _ := store.AddSessionsBatch("replay-me", recs)
	if !dup || !resp.Duplicate {
		t.Fatalf("replay not detected: %+v dup=%v", resp, dup)
	}
	sg2, pg2 := store.Generations()
	if sg1 != sg2 || pg1 != pg2 {
		t.Fatalf("generations moved on replay: (%d,%d) -> (%d,%d)", sg1, pg1, sg2, pg2)
	}
	if after := marshal(t, store.DoseResponseSeries(telemetry.LatencyMean, telemetry.Presence, b, "")); after != before {
		t.Error("dose-response view changed after duplicate replay")
	}
	if after := marshal(t, store.dailySince(0)); after != beforeDaily {
		t.Error("daily view changed after duplicate replay")
	}
	rated, total := store.RatedSessions()
	if total != len(recs) {
		t.Fatalf("total = %d after replay, want %d", total, len(recs))
	}
	for i := range rated {
		if !rated[i].Rated {
			t.Fatal("unrated record in rated view")
		}
	}
}

// TestServedResponsesIdenticalAcrossIngestShapes drives the full HTTP path:
// a server fed one big batch and a server fed ragged batches with replays
// must return byte-identical bodies, warm or cold.
func TestServedResponsesIdenticalAcrossIngestShapes(t *testing.T) {
	recs := viewSessions(t, 6, 5000)
	c, news, cfg := studyCorpus(t)

	storeA := &Store{}
	storeA.AddSessions(recs)
	storeA.AddPosts(c.Posts)
	storeB := &Store{}
	ingestUnevenly(t, storeB, recs)
	half := len(c.Posts) / 2
	storeB.AddPostsBatch("p-1", c.Posts[:half])
	storeB.AddPostsBatch("p-1", c.Posts[:half]) // replay
	storeB.AddPostsBatch("p-2", c.Posts[half:])

	opts := ServerOptions{News: news, Model: cfg.Model}
	tsA := httptest.NewServer(NewServer(storeA, opts).Handler())
	defer tsA.Close()
	tsB := httptest.NewServer(NewServer(storeB, opts).Handler())
	defer tsB.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	paths := []string{
		"/v1/insights/engagement?metric=latency-mean-ms&engagement=presence&lo=0&hi=300&bins=8",
		"/v1/insights/mos",
		"/v1/insights/incidents?engagement=presence",
		"/v1/insights/speeds",
		"/v1/report",
	}
	for _, p := range paths {
		coldA := fetchBody(t, ctx, tsA.URL+p)
		coldB := fetchBody(t, ctx, tsB.URL+p)
		if coldA != coldB {
			t.Errorf("%s: single-batch and ragged-batch stores disagree", p)
		}
		// Warm (cached) reads must replay the identical bytes.
		if warm := fetchBody(t, ctx, tsB.URL+p); warm != coldB {
			t.Errorf("%s: warm response differs from cold", p)
		}
	}

	// Arrival order as an ingest shape: one multiset of post batches — a
	// straggler into an earlier day and a replayed post ID included — must
	// serve the same bytes on all 19 paths in any delivery order as when
	// delivered as one batch in corpus order.
	isp := recs[0].ISP
	postBatches := arrivalBatches(c.Posts, "arrive")
	ref := &Store{}
	ref.AddSessions(recs)
	ref.AddPosts(inOrderPosts(postBatches))
	want := endpointBodies(t, ref, opts, isp)
	for perm := uint64(1); perm <= arrivalPermutations; perm++ {
		store := &Store{}
		ingestUnevenly(t, store, recs)
		for _, b := range permuteBatches(postBatches, perm) {
			applyBatch(t, store, b)
		}
		assertSameBodies(t, fmt.Sprintf("arrival permutation %d", perm), endpointBodies(t, store, opts, isp), want, isp)
	}
}

// TestViewRegistryOutlivesOneOffKeys: a dashboard refreshes after every
// batch while another client asks 1,000 one-off dose parameterizations and
// 1,000 one-off ISPs, starting before the dashboard and filling every kind's
// registry. The dashboard's keys displace keys read once, and, read in
// every generation, stay registered however many keys are read once after
// them — even a burst of more than the registry holds, between a batch and
// the dashboard's refresh, where plain LRU would drop them: after its first
// refresh its reads fold no row at read time. No kind ever holds more than
// maxEngViews views, and every answer is the bytes of a store that never saw
// the one-off keys.
func TestViewRegistryOutlivesOneOffKeys(t *testing.T) {
	recs := slices.Clone(mixDataset(t))
	for i := 1; i < len(recs); i += 2 { // 1,000 ISPs of a few sessions each
		recs[i].ISP = fmt.Sprintf("one-off-%d", i/2%1000)
	}
	const cycles = 10
	squatted := &Store{}
	srv := NewServer(squatted, ServerOptions{ResultCacheSize: -1})
	ref := NewServer(&Store{}, ServerOptions{ResultCacheSize: -1})
	get := func(s *Server, path string) string {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	readFolded := func() int {
		squatted.sessMu.RLock()
		defer squatted.sessMu.RUnlock()
		return squatted.views.readFolded
	}
	dashboard := []string{
		"/v1/insights/engagement?metric=latency-mean-ms&engagement=mic-on",
		"/v1/insights/engagement?metric=loss-mean-pct&engagement=presence&hi=5",
		"/v1/insights/confounders?engagement=presence",
		"/v1/query/experience?isp=" + url.QueryEscape(recs[0].ISP),
		"/v1/report",
	}
	var oneOffs []string
	for i := 0; i < 1000; i++ {
		oneOffs = append(oneOffs,
			fmt.Sprintf("/v1/insights/engagement?metric=latency-mean-ms&engagement=presence&hi=%d", 301+i),
			fmt.Sprintf("/v1/query/experience?isp=one-off-%d", i))
	}
	share := func(c int) []string { // 200 before the dashboard starts, the rest spread over its refreshes
		if c == 0 {
			return oneOffs[:200]
		}
		return oneOffs[200+(c-1)*1800/(cycles-1) : 200+c*1800/(cycles-1)]
	}
	askOneOffs := func(c int) {
		for _, path := range share(c) {
			get(srv, path)
		}
	}
	for c := 0; c < cycles; c++ {
		half, rest := len(recs)/2, len(recs)-len(recs)/2
		batch := recs[:half] // a preload, then cycles-1 batches
		if c > 0 {
			batch = recs[half+(c-1)*rest/(cycles-1) : half+c*rest/(cycles-1)]
		}
		for _, s := range []*Store{squatted, ref.store} {
			if _, _, err := s.AddSessionsBatch(fmt.Sprint("b", c), batch); err != nil {
				t.Fatal(err)
			}
		}
		// From its third refresh on the dashboard has been read in two
		// generations; every other cycle the burst comes before it.
		burstFirst := c >= 3 && c%2 == 1
		if burstFirst {
			askOneOffs(c)
		}
		before := readFolded()
		for _, path := range dashboard[:min(c, 1)*len(dashboard)] {
			if got, want := get(srv, path), get(ref, path); got != want {
				t.Fatalf("cycle %d: %s differs from the reference store's", c, path)
			}
		}
		if folded := readFolded() - before; c > 1 && folded != 0 {
			t.Fatalf("cycle %d: the dashboard's reads folded %d rows at read time", c, folded)
		}
		if !burstFirst {
			askOneOffs(c)
		}
		squatted.sessMu.RLock()
		eng, conf, exp := len(squatted.views.eng), len(squatted.views.conf), len(squatted.views.exp)
		squatted.sessMu.RUnlock()
		if eng > maxEngViews || conf > maxEngViews || exp > maxEngViews {
			t.Fatalf("cycle %d: %d dose, %d confounder and %d experience views, want at most %d each", c, eng, conf, exp, maxEngViews)
		}
	}
	// A one-off key asked again, displaced or not, answers a fresh store's
	// bytes.
	fresh := NewServer(&Store{}, ServerOptions{ResultCacheSize: -1})
	if _, _, err := fresh.store.AddSessionsBatch("all", recs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(oneOffs); i += 97 {
		if got, want := get(srv, oneOffs[i]), get(fresh, oneOffs[i]); got != want {
			t.Fatalf("%s differs from a fresh store's", oneOffs[i])
		}
	}
}
