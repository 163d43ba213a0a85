package usaas

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// newTestService spins up a server over httptest with both signal families
// ingested through the public API.
func newTestService(t *testing.T) (*Client, string, func()) {
	t.Helper()
	c, news, cfg := studyCorpus(t)
	srv := NewServer(nil, ServerOptions{News: news, Model: cfg.Model})
	ts := httptest.NewServer(srv.Handler())
	client := NewClient(ts.URL, ts.Client())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)

	if _, err := client.IngestSessions(ctx, mixDataset(t)); err != nil {
		ts.Close()
		t.Fatal(err)
	}
	// Ingest posts in batches to exercise repeated ingestion.
	posts := c.Posts
	half := len(posts) / 2
	if _, err := client.IngestPosts(ctx, posts[:half]); err != nil {
		ts.Close()
		t.Fatal(err)
	}
	if _, err := client.IngestPosts(ctx, posts[half:]); err != nil {
		ts.Close()
		t.Fatal(err)
	}
	return client, ts.URL, ts.Close
}

func TestServiceEndToEnd(t *testing.T) {
	client, baseURL, closeFn := newTestService(t)
	defer closeFn()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Stats reflect both ingests.
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions == 0 || st.Posts == 0 {
		t.Fatalf("stats = %+v", st)
	}

	// Engagement insight over HTTP matches a local computation shape.
	eng, err := client.Engagement(ctx, EngagementQuery{
		Metric: telemetry.LatencyMean, Engagement: telemetry.MicOn,
		Lo: 0, Hi: 300, Bins: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.X) != 6 || len(eng.Y) != 6 || len(eng.Normalized) != 6 {
		t.Fatalf("engagement response shape: %+v", eng)
	}

	// MOS insight includes correlations and a predictor eval.
	mos, err := client.MOS(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(mos.Correlations) != 3 {
		t.Fatalf("correlations = %+v", mos.Correlations)
	}
	if mos.Predictor == nil || mos.Predictor.PredictorMAE <= 0 {
		t.Fatalf("predictor eval missing: %+v", mos.Predictor)
	}

	// Sentiment series covers the corpus window.
	daily, err := client.DailySentiment(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(daily) < 700 {
		t.Fatalf("daily series length %d", len(daily))
	}

	// Peaks arrive annotated.
	peaks, err := client.Peaks(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != 3 {
		t.Fatalf("peaks = %d", len(peaks))
	}

	// Outage alerts at a moderate threshold include the big reported days.
	alerts, err := client.OutageAlerts(ctx, 50)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range alerts {
		if a.Day == timeline.Date(2022, time.August, 30) {
			found = true
		}
	}
	if !found {
		t.Fatalf("Aug 30 outage not in alerts: %+v", alerts)
	}

	// Monthly speeds come back with annotations.
	months, err := client.MonthlySpeeds(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(months) != 24 {
		t.Fatalf("months = %d", len(months))
	}
	if months[23].Users <= months[0].Users {
		t.Fatal("user annotations missing over HTTP")
	}

	// Trends include the early roaming discovery.
	trends, err := client.Trends(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := LeadTime(trends, "roaming", timeline.Date(2022, time.March, 3)); !ok {
		t.Fatal("roaming trend missing over HTTP")
	}

	// Confounder report over HTTP.
	effects, err := client.Confounders(ctx, telemetry.CamOn)
	if err != nil {
		t.Fatal(err)
	}
	if len(effects) != 2 {
		t.Fatalf("confounders = %+v", effects)
	}

	// Advisors over HTTP.
	recos, err := client.TrafficEngineeringAdvice(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(recos) != 4 || recos[0].TotalLift < recos[len(recos)-1].TotalLift {
		t.Fatalf("TE advice = %+v", recos)
	}
	advice, err := client.DeploymentAdvice(ctx,
		timeline.Date(2022, time.June, 1), timeline.Date(2022, time.December, 1), 4, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(advice.Scenarios) != 5 {
		t.Fatalf("deployment advice = %+v", advice)
	}

	// The composed operator report over HTTP.
	rep, err := client.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions == 0 || rep.Posts == 0 || len(rep.Peaks) != 3 {
		t.Fatalf("report = %+v", rep)
	}
	// And its text rendering endpoint.
	resp, err := http.Get(baseURL + "/v1/report?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 64)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), "USER SIGNALS REPORT") {
		t.Fatalf("text report = %q", body[:n])
	}
}

func TestServiceExperienceQuery(t *testing.T) {
	client, _, closeFn := newTestService(t)
	defer closeFn()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The §5 example: Teams experience of Starlink-access users.
	exp, err := client.Experience(ctx, "starlink")
	if err != nil {
		t.Fatal(err)
	}
	if exp.Sessions == 0 {
		t.Fatal("no starlink sessions")
	}
	if exp.PredictedMOS < 1 || exp.PredictedMOS > 5 {
		t.Fatalf("predicted MOS %v", exp.PredictedMOS)
	}
	if exp.SocialPosRatio <= 0 || exp.SocialPosRatio >= 1 {
		t.Fatalf("social pos ratio %v", exp.SocialPosRatio)
	}
	if exp.OutageMentions == 0 {
		t.Fatal("no outage mentions fused in")
	}

	// A jittery satellite population should show lower engagement than
	// fiber users — the kind of insight the query exists to surface.
	fiber, err := client.Experience(ctx, "metrofiber")
	if err != nil {
		t.Fatal(err)
	}
	if exp.PredictedMOS >= fiber.PredictedMOS {
		t.Fatalf("starlink predicted MOS %v should be below fiber %v", exp.PredictedMOS, fiber.PredictedMOS)
	}

	// Unknown ISP: 404 with a useful message.
	if _, err := client.Experience(ctx, "carrier-pigeon"); err == nil || !strings.Contains(err.Error(), "404") && !strings.Contains(err.Error(), "no sessions") {
		t.Fatalf("unknown ISP error = %v", err)
	}
}

func TestServiceErrorPaths(t *testing.T) {
	srv := NewServer(nil, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	// Wrong methods.
	resp, err := ts.Client().Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/sessions status %d", resp.StatusCode)
	}

	// Malformed body.
	resp, err = ts.Client().Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ingest status %d", resp.StatusCode)
	}

	// Insights without data.
	if _, err := client.DailySentiment(ctx); err == nil {
		t.Fatal("sentiment without posts should fail")
	}
	if _, err := client.MOS(ctx); err == nil {
		t.Fatal("MOS without sessions should fail")
	}

	// Bad query parameters.
	if _, err := client.Engagement(ctx, EngagementQuery{Metric: telemetry.LatencyMean, Engagement: telemetry.MicOn, Lo: 10, Hi: 5}); err == nil {
		t.Fatal("inverted binning accepted")
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/insights/engagement?metric=bogus&engagement=mic-on")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus metric status %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/query/experience")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing isp status %d", resp.StatusCode)
	}
}

func TestBearerTokenAuth(t *testing.T) {
	srv := NewServer(nil, ServerOptions{AuthToken: "sekrit"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()

	// No token: rejected.
	bare := NewClient(ts.URL, ts.Client())
	if _, err := bare.Stats(ctx); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("unauthenticated request err = %v", err)
	}
	// Wrong token: rejected.
	wrong := bare.WithToken("nope")
	if _, err := wrong.Stats(ctx); err == nil {
		t.Fatal("wrong token accepted")
	}
	// Right token: works end to end including ingest.
	authed := bare.WithToken("sekrit")
	if _, err := authed.IngestSessions(ctx, mixDataset(t)[:5]); err != nil {
		t.Fatal(err)
	}
	st, err := authed.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 5 {
		t.Fatalf("stats = %+v", st)
	}
	// The original client remains tokenless (WithToken copies).
	if _, err := bare.Stats(ctx); err == nil {
		t.Fatal("WithToken mutated the base client")
	}
}

func TestNDJSONIngest(t *testing.T) {
	srv := NewServer(nil, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	// Build an NDJSON body from a few records.
	var buf bytes.Buffer
	w := telemetry.NewJSONLWriter(&buf)
	recs := mixDataset(t)[:25]
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := client.IngestSessionsNDJSON(ctx, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 25 || resp.TotalSessions != 25 {
		t.Fatalf("NDJSON ingest = %+v", resp)
	}

	// NDJSON posts.
	c, _, _ := studyCorpus(t)
	var pbuf bytes.Buffer
	enc := json.NewEncoder(&pbuf)
	for i := 0; i < 10; i++ {
		if err := enc.Encode(&c.Posts[i]); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/posts", &pbuf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	raw, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusOK {
		t.Fatalf("NDJSON posts status %d", raw.StatusCode)
	}
	st, _ := client.Stats(ctx)
	if st.Posts != 10 {
		t.Fatalf("posts = %d", st.Posts)
	}

	// Broken NDJSON is rejected.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions", strings.NewReader("{broken\n"))
	req2.Header.Set("Content-Type", "application/x-ndjson")
	raw2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	raw2.Body.Close()
	if raw2.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken NDJSON status %d", raw2.StatusCode)
	}
	// A broken post line is a 400 naming the family and the line.
	req3, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/posts", strings.NewReader("{\"id\":1}\n{broken\n"))
	req3.Header.Set("Content-Type", "application/x-ndjson")
	raw3, err := ts.Client().Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	if err := json.NewDecoder(raw3.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	raw3.Body.Close()
	if raw3.StatusCode != http.StatusBadRequest || !strings.HasPrefix(apiErr.Error, "decoding NDJSON posts: ") || !strings.Contains(apiErr.Error, "line 2") {
		t.Fatalf("broken NDJSON posts: %d %q", raw3.StatusCode, apiErr.Error)
	}
}

func TestServiceBodySizeCap(t *testing.T) {
	srv := NewServer(nil, ServerOptions{MaxBodyBytes: 1024})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	big := `[{"call_id":1,"platform":"` + strings.Repeat("x", 4096) + `"}]`
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body status %d", resp.StatusCode)
	}
	// And the store must not have been polluted.
	st, _ := NewClient(ts.URL, ts.Client()).Stats(context.Background())
	if st.Sessions != 0 {
		t.Fatalf("partial ingest leaked: %+v", st)
	}
}

func TestStoreConcurrency(t *testing.T) {
	store := &Store{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			store.AddSessions([]telemetry.SessionRecord{{CallID: uint64(i)}})
		}
	}()
	for i := 0; i < 100; i++ {
		store.Sessions()
		store.Counts()
	}
	<-done
	sessions, _ := store.Counts()
	if sessions != 100 {
		t.Fatalf("sessions = %d", sessions)
	}
}

func TestStoreCorpusRebuild(t *testing.T) {
	store := &Store{}
	if store.Corpus() != nil {
		t.Fatal("empty store should have nil corpus")
	}
	c, _, _ := studyCorpus(t)
	store.AddPosts(c.Posts[:10])
	first := store.Corpus()
	if first == nil || first.Len() != 10 {
		t.Fatalf("corpus = %v", first)
	}
	// The corpus is the caller's own copy: scribbling over it must not
	// reach the store.
	first.Posts[0], first.Posts[9] = first.Posts[9], first.Posts[0]
	first.Posts[3].Title = "scribbled"
	store.AddPosts(c.Posts[10:20])
	second := store.Corpus()
	if second.Len() != 20 {
		t.Fatalf("corpus after second ingest = %d", second.Len())
	}
	if !reflect.DeepEqual(second.Posts, c.Posts[:20]) {
		t.Fatal("corpus differs from the ingested posts in corpus order")
	}
}
