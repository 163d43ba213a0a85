package usaas

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"usersignals/internal/durable"
	"usersignals/internal/leo"
	"usersignals/internal/stats"
	"usersignals/internal/timeline"
)

func TestAdviseTrafficEngineering(t *testing.T) {
	recs := mixDataset(t)
	recos, err := AdviseTrafficEngineering(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(recos) != 4 {
		t.Fatalf("recommendations = %d", len(recos))
	}
	// Ranked by total lift, descending.
	for i := 1; i < len(recos); i++ {
		if recos[i].TotalLift > recos[i-1].TotalLift {
			t.Fatalf("not ranked: %+v", recos)
		}
	}
	// The top recommendation must have a positive payoff and a real
	// affected population.
	top := recos[0]
	if top.TotalLift <= 0 {
		t.Fatalf("top recommendation has no payoff: %+v", top)
	}
	if top.AffectedFrac <= 0 || top.AffectedFrac > 1 {
		t.Fatalf("affected fraction %v", top.AffectedFrac)
	}
	// Improving a metric must not be predicted to *hurt* on average.
	for _, r := range recos {
		if r.AffectedFrac > 0.01 && r.MeanMOSLift < -0.05 {
			t.Fatalf("intervention %v predicted harmful: %+v", r.Metric, r)
		}
	}
}

func TestAdviseTrafficEngineeringErrors(t *testing.T) {
	if _, err := AdviseTrafficEngineering(nil); err == nil {
		t.Fatal("empty sessions accepted")
	}
	// Sessions without ratings: predictor cannot train.
	recs := mixDataset(t)
	stripped := append(recs[:0:0], recs...)
	for i := range stripped {
		stripped[i].Rated = false
		stripped[i].Rating = 0
	}
	if _, err := AdviseTrafficEngineering(stripped); err == nil {
		t.Fatal("unrated dataset accepted")
	}
}

// teDayPartials folds the row snapshot from row 0 into per-day TE partials
// with the given predictor, sorted ascending by day: the from-scratch fold
// every incremental answer must equal.
func teDayPartials(p *MOSPredictor, rows Rows) []TEDayPartial {
	parts, _ := new(teFold).partials(p, rows)
	return parts
}

// servedAdvice is a node's /v1/advice/traffic-engineering answer, status
// and body.
func servedAdvice(h http.Handler) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/advice/traffic-engineering", nil))
	return fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes())
}

// adviceAnswer is what /v1/advice/traffic-engineering answers for an
// AdviseTrafficEngineering result.
func adviceAnswer(advice []TERecommendation, err error) string {
	rec := httptest.NewRecorder()
	if err != nil {
		WriteError(rec, http.StatusUnprocessableEntity, "%v", err)
	} else {
		WriteJSON(rec, http.StatusOK, advice)
	}
	return fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes())
}

// teDiff describes the first difference between two TE day-partial lists —
// days, counts, and lift sums bit for bit — or returns "".
func teDiff(got, want []TEDayPartial) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d day partials, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		same := g.Day == w.Day && g.Sessions == w.Sessions && len(g.Affected) == len(w.Affected) && len(g.Lift) == len(w.Lift)
		for k := 0; same && k < len(w.Affected); k++ {
			same = g.Affected[k] == w.Affected[k] && math.Float64bits(g.Lift[k]) == math.Float64bits(w.Lift[k])
		}
		if !same {
			return fmt.Sprintf("day partial %d = %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// predictedDiff describes the first difference between two predicted-MOS
// day-partial lists — days and accumulator states bit for bit — or returns "".
func predictedDiff(got, want []DayOnlinePartial) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d predicted days, want %d", len(got), len(want))
	}
	bits := func(a stats.OnlineState) [5]uint64 {
		return [5]uint64{math.Float64bits(a.Mean), math.Float64bits(a.M2), math.Float64bits(a.Min), math.Float64bits(a.Max), math.Float64bits(a.Sum)}
	}
	for i := range want {
		if g, w := got[i], want[i]; g.Day != w.Day || g.Acc.N != w.Acc.N || bits(g.Acc) != bits(w.Acc) {
			return fmt.Sprintf("predicted day %d = %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// foldISPs are the experience query's ISPs the fold tests ask for: one with
// rows, every row, and one with none.
var foldISPs = []string{"starlink", "", "no-such-isp"}

// TestModelFoldIncrementalEqualsFull: every answer of the store's TE fold —
// caught up over ragged batches, reset by ratings that retrain the store's
// own model and by two models shipped alternately to one shard, and rebuilt
// after snapshot + tail recovery — equals a fold of the same rows from row 0,
// bit for bit. A model shipped again folds only the rows that arrived since.
func TestModelFoldIncrementalEqualsFull(t *testing.T) {
	recs := viewSessions(t, 7, 3000)
	rated := ratedOnly(recs)
	shippedA, err := TrainMOSPredictor(rated[:len(rated)/2], 1.0)
	if err != nil {
		t.Fatal(err)
	}
	shippedB, err := TrainMOSPredictor(rated[len(rated)/2:], 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var batches []ingestBatch
	prev := 0
	for i, cut := range []int{1, 21, 600, 2047, 2048, 2049, 2069, 3000, 3500, len(recs) - 20, len(recs)} {
		if cut > len(recs) || cut <= prev {
			t.Fatalf("cut %d after %d of %d records", cut, prev, len(recs))
		}
		batches = append(batches, ingestBatch{id: fmt.Sprintf("te-%d", i), sessions: recs[prev:cut]})
		prev = cut
	}

	ship := func(srv *Server, p *MOSPredictor) []TEDayPartial {
		t.Helper()
		mp, err := srv.CollectModelPartials(ModelPartialsRequest{Model: *p.Model(), Sections: []string{ModelSectionTE}})
		if err != nil {
			t.Fatal(err)
		}
		return mp.TE
	}
	shipExperience := func(srv *Server, p *MOSPredictor, isp string) []DayOnlinePartial {
		t.Helper()
		mp, err := srv.CollectModelPartials(ModelPartialsRequest{Model: *p.Model(), ISP: isp, Sections: []string{ModelSectionExperience}})
		if err != nil {
			t.Fatal(err)
		}
		return mp.Predicted
	}
	check := func(step string, srv *Server) {
		t.Helper()
		rows := srv.store.Rows()
		for i, p := range []*MOSPredictor{shippedA, shippedB, shippedA} {
			if diff := teDiff(ship(srv, p), teDayPartials(p, rows)); diff != "" {
				t.Fatalf("%s, shipped model %d: %s", step, i, diff)
			}
		}
		// The experience section comes from the same fold: after the TE
		// answer under a model, it folds nothing and equals the row walk.
		for i, p := range []*MOSPredictor{shippedA, shippedB, shippedA} {
			ship(srv, p)
			before := srv.store.te.visited
			for _, isp := range foldISPs {
				want := predictedDayPartials(p, rows, isp)
				if diff := predictedDiff(shipExperience(srv, p, isp), want); diff != "" {
					t.Fatalf("%s, shipped model %d, isp %q: %s", step, i, isp, diff)
				}
				if isp == "" && len(want) == 0 || isp == "no-such-isp" && len(want) != 0 {
					t.Fatalf("%s: %d predicted days for isp %q", step, len(want), isp)
				}
			}
			if folded := srv.store.te.visited - before; folded != 0 {
				t.Fatalf("%s, shipped model %d: experience reads folded %d rows after the TE answer, want 0", step, i, folded)
			}
		}
		if got, want := servedAdvice(srv.Handler()), adviceAnswer(AdviseTrafficEngineering(rows.AppendTo(nil))); got != want {
			t.Fatalf("%s: served advice %.300s, want %.300s", step, got, want)
		}
	}

	dir := t.TempDir()
	d, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(d.Store, ServerOptions{})
	const snapAt, recoverAt = 5, 8
	for i, b := range batches[:recoverAt] {
		applyBatch(t, d.Store, b)
		check(fmt.Sprintf("live batch %d", i), srv)
		if i+1 == snapAt {
			if err := d.snapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.Recovery.SnapshotFound || d2.Recovery.ReplayedBatches != recoverAt-snapAt {
		t.Fatalf("recovery %+v, want a snapshot plus %d replayed batches", d2.Recovery, recoverAt-snapAt)
	}
	srv2 := NewServer(d2.Store, ServerOptions{})
	check("recovered", srv2)
	// A coordinator ships the same model every cycle: after the first
	// answer, each folds exactly the batch that arrived before it.
	ship(srv2, shippedA)
	for i, b := range batches[recoverAt:] {
		applyBatch(t, d2.Store, b)
		before := d2.Store.te.visited
		// An experience read first folds exactly the batch; the TE answer
		// after it folds nothing more.
		pred := shipExperience(srv2, shippedA, "starlink")
		if folded := d2.Store.te.visited - before; folded != len(b.sessions) {
			t.Errorf("tail batch %d: experience read folded %d rows, want the batch's %d", i, folded, len(b.sessions))
		}
		if diff := predictedDiff(pred, predictedDayPartials(shippedA, d2.Store.Rows(), "starlink")); diff != "" || len(pred) == 0 {
			t.Fatalf("tail batch %d: %d predicted days: %s", i, len(pred), diff)
		}
		got := ship(srv2, shippedA)
		if folded := d2.Store.te.visited - before; folded != len(b.sessions) {
			t.Errorf("tail batch %d: shipped model folded %d rows, want the batch's %d", i, folded, len(b.sessions))
		}
		if diff := teDiff(got, teDayPartials(shippedA, d2.Store.Rows())); diff != "" {
			t.Fatalf("tail batch %d: %s", i, diff)
		}
	}
	check("after tail", srv2)
}

// TestTEFoldReadsDuringIngest races TE readers — the store's own advice and
// a shipped model, which keep resetting each other's fold — against ingest.
// Every shipped answer equals a from-scratch fold of the rows it covers, and
// readers scribble on what they got: it is a copy, not the fold's state.
func TestTEFoldReadsDuringIngest(t *testing.T) {
	recs := viewSessions(t, 9, 1500)
	shipped, err := TrainMOSPredictor(ratedOnly(recs), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	store := &Store{}
	store.AddSessions(recs[:100])
	h := NewServer(store, ServerOptions{ResultCacheSize: -1}).Handler()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(shipModel bool) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if !shipModel {
					if got := servedAdvice(h); !strings.HasPrefix(got, "200 ") {
						t.Errorf("served advice: %.300s", got)
						return
					}
					continue
				}
				parts, n := store.te.partials(shipped, store.Rows())
				cur := store.Rows()
				if diff := teDiff(parts, teDayPartials(shipped, Rows{blocks: cur.blocks, n: n})); diff != "" {
					t.Errorf("answer over %d rows: %s", n, diff)
					return
				}
				for i := range parts {
					parts[i].Affected[0], parts[i].Lift[0] = -1, math.NaN()
				}
				sort.Slice(parts, func(i, j int) bool { return parts[i].Day > parts[j].Day })
				for _, isp := range foldISPs {
					pred, n := store.te.predicted(shipped, store.Rows(), isp)
					cur := store.Rows()
					if diff := predictedDiff(pred, predictedDayPartials(shipped, Rows{blocks: cur.blocks, n: n}, isp)); diff != "" {
						t.Errorf("experience answer for %q over %d rows: %s", isp, n, diff)
						return
					}
					for i := range pred {
						pred[i].Acc.N, pred[i].Acc.Mean = -1, math.NaN()
					}
					sort.Slice(pred, func(i, j int) bool { return pred[i].Day > pred[j].Day })
				}
			}
		}(r%2 == 0)
	}
	for i := 100; i < len(recs); i += 37 {
		store.AddSessions(recs[i:min(i+37, len(recs))])
	}
	close(done)
	wg.Wait()
}

// TestModelPartialsRejectsMalformedModel: the model-phase body keys the
// store's TE fold, so a shard decodes it strictly and refuses a model no
// coordinator trains, while the request a coordinator builds still passes.
func TestModelPartialsRejectsMalformedModel(t *testing.T) {
	recs := viewSessions(t, 5, 400)
	store := &Store{}
	store.AddSessions(recs)
	srv := NewServer(store, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const coef = `[0.1,0.2,0.3,0.4,0.5,0.6,0.7]`
	for _, tc := range []struct{ name, body string }{
		{"unknown field", `{"model":{"Intercept":3,"Coef":` + coef + `},"sections":["te"],"shard":1}`},
		{"unknown model field", `{"model":{"Intercept":3,"Coef":` + coef + `,"Lambda":1},"sections":["te"]}`},
		{"no model", `{"sections":["te"]}`},
		{"six coefficients", `{"model":{"Intercept":3,"Coef":[0.1,0.2,0.3,0.4,0.5,0.6]},"sections":["te"]}`},
		{"eight coefficients", `{"model":{"Intercept":3,"Coef":[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8]},"sections":["te"]}`},
		{"out-of-range coefficient", `{"model":{"Intercept":3,"Coef":[1e999,0.2,0.3,0.4,0.5,0.6,0.7]},"sections":["te"]}`},
	} {
		resp, err := http.Post(ts.URL+"/v1/partials/model", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// JSON carries no NaN or ±Inf, so only an in-process caller can ship
	// one; the model check refuses it there too.
	for _, tc := range []struct {
		name  string
		model stats.LinearModel
	}{
		{"NaN intercept", stats.LinearModel{Intercept: math.NaN(), Coef: make([]float64, predictorFeatureCount)}},
		{"infinite coefficient", stats.LinearModel{Intercept: 3, Coef: []float64{0, 0, math.Inf(-1), 0, 0, 0, 0}}},
	} {
		if _, err := srv.CollectModelPartials(ModelPartialsRequest{Model: tc.model, Sections: []string{ModelSectionTE}}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	p, err := TrainMOSPredictor(ratedOnly(recs), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	mp, _, err := NewClient(ts.URL, nil).ModelPartials(context.Background(), ModelPartialsRequest{
		Model:    *p.Model(),
		Sections: []string{ModelSectionTE, ModelSectionExperience},
	})
	if err != nil {
		t.Fatalf("coordinator-built request refused: %v", err)
	}
	if diff := teDiff(mp.TE, teDayPartials(p, store.Rows())); diff != "" || len(mp.Predicted) == 0 {
		t.Fatalf("coordinator-built request: %s (%d predicted days)", diff, len(mp.Predicted))
	}
}

func TestAdviseDeployment(t *testing.T) {
	model := leo.NewModel()
	from := timeline.Date(2022, time.June, 1)
	horizon := timeline.Date(2022, time.December, 1)
	advice, err := AdviseDeployment(model, from, horizon, 10, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(advice.Scenarios) != 11 {
		t.Fatalf("scenarios = %d", len(advice.Scenarios))
	}
	// More launches ⇒ faster projected speeds, monotonically.
	for i := 1; i < len(advice.Scenarios); i++ {
		if advice.Scenarios[i].ProjectedSpeed <= advice.Scenarios[i-1].ProjectedSpeed {
			t.Fatalf("speed not increasing with launches: %+v", advice.Scenarios)
		}
	}
	// And sentiment improves with them (conditioning notwithstanding,
	// faster-than-expected is good news).
	if advice.Scenarios[10].ProjectedPos <= advice.Scenarios[0].ProjectedPos {
		t.Fatalf("Pos not improving with launches: %v vs %v",
			advice.Scenarios[10].ProjectedPos, advice.Scenarios[0].ProjectedPos)
	}
	// Marginal lift per launch is positive and roughly diminishing.
	lift := advice.LiftCurve()
	if len(lift) != 10 {
		t.Fatalf("lift curve = %v", lift)
	}
	for _, l := range lift {
		if l <= 0 {
			t.Fatalf("non-positive marginal lift: %v", lift)
		}
	}
}

func TestAdviseDeploymentTarget(t *testing.T) {
	model := leo.NewModel()
	from := timeline.Date(2022, time.June, 1)
	horizon := timeline.Date(2022, time.December, 1)
	// Find the Pos achievable with 0 and with 10 launches; a target in
	// between must be met by some intermediate plan.
	advice, err := AdviseDeployment(model, from, horizon, 10, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo := advice.Scenarios[0].ProjectedPos
	hi := advice.Scenarios[10].ProjectedPos
	target := (lo + hi) / 2
	advice2, err := AdviseDeployment(model, from, horizon, 10, 50, target)
	if err != nil {
		t.Fatal(err)
	}
	if advice2.LaunchesForTarget <= 0 || advice2.LaunchesForTarget > 10 {
		t.Fatalf("LaunchesForTarget = %d for target %v in (%v, %v)",
			advice2.LaunchesForTarget, target, lo, hi)
	}
	// An unreachable target reports -1.
	advice3, err := AdviseDeployment(model, from, horizon, 2, 50, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if advice3.LaunchesForTarget != -1 {
		t.Fatalf("unreachable target met: %+v", advice3)
	}
}

func TestAdviseDeploymentValidation(t *testing.T) {
	if _, err := AdviseDeployment(nil, 0, 10, 1, 50, 0.5); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := AdviseDeployment(leo.NewModel(), 10, 10, 1, 50, 0.5); err == nil {
		t.Fatal("degenerate horizon accepted")
	}
	// A horizon at the end of the int range: the day loop must still end.
	if advice, err := AdviseDeployment(leo.NewModel(), math.MaxInt-10, math.MaxInt, 1, 50, 0.5); err != nil || len(advice.Scenarios) != 2 {
		t.Fatalf("horizon at the int range's end: %+v, %v", advice, err)
	}
}

func TestWithExtraLaunchesDoesNotMutate(t *testing.T) {
	model := leo.NewModel()
	day := timeline.Date(2022, time.December, 31)
	before := model.ActiveSats(day)
	clone := model.WithExtraLaunches([]leo.Launch{{Day: timeline.Date(2022, time.June, 1), Sats: 500}})
	if model.ActiveSats(day) != before {
		t.Fatal("WithExtraLaunches mutated the original model")
	}
	if clone.ActiveSats(day) <= before {
		t.Fatal("clone did not gain satellites")
	}
}
