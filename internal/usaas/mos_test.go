package usaas

import (
	"math"
	"sync"
	"testing"

	"usersignals/internal/conference"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
)

// mixDataset is a realistic-mixture dataset with oversampled surveys,
// shared across the MOS tests.
var (
	mixOnce sync.Once
	mixRecs []telemetry.SessionRecord
)

func mixDataset(t *testing.T) []telemetry.SessionRecord {
	t.Helper()
	mixOnce.Do(func() {
		opts := conference.Defaults(99, 900)
		opts.SurveyRate = 0.08
		g, err := conference.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		mixRecs, err = g.GenerateAll()
		if err != nil {
			t.Fatal(err)
		}
	})
	return mixRecs
}

func TestFig4EngagementMOSCorrelation(t *testing.T) {
	recs := mixDataset(t)
	report, err := MOSReport(recs, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(report) != 3 {
		t.Fatalf("report for %d engagement metrics", len(report))
	}
	for _, em := range report {
		if em.RatedSessions < 50 {
			t.Fatalf("%v: only %d rated sessions", em.Engagement, em.RatedSessions)
		}
		// Raw per-session correlations are modest: most sessions cluster
		// at high engagement / high rating and the 1-5 scale is noisy.
		// The directional signal plus the rising binned curve below are
		// the Fig. 4 claims.
		if em.Pearson < 0.05 {
			t.Fatalf("%v: Pearson %v, want positive", em.Engagement, em.Pearson)
		}
		if em.Spearman < 0.05 {
			t.Fatalf("%v: Spearman %v", em.Engagement, em.Spearman)
		}
		// The binned MOS curve rises with engagement: last non-empty bin
		// above first.
		ne := em.Series.NonEmpty()
		if len(ne.Y) < 3 {
			t.Fatalf("%v: too few bins", em.Engagement)
		}
		if ne.Y[len(ne.Y)-1] <= ne.Y[0] {
			t.Fatalf("%v: MOS does not rise with engagement: %v", em.Engagement, ne.Y)
		}
	}
}

func TestMOSByEngagementErrors(t *testing.T) {
	if _, err := MOSByEngagement(nil, telemetry.Presence, 10, nil); err == nil {
		t.Fatal("no rated sessions accepted")
	}
}

func TestMOSPredictorBeatsBaseline(t *testing.T) {
	recs := mixDataset(t)
	eval, err := EvaluateMOSPredictor(recs, 0.7, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if eval.PredictorMAE >= eval.BaselineMAE {
		t.Fatalf("predictor MAE %v not better than baseline %v", eval.PredictorMAE, eval.BaselineMAE)
	}
	if eval.TreeMAE >= eval.BaselineMAE {
		t.Fatalf("tree MAE %v not better than baseline %v", eval.TreeMAE, eval.BaselineMAE)
	}
	if eval.PredictorMAE > 1.0 {
		t.Fatalf("predictor MAE %v implausibly high", eval.PredictorMAE)
	}
	// The coverage argument: surveys cover a sliver, the predictor covers
	// everything.
	if eval.SurveyCoverage > 0.15 {
		t.Fatalf("survey coverage %v; should be sparse", eval.SurveyCoverage)
	}
	if eval.PredictorCoverage != 1 {
		t.Fatalf("predictor coverage %v", eval.PredictorCoverage)
	}
}

func TestMOSPredictorPredictBounds(t *testing.T) {
	recs := mixDataset(t)
	p, err := TrainMOSPredictor(recs, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if p.R2() <= 0 {
		t.Fatalf("R2 = %v", p.R2())
	}
	for i := range recs {
		v := p.Predict(&recs[i])
		if v < 1 || v > 5 {
			t.Fatalf("prediction %v out of scale", v)
		}
		// The stack feature vector is the training vector, bit for bit.
		if want := clampRating(p.model.Predict(predictorFeatures(&recs[i]))); math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("session %d: Predict %v, training features predict %v", i, v, want)
		}
	}
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { sink += p.Predict(&recs[0]) }); allocs != 0 {
		t.Fatalf("Predict allocates %v times per call, want 0", allocs)
	}
	// Good sessions predict higher than bad ones.
	good := telemetry.SessionRecord{
		PresencePct: 100, CamOnPct: 70, MicOnPct: 85,
		Net: telemetry.NetAggregates{LatencyMean: 15, LossMean: 0, JitterMean: 1, BWMean: 3.8},
	}
	bad := telemetry.SessionRecord{
		PresencePct: 20, CamOnPct: 5, MicOnPct: 20,
		Net: telemetry.NetAggregates{LatencyMean: 280, LossMean: 4, JitterMean: 15, BWMean: 1},
	}
	if p.Predict(&good) <= p.Predict(&bad) {
		t.Fatalf("good %v <= bad %v", p.Predict(&good), p.Predict(&bad))
	}
}

func TestFeatureSetAblation(t *testing.T) {
	recs := mixDataset(t)
	maes := map[FeatureSet]float64{}
	for _, set := range []FeatureSet{FeaturesCombined, FeaturesEngagementOnly, FeaturesNetworkOnly} {
		mae, err := FeatureSetMAE(recs, set, 1.0)
		if err != nil {
			t.Fatalf("%v: %v", set, err)
		}
		if mae <= 0 || mae > 1.5 {
			t.Fatalf("%v MAE = %v implausible", set, mae)
		}
		maes[set] = mae
		if set.String() == "" {
			t.Fatal("unnamed feature set")
		}
	}
	// Combined features should not be meaningfully worse than either
	// family alone (they strictly contain both).
	if maes[FeaturesCombined] > maes[FeaturesEngagementOnly]*1.05 ||
		maes[FeaturesCombined] > maes[FeaturesNetworkOnly]*1.05 {
		t.Fatalf("combined %v worse than single families %v / %v",
			maes[FeaturesCombined], maes[FeaturesEngagementOnly], maes[FeaturesNetworkOnly])
	}
}

func TestFeatureSetMAEErrors(t *testing.T) {
	if _, err := FeatureSetMAE(nil, FeaturesCombined, 1); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestMOSTreePredicts(t *testing.T) {
	recs := mixDataset(t)
	tree, err := TrainMOSTree(recs, stats.TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := telemetry.SessionRecord{
		PresencePct: 100, CamOnPct: 70, MicOnPct: 85,
		Net: telemetry.NetAggregates{LatencyMean: 15, BWMean: 3.8, JitterMean: 1},
	}
	bad := telemetry.SessionRecord{
		PresencePct: 15, CamOnPct: 5, MicOnPct: 15,
		Net: telemetry.NetAggregates{LatencyMean: 280, LossMean: 4, JitterMean: 15, BWMean: 1},
	}
	g, b := tree.Predict(&good), tree.Predict(&bad)
	if g < 1 || g > 5 || b < 1 || b > 5 {
		t.Fatalf("tree predictions out of scale: %v %v", g, b)
	}
	if g <= b {
		t.Fatalf("tree: good %v <= bad %v", g, b)
	}
}

func TestTrainMOSPredictorErrors(t *testing.T) {
	if _, err := TrainMOSPredictor(nil, 1); err != ErrNoRatings {
		t.Fatalf("err = %v, want ErrNoRatings", err)
	}
	if _, err := TrainMOSTree(nil, stats.TreeOptions{}); err != ErrNoRatings {
		t.Fatalf("tree err = %v, want ErrNoRatings", err)
	}
	if _, err := EvaluateMOSPredictor(nil, 0.7, 1); err == nil {
		t.Fatal("too-few-ratings accepted")
	}
}

func TestEvaluateDefaultsTrainFrac(t *testing.T) {
	recs := mixDataset(t)
	eval, err := EvaluateMOSPredictor(recs, -2, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := eval.TrainSessions + eval.TestSessions
	frac := float64(eval.TrainSessions) / float64(total)
	if math.Abs(frac-0.7) > 0.02 {
		t.Fatalf("default split %v, want 0.7", frac)
	}
}
