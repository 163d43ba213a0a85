package usaas

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// EngagementMOS is the Fig. 4 analysis: for sessions with explicit ratings,
// mean MOS as a function of normalized engagement, plus rank correlations.
type EngagementMOS struct {
	Engagement telemetry.Engagement
	// Series is mean rating per normalized-engagement bin (x in [0, 100]).
	Series stats.BinnedSeries
	// Pearson and Spearman correlate raw engagement with ratings across
	// the rated sessions.
	Pearson  float64
	Spearman float64
	// RatedSessions is the sample size (the paper's point: it is tiny
	// compared with the dataset).
	RatedSessions int
}

// ratedOnly extracts the rated subsequence in day-major order: ascending by
// calendar day of session start, arrival order within a day (the sort is
// stable). Day-major is the cluster's canonical order — each day's sessions
// live wholly on one shard, so concatenating shard subsequences ascending by
// day reproduces exactly this sequence — and every rated-session consumer
// (correlations, train/test splits, ridge fits) reads it, which is what
// makes a scatter-gathered answer byte-identical to a single store's.
func ratedOnly(records []telemetry.SessionRecord) []telemetry.SessionRecord {
	var rated []telemetry.SessionRecord
	for i := range records {
		if records[i].Rated {
			rated = append(rated, records[i])
		}
	}
	sortRatedDayMajor(rated)
	return rated
}

// sortRatedDayMajor orders rated records ascending by start day, preserving
// arrival order within each day.
func sortRatedDayMajor(rated []telemetry.SessionRecord) {
	sort.SliceStable(rated, func(i, j int) bool {
		return timeline.DayOf(rated[i].Start) < timeline.DayOf(rated[j].Start)
	})
}

// MOSByEngagement computes the Fig. 4 relation for one engagement metric.
func MOSByEngagement(records []telemetry.SessionRecord, eng telemetry.Engagement, nBins int, filter telemetry.Filter) (EngagementMOS, error) {
	return mosByEngagementRated(ratedOnly(records), eng, nBins, filter)
}

// mosByEngagementRated is MOSByEngagement over a pre-extracted rated
// subsequence (as the store's view maintains), avoiding the full-store
// scan on the query path.
func mosByEngagementRated(rated []telemetry.SessionRecord, eng telemetry.Engagement, nBins int, filter telemetry.Filter) (EngagementMOS, error) {
	if nBins < 2 {
		nBins = 10
	}
	var xs, ys []float64
	for i := range rated {
		r := &rated[i]
		if filter != nil && !filter(r) {
			continue
		}
		xs = append(xs, r.EngagementOf(eng))
		ys = append(ys, float64(r.Rating))
	}
	out := EngagementMOS{Engagement: eng, RatedSessions: len(xs)}
	if len(xs) < 10 {
		return out, fmt.Errorf("usaas: only %d rated sessions; need at least 10", len(xs))
	}
	b := stats.NewBinner(0, 100.0001, nBins) // engagement is a percentage
	series, err := stats.BinMeans(b, xs, ys)
	if err != nil {
		return out, err
	}
	out.Series = series
	out.Pearson, _ = stats.Pearson(xs, ys)
	out.Spearman, _ = stats.Spearman(xs, ys)
	return out, nil
}

// MOSReport runs Fig. 4 for all engagement metrics.
func MOSReport(records []telemetry.SessionRecord, nBins int, filter telemetry.Filter) ([]EngagementMOS, error) {
	return mosReportRated(ratedOnly(records), nBins, filter)
}

// mosReportRated is MOSReport over a pre-extracted rated subsequence.
func mosReportRated(rated []telemetry.SessionRecord, nBins int, filter telemetry.Filter) ([]EngagementMOS, error) {
	var out []EngagementMOS
	for _, eng := range telemetry.Engagements() {
		em, err := mosByEngagementRated(rated, eng, nBins, filter)
		if err != nil {
			return nil, err
		}
		out = append(out, em)
	}
	return out, nil
}

// MOSPredictor is the §5 model: predict a session's rating from its
// engagement metrics and network aggregates, so that every session — not
// just the 0.1–1% surveyed — gets a quality estimate.
type MOSPredictor struct {
	model *stats.LinearModel
}

// FeatureSet selects which signals feed the predictor — the §5 ablation
// ("predict MOS scores from user engagement and network conditions"):
// either family alone, or both.
type FeatureSet int

// Feature sets.
const (
	FeaturesCombined FeatureSet = iota
	FeaturesEngagementOnly
	FeaturesNetworkOnly
)

// String names the feature set.
func (f FeatureSet) String() string {
	switch f {
	case FeaturesEngagementOnly:
		return "engagement-only"
	case FeaturesNetworkOnly:
		return "network-only"
	default:
		return "combined"
	}
}

// predictorFeatureCount is the length of the combined feature vector, of
// which the first engagementFeatureCount are engagement metrics.
const (
	predictorFeatureCount  = 7
	engagementFeatureCount = 3
)

// fillFeatures writes the combined feature vector of session r with network
// aggregates net into x: engagement, then network. It is the one definition
// of the feature order, shared by training (featuresFor) and prediction
// (predictWith).
func fillFeatures(x *[predictorFeatureCount]float64, r *telemetry.SessionRecord, net *telemetry.NetAggregates) {
	*x = [predictorFeatureCount]float64{
		r.PresencePct, r.CamOnPct, r.MicOnPct,
		net.LatencyMean, net.LossMean, net.JitterMean, net.BWMean,
	}
}

// featuresFor builds the feature vector for a set.
func featuresFor(r *telemetry.SessionRecord, set FeatureSet) []float64 {
	x := new([predictorFeatureCount]float64)
	fillFeatures(x, r, &r.Net)
	switch set {
	case FeaturesEngagementOnly:
		return x[:engagementFeatureCount:engagementFeatureCount]
	case FeaturesNetworkOnly:
		return x[engagementFeatureCount:]
	default:
		return x[:]
	}
}

// predictorFeatures builds the default (combined) feature vector.
func predictorFeatures(r *telemetry.SessionRecord) []float64 {
	return featuresFor(r, FeaturesCombined)
}

// FeatureSetMAE evaluates held-out ridge MAE for one feature set (70/30
// chronological split of the rated sessions).
func FeatureSetMAE(records []telemetry.SessionRecord, set FeatureSet, lambda float64) (float64, error) {
	rated := ratedOnly(records)
	if len(rated) < 20 {
		return 0, fmt.Errorf("usaas: %d rated sessions; need at least 20", len(rated))
	}
	cut := int(0.7 * float64(len(rated)))
	train, test := rated[:cut], rated[cut:]
	X := make([][]float64, len(train))
	y := make([]float64, len(train))
	for i := range train {
		X[i] = featuresFor(&train[i], set)
		y[i] = float64(train[i].Rating)
	}
	m, err := stats.FitRidge(X, y, lambda)
	if err != nil {
		return 0, fmt.Errorf("usaas: feature-set %v: %w", set, err)
	}
	var sum float64
	for i := range test {
		pred := clampRating(m.Predict(featuresFor(&test[i], set)))
		sum += math.Abs(pred - float64(test[i].Rating))
	}
	return sum / float64(len(test)), nil
}

// ErrNoRatings is returned when the training set has no rated sessions.
var ErrNoRatings = errors.New("usaas: no rated sessions to train on")

// TrainMOSPredictor fits a ridge regression on the rated subset.
func TrainMOSPredictor(records []telemetry.SessionRecord, lambda float64) (*MOSPredictor, error) {
	var X [][]float64
	var y []float64
	for i := range records {
		r := &records[i]
		if !r.Rated {
			continue
		}
		X = append(X, predictorFeatures(r))
		y = append(y, float64(r.Rating))
	}
	if len(X) == 0 {
		return nil, ErrNoRatings
	}
	m, err := stats.FitRidge(X, y, lambda)
	if err != nil {
		return nil, fmt.Errorf("usaas: training MOS predictor: %w", err)
	}
	return &MOSPredictor{model: m}, nil
}

// Model exposes the fitted linear model for transport: the coordinator
// trains once on the gathered rated sessions and ships the coefficients to
// every shard, so per-shard predictions use the identical model (Predict
// clamps, so shipping predictions' inputs — not re-deriving models — is the
// only way shard math matches single-store math).
func (p *MOSPredictor) Model() *stats.LinearModel { return p.model }

// NewMOSPredictorFromModel wraps shipped coefficients back into a predictor.
func NewMOSPredictorFromModel(m *stats.LinearModel) *MOSPredictor {
	return &MOSPredictor{model: m}
}

// Predict estimates the 1–5 rating for one session, clamped to the scale.
// It allocates nothing.
func (p *MOSPredictor) Predict(r *telemetry.SessionRecord) float64 {
	return p.predictWith(r, &r.Net)
}

// predictWith is Predict for session r with its network aggregates replaced
// by net — how the traffic-engineering fold scores an intervention without
// copying the record. The feature vector lives on the stack.
func (p *MOSPredictor) predictWith(r *telemetry.SessionRecord, net *telemetry.NetAggregates) float64 {
	var x [predictorFeatureCount]float64
	fillFeatures(&x, r, net)
	return clampRating(p.model.Predict(x[:]))
}

// clampRating clamps a predicted rating to the 1–5 scale.
func clampRating(v float64) float64 {
	if v < 1 {
		return 1
	}
	if v > 5 {
		return 5
	}
	return v
}

// R2 returns the training-set coefficient of determination.
func (p *MOSPredictor) R2() float64 { return p.model.R2 }

// MOSTree is the non-linear alternative predictor: a CART regression tree
// over the same features, which can represent the knees and plateaus the
// dose-response curves show.
type MOSTree struct {
	tree *stats.RegressionTree
}

// TrainMOSTree fits a regression tree on the rated subset.
func TrainMOSTree(records []telemetry.SessionRecord, opts stats.TreeOptions) (*MOSTree, error) {
	var X [][]float64
	var y []float64
	for i := range records {
		r := &records[i]
		if !r.Rated {
			continue
		}
		X = append(X, predictorFeatures(r))
		y = append(y, float64(r.Rating))
	}
	if len(X) == 0 {
		return nil, ErrNoRatings
	}
	t, err := stats.FitTree(X, y, opts)
	if err != nil {
		return nil, fmt.Errorf("usaas: training MOS tree: %w", err)
	}
	return &MOSTree{tree: t}, nil
}

// Predict estimates the 1–5 rating for one session, clamped to the scale.
func (p *MOSTree) Predict(r *telemetry.SessionRecord) float64 {
	return clampRating(p.tree.Predict(predictorFeatures(r)))
}

// PredictorEval compares the predictors against the survey-only status quo.
type PredictorEval struct {
	TrainSessions int
	TestSessions  int
	// MAE of the ridge predictor on held-out rated sessions, versus the
	// constant mean-rating baseline and the regression-tree alternative.
	PredictorMAE float64
	BaselineMAE  float64
	TreeMAE      float64
	// Coverage: fraction of all sessions with a quality estimate under
	// each approach — the paper's core argument in one number.
	SurveyCoverage    float64
	PredictorCoverage float64
}

// EvaluateMOSPredictor trains on the first trainFrac of rated sessions and
// evaluates on the rest.
func EvaluateMOSPredictor(records []telemetry.SessionRecord, trainFrac, lambda float64) (PredictorEval, error) {
	return evaluateMOSPredictorRated(ratedOnly(records), len(records), trainFrac, lambda)
}

// evaluateMOSPredictorRated is EvaluateMOSPredictor over a pre-extracted
// rated subsequence; totalSessions sizes the survey-coverage denominator.
func evaluateMOSPredictorRated(rated []telemetry.SessionRecord, totalSessions int, trainFrac, lambda float64) (PredictorEval, error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		trainFrac = 0.7
	}
	var eval PredictorEval
	if len(rated) < 20 {
		return eval, fmt.Errorf("usaas: %d rated sessions; need at least 20 for train/test", len(rated))
	}
	cut := int(trainFrac * float64(len(rated)))
	train, test := rated[:cut], rated[cut:]
	eval.TrainSessions, eval.TestSessions = len(train), len(test)

	p, err := TrainMOSPredictor(train, lambda)
	if err != nil {
		return eval, err
	}
	tree, err := TrainMOSTree(train, stats.TreeOptions{})
	if err != nil {
		return eval, err
	}
	meanRating := 0.0
	for i := range train {
		meanRating += float64(train[i].Rating)
	}
	meanRating /= float64(len(train))

	var sumPred, sumBase, sumTree float64
	for i := range test {
		r := &test[i]
		sumPred += math.Abs(p.Predict(r) - float64(r.Rating))
		sumBase += math.Abs(meanRating - float64(r.Rating))
		sumTree += math.Abs(tree.Predict(r) - float64(r.Rating))
	}
	eval.PredictorMAE = sumPred / float64(len(test))
	eval.BaselineMAE = sumBase / float64(len(test))
	eval.TreeMAE = sumTree / float64(len(test))
	if totalSessions > 0 {
		eval.SurveyCoverage = float64(len(rated)) / float64(totalSessions)
	}
	eval.PredictorCoverage = 1 // engagement exists for every session
	return eval, nil
}

// ratedFits is a read path's memo of the latest rated subsequence's products
// (ratings are sparse, so most reads reuse them). The key is the exact input:
// as many parts, each the held one by identity (a node's rated view is
// rebuilt copy-on-write only when a rating arrives) or else record by record
// (a coordinator decodes its parts afresh). The session total is not keyed:
// what divides by it does so after the lookup. A nil memo holds nothing.
type ratedFits struct {
	mu          sync.Mutex
	parts       [][]telemetry.SessionRecord
	set         *ratedSet
	ridge, tree atomic.Uint64 // whole-set ridge fits and evaluations (CART fits): tests count work with them
}

// of returns the set bundles' rated parts merge into, and their total.
func (m *ratedFits) of(bundles []*ShardPartials) (*ratedSet, int) {
	parts := make([][]telemetry.SessionRecord, 0, len(bundles))
	total := 0
	for _, b := range bundles {
		if b != nil {
			total += b.Sessions
			parts = append(parts, b.Rated)
		}
	}
	if m == nil {
		return newRatedSet(MergeRated(parts), new(ratedFits)), total
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.set == nil || !slices.EqualFunc(m.parts, parts, sameRated) {
		m.set = newRatedSet(MergeRated(parts), m)
	}
	m.parts = parts // equal if held: the next lookup can decide by identity
	return m.set, total
}

func sameRated(a, b []telemetry.SessionRecord) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || slices.EqualFunc(a, b, sameRecord))
}

// sameRecord compares every field: floats by their bits, Start by Equal.
func sameRecord(a, b telemetry.SessionRecord) bool {
	x, y := a, b
	x.Start, y.Start = time.Time{}, time.Time{}
	return x == y && a.Start.Equal(b.Start) && floatBits(&a) == floatBits(&b)
}

func floatBits(r *telemetry.SessionRecord) (bits [16]uint64) {
	n := &r.Net
	for i, x := range [...]float64{r.DurationSec, r.PresencePct, r.CamOnPct, r.MicOnPct, n.LatencyMean, n.LatencyMedian,
		n.LatencyP95, n.LossMean, n.LossMedian, n.LossP95, n.JitterMean, n.JitterMedian, n.JitterP95, n.BWMean, n.BWMedian, n.BWP95} {
		bits[i] = math.Float64bits(x)
	}
	return bits
}

// ratedSet is a day-major rated subsequence and its products, each derived
// once on first use (a concurrent asker waits); what they return is shared.
type ratedSet struct {
	rated     []telemetry.SessionRecord
	predictor func() (*MOSPredictor, error) // ridge (λ = 1) on the whole set: the model TE and experience ship
	evaluated func() (PredictorEval, error) // 70/30, λ = 1; SurveyCoverage 0: the total decides it
	mu        sync.Mutex                    // guards the correlations, held for one bins value
	corrBins  int
	corr      func() ([]MOSCorrelation, error)
}

// newRatedSet is the set of rated, its fits counted by fits.
func newRatedSet(rated []telemetry.SessionRecord, fits *ratedFits) *ratedSet {
	return &ratedSet{
		rated:     rated,
		predictor: sync.OnceValues(func() (*MOSPredictor, error) { fits.ridge.Add(1); return TrainMOSPredictor(rated, 1.0) }),
		evaluated: sync.OnceValues(func() (PredictorEval, error) { fits.tree.Add(1); return evaluateMOSPredictorRated(rated, 0, 0.7, 1.0) }),
	}
}

// evaluation is the predictor evaluation covering total sessions.
func (s *ratedSet) evaluation(total int) (PredictorEval, error) {
	eval, err := s.evaluated()
	if err == nil && total > 0 {
		eval.SurveyCoverage = float64(len(s.rated)) / float64(total)
	}
	return eval, err
}

func (s *ratedSet) correlations(bins int) ([]MOSCorrelation, error) {
	s.mu.Lock()
	if s.corr == nil || s.corrBins != bins {
		s.corrBins, s.corr = bins, sync.OnceValues(func() ([]MOSCorrelation, error) { return mosCorrelations(s.rated, bins) })
	}
	corr := s.corr
	s.mu.Unlock()
	return corr()
}
