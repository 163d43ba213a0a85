package usaas

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"usersignals/internal/leo"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// This file implements the §6 "traffic engineering & network planning
// opportunities": turning USaaS insights into actions. Two advisors are
// provided — a traffic-engineering advisor for the conferencing service
// ("which network metric should we spend optimization budget on?") and a
// deployment advisor for the constellation operator ("how many extra
// launches keep sentiment from sagging?").

// TERecommendation ranks one candidate network improvement by its
// predicted user-experience payoff.
type TERecommendation struct {
	Metric telemetry.Metric
	// Improvement describes the modelled intervention (e.g. "-25%").
	Improvement string
	// AffectedFrac is the fraction of sessions whose metric is bad enough
	// for the intervention to apply.
	AffectedFrac float64
	// MeanMOSLift is the mean predicted-MOS change across affected
	// sessions.
	MeanMOSLift float64
	// TotalLift = AffectedFrac * MeanMOSLift: the population-level payoff
	// used for ranking.
	TotalLift float64
}

// teIntervention describes one candidate improvement: which metric, who
// qualifies, and how the metric changes.
type teIntervention struct {
	metric    telemetry.Metric
	label     string
	qualifies func(*telemetry.NetAggregates) bool
	apply     func(telemetry.NetAggregates) telemetry.NetAggregates
}

// teSlots is the number of candidate interventions; every per-intervention
// array is indexed in defaultInterventions order.
const teSlots = 4

func defaultInterventions() [teSlots]teIntervention {
	return [teSlots]teIntervention{
		{
			metric: telemetry.LatencyMean, label: "-25% latency",
			qualifies: func(a *telemetry.NetAggregates) bool { return a.LatencyMean > 60 },
			apply:     func(a telemetry.NetAggregates) telemetry.NetAggregates { a.LatencyMean *= 0.75; return a },
		},
		{
			metric: telemetry.LossMean, label: "-50% loss",
			qualifies: func(a *telemetry.NetAggregates) bool { return a.LossMean > 0.5 },
			apply:     func(a telemetry.NetAggregates) telemetry.NetAggregates { a.LossMean *= 0.5; return a },
		},
		{
			metric: telemetry.JitterMean, label: "-30% jitter",
			qualifies: func(a *telemetry.NetAggregates) bool { return a.JitterMean > 5 },
			apply:     func(a telemetry.NetAggregates) telemetry.NetAggregates { a.JitterMean *= 0.7; return a },
		},
		{
			metric: telemetry.BandwidthMean, label: "+25% bandwidth",
			qualifies: func(a *telemetry.NetAggregates) bool { return a.BWMean < 2 },
			apply:     func(a telemetry.NetAggregates) telemetry.NetAggregates { a.BWMean *= 1.25; return a },
		},
	}
}

// TEDayPartial carries one calendar day's traffic-engineering accumulation
// under a fixed (shipped) predictor: per candidate intervention, how many of
// the day's sessions qualify and their summed predicted-MOS lift, both
// accumulated in arrival order. Slots are indexed by defaultInterventions
// order. Days are the cluster partition unit, so shard partials are exact
// and assembleTE's ascending-day fold matches the single-store answer.
type TEDayPartial struct {
	Day      timeline.Day `json:"day"`
	Sessions int          `json:"sessions"`
	Affected []int        `json:"affected"`
	Lift     []float64    `json:"lift"`
}

// teDay is one calendar day's accumulation (the live form of a TEDayPartial,
// and of the DayOnlinePartials of all rows and of each ISP's).
type teDay struct {
	sessions int
	affected [teSlots]int
	lift     [teSlots]float64
	pred     stats.Online
	isp      map[string]*stats.Online
}

// teFold is the model fold (TE and predicted MOS) under one model: per-day
// accumulators over rows [0, folded), each day fed in arrival order. Rows
// are append-only, so folding rows [folded, n) into their days continues
// exactly the from-scratch fold (the doseView catch-up idiom) and a fold
// stays current until the model changes. The model is identified by the
// exact bits of its coefficients; a different model resets the fold.
//
// The store keeps one (Store.te), shared by the model phase of every read
// that needs one — /v1/report, the advice and experience endpoints,
// /v1/partials/model — so between rated arrivals (the only batches that
// retrain the model) each read folds only the rows that arrived since the
// last one. The first asker folds while holding mu; a concurrent asker waits
// instead of folding again.
type teFold struct {
	mu      sync.Mutex
	key     []uint64 // Float64bits of the model's Intercept, then Coef; nil before the first fold
	days    map[timeline.Day]*teDay
	order   []timeline.Day // the keys of days, ascending
	lastDay timeline.Day   // ingest is roughly chronological: most rows skip the map
	last    *teDay
	folded  int // absolute row index the fold has reached
	visited int // rows folded over the fold's life, resets included: tests count work with it
}

// keyedBy reports whether the fold was computed under a model with m's
// exact coefficients.
func (f *teFold) keyedBy(m *stats.LinearModel) bool {
	if len(f.key) != 1+len(m.Coef) || f.key[0] != math.Float64bits(m.Intercept) {
		return false
	}
	for j, c := range m.Coef {
		if f.key[1+j] != math.Float64bits(c) {
			return false
		}
	}
	return true
}

// reset empties the fold and keys it by m.
func (f *teFold) reset(m *stats.LinearModel) {
	f.key = append(f.key[:0], math.Float64bits(m.Intercept))
	for _, c := range m.Coef {
		f.key = append(f.key, math.Float64bits(c))
	}
	f.days, f.order = map[timeline.Day]*teDay{}, nil
	f.last, f.folded = nil, 0
}

// foldOne absorbs the next row: its predicted MOS, and per qualifying
// intervention one affected session and its predicted-MOS lift. Only the
// network aggregates are copied, and the unmodified prediction is made once.
func (f *teFold) foldOne(p *MOSPredictor, ivs *[teSlots]teIntervention, rec *telemetry.SessionRecord) {
	f.folded++
	f.visited++
	if d := timeline.DayOf(rec.Start); f.last == nil || d != f.lastDay {
		dt := f.days[d]
		if dt == nil {
			dt = &teDay{isp: map[string]*stats.Online{}}
			f.days[d] = dt
			i, _ := slices.BinarySearch(f.order, d)
			f.order = slices.Insert(f.order, i, d)
		}
		f.lastDay, f.last = d, dt
	}
	dt := f.last
	dt.sessions++
	before := p.Predict(rec)
	dt.pred.Add(before)
	acc := dt.isp[rec.ISP]
	if acc == nil {
		acc = new(stats.Online)
		dt.isp[rec.ISP] = acc
	}
	acc.Add(before)
	for k := range ivs {
		if !ivs[k].qualifies(&rec.Net) {
			continue
		}
		dt.affected[k]++
		net := ivs[k].apply(rec.Net)
		dt.lift[k] += p.predictWith(rec, &net) - before
	}
}

// catchUp folds up to rows under p's model — from row 0 when the model
// differs from the fold's — and returns the days ascending, which the caller
// reads while holding mu.
func (f *teFold) catchUp(p *MOSPredictor, rows Rows) []timeline.Day {
	if !f.keyedBy(p.model) {
		f.reset(p.model)
	}
	ivs := defaultInterventions()
	for f.folded < rows.Len() {
		f.foldOne(p, &ivs, rows.At(f.folded))
	}
	return f.order
}

// partials catches the fold up to rows under p's model and returns a copy of
// its TE day partials sorted ascending by day, with the number of rows they
// cover. That count can exceed rows.Len(): a concurrent caller holding a
// newer snapshot may have folded further first, and the answer covers those
// rows too. The copy is the caller's to sort or encode while the fold moves on.
func (f *teFold) partials(p *MOSPredictor, rows Rows) ([]TEDayPartial, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := f.catchUp(p, rows)
	out := make([]TEDayPartial, len(keys))
	affected := make([]int, len(keys)*teSlots)
	lift := make([]float64, len(keys)*teSlots)
	for i, d := range keys {
		dt := f.days[d]
		lo, hi := i*teSlots, (i+1)*teSlots
		copy(affected[lo:hi], dt.affected[:])
		copy(lift[lo:hi], dt.lift[:])
		out[i] = TEDayPartial{Day: d, Sessions: dt.sessions, Affected: affected[lo:hi:hi], Lift: lift[lo:hi:hi]}
	}
	return out, f.folded
}

// predicted is partials for the predicted-MOS accumulators of isp's rows (of
// every row for ""), over the days that hold some.
func (f *teFold) predicted(p *MOSPredictor, rows Rows, isp string) ([]DayOnlinePartial, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := f.catchUp(p, rows)
	out := make([]DayOnlinePartial, 0, len(keys))
	for _, d := range keys {
		acc := f.days[d].isp[isp]
		if isp == "" {
			acc = &f.days[d].pred
		}
		if acc != nil {
			out = append(out, DayOnlinePartial{Day: d, Acc: acc.State()})
		}
	}
	return out, f.folded
}

// assembleTE folds TE day partials (from one store or many shards) into the
// ranked recommendations: lift sums fold strictly ascending by day, and the
// affected fraction divides by the total session count.
func assembleTE(total int, parts []TEDayPartial) []TERecommendation {
	ivs := defaultInterventions()
	sort.Slice(parts, func(i, j int) bool { return parts[i].Day < parts[j].Day })
	affected := make([]int, len(ivs))
	lift := make([]float64, len(ivs))
	for i := range parts {
		for k := range ivs {
			affected[k] += parts[i].Affected[k]
			lift[k] += parts[i].Lift[k]
		}
	}
	var out []TERecommendation
	for k, iv := range ivs {
		rec := TERecommendation{Metric: iv.metric, Improvement: iv.label}
		if affected[k] > 0 && total > 0 {
			rec.AffectedFrac = float64(affected[k]) / float64(total)
			rec.MeanMOSLift = lift[k] / float64(affected[k])
			rec.TotalLift = rec.AffectedFrac * rec.MeanMOSLift
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalLift > out[j].TotalLift })
	return out
}

// AdviseTrafficEngineering ranks the default interventions by their
// predicted MOS payoff over the given sessions, using a predictor trained
// on the rated subset (in canonical day-major order). It answers §6's "if
// call latency is the discerning factor, could resource allocation be
// tuned?" with a number per metric. The computation is the day-partitioned
// fold assembleTE describes — the same one a node and a cluster coordinator
// run over their parts under a single shipped model.
func AdviseTrafficEngineering(records []telemetry.SessionRecord) ([]TERecommendation, error) {
	var rs rowStore
	rs.append(records)
	return adviseTE(newRatedSet(ratedOnly(records), new(ratedFits)), len(records), func(m stats.LinearModel) ([][]TEDayPartial, error) {
		parts, _ := new(teFold).partials(NewMOSPredictorFromModel(&m), rs.snapshot())
		return [][]TEDayPartial{parts}, nil
	})
}

// adviseTE ranks the interventions over total sessions whose day-major rated
// subsequence is rated: it takes the set's predictor, runs the model phase
// under it and folds the per-day partials the parts return.
func adviseTE(rated *ratedSet, total int, phase func(stats.LinearModel) ([][]TEDayPartial, error)) ([]TERecommendation, error) {
	if total == 0 {
		return nil, errors.New("usaas: no sessions to advise on")
	}
	p, err := rated.predictor()
	if err != nil {
		return nil, fmt.Errorf("usaas: traffic-engineering advisor: %w", err)
	}
	parts, err := phase(*p.Model())
	if err != nil {
		return nil, err
	}
	return MergeTE(total, parts), nil
}

// DeploymentScenario is one candidate launch plan evaluated by the
// deployment advisor.
type DeploymentScenario struct {
	ExtraLaunches int
	// ProjectedSpeed is the median downlink at the horizon.
	ProjectedSpeed float64
	// ProjectedPos is the modelled strong-positive sentiment share at the
	// horizon, accounting for conditioning (users judge against their
	// expectation, so launches pay off in sentiment only while speeds are
	// above the conditioned baseline).
	ProjectedPos float64
}

// DeploymentAdvice is the advisor's output.
type DeploymentAdvice struct {
	Horizon   timeline.Day
	Scenarios []DeploymentScenario
	// LaunchesForTarget is the smallest evaluated extra-launch count whose
	// projected Pos meets the target, or -1 if none does.
	LaunchesForTarget int
}

// Sentiment projection constants: mirror the community-mood model of the
// social generator (documented there); the advisor must use the same
// calculus the users do.
const (
	planLevelWeight = 0.5
	planCondGain    = 8.0
	planAnchorMbps  = 75
	planEWMAAlpha   = 0.02
)

// AdviseDeployment evaluates launch plans: starting from `from`, it
// projects median speeds to `horizon` for 0..maxExtra extra launches
// (satsPerLaunch each, spread evenly over the interval) and reports the
// projected sentiment for each, plus the cheapest plan meeting posTarget.
func AdviseDeployment(model *leo.Model, from, horizon timeline.Day, maxExtra, satsPerLaunch int, posTarget float64) (DeploymentAdvice, error) {
	if model == nil {
		return DeploymentAdvice{}, errors.New("usaas: nil constellation model")
	}
	if horizon <= from {
		return DeploymentAdvice{}, fmt.Errorf("usaas: horizon %v not after start %v", horizon, from)
	}
	if maxExtra < 0 {
		maxExtra = 0
	}
	if satsPerLaunch <= 0 {
		satsPerLaunch = 50
	}
	advice := DeploymentAdvice{Horizon: horizon, LaunchesForTarget: -1}
	span := int(horizon - from)
	for extra := 0; extra <= maxExtra; extra++ {
		launches := make([]leo.Launch, extra)
		for i := range launches {
			day := from + timeline.Day((i+1)*span/(extra+1))
			launches[i] = leo.Launch{Day: day, Sats: satsPerLaunch}
		}
		scenario := model.WithExtraLaunches(launches)

		// Project the conditioned expectation forward and read sentiment
		// at the horizon.
		expectation := scenario.MedianDownMbps(from)
		var speed float64
		for i := 0; i <= span; i++ { // counted, so a horizon at the end of the int range still ends
			speed = scenario.MedianDownMbps(from + timeline.Day(i))
			expectation = planEWMAAlpha*speed + (1-planEWMAAlpha)*expectation
		}
		tilt := planLevelWeight*(speed/planAnchorMbps-1) + planCondGain*(speed/math.Max(1, expectation)-1)
		pos := 1 / (1 + math.Exp(-3*tilt))
		sc := DeploymentScenario{ExtraLaunches: extra, ProjectedSpeed: speed, ProjectedPos: pos}
		advice.Scenarios = append(advice.Scenarios, sc)
		if advice.LaunchesForTarget < 0 && pos >= posTarget {
			advice.LaunchesForTarget = extra
		}
	}
	return advice, nil
}

// LiftCurve summarizes the marginal value of each additional launch in an
// advice: diffs of projected speed.
func (a DeploymentAdvice) LiftCurve() []float64 {
	if len(a.Scenarios) < 2 {
		return nil
	}
	out := make([]float64, len(a.Scenarios)-1)
	for i := 1; i < len(a.Scenarios); i++ {
		out[i-1] = a.Scenarios[i].ProjectedSpeed - a.Scenarios[i-1].ProjectedSpeed
	}
	return out
}
