package usaas

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"usersignals/internal/leo"
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
	qualifies func(telemetry.NetAggregates) bool
	apply     func(*telemetry.NetAggregates)
}

func defaultInterventions() []teIntervention {
	return []teIntervention{
		{
			metric: telemetry.LatencyMean, label: "-25% latency",
			qualifies: func(a telemetry.NetAggregates) bool { return a.LatencyMean > 60 },
			apply:     func(a *telemetry.NetAggregates) { a.LatencyMean *= 0.75 },
		},
		{
			metric: telemetry.LossMean, label: "-50% loss",
			qualifies: func(a telemetry.NetAggregates) bool { return a.LossMean > 0.5 },
			apply:     func(a *telemetry.NetAggregates) { a.LossMean *= 0.5 },
		},
		{
			metric: telemetry.JitterMean, label: "-30% jitter",
			qualifies: func(a telemetry.NetAggregates) bool { return a.JitterMean > 5 },
			apply:     func(a *telemetry.NetAggregates) { a.JitterMean *= 0.7 },
		},
		{
			metric: telemetry.BandwidthMean, label: "+25% bandwidth",
			qualifies: func(a telemetry.NetAggregates) bool { return a.BWMean < 2 },
			apply:     func(a *telemetry.NetAggregates) { a.BWMean *= 1.25 },
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

// teDayPartials folds the row snapshot into per-day TE partials with the
// given predictor. Returned partials are sorted ascending by day.
func teDayPartials(p *MOSPredictor, rows Rows) []TEDayPartial {
	ivs := defaultInterventions()
	type dayTE struct {
		sessions int
		affected []int
		lift     []float64
	}
	days := map[timeline.Day]*dayTE{}
	rows.Each(0, rows.Len(), func(rec *telemetry.SessionRecord) {
		d := timeline.DayOf(rec.Start)
		dt := days[d]
		if dt == nil {
			dt = &dayTE{affected: make([]int, len(ivs)), lift: make([]float64, len(ivs))}
			days[d] = dt
		}
		dt.sessions++
		for k := range ivs {
			r := *rec // copy; we mutate the aggregates
			if !ivs[k].qualifies(r.Net) {
				continue
			}
			dt.affected[k]++
			before := p.Predict(&r)
			ivs[k].apply(&r.Net)
			dt.lift[k] += p.Predict(&r) - before
		}
	})
	keys := make([]timeline.Day, 0, len(days))
	for d := range days {
		keys = append(keys, d)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]TEDayPartial, 0, len(keys))
	for _, d := range keys {
		dt := days[d]
		out = append(out, TEDayPartial{Day: d, Sessions: dt.sessions, Affected: dt.affected, Lift: dt.lift})
	}
	return out
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
		for k := 0; k < len(ivs) && k < len(parts[i].Affected); k++ {
			affected[k] += parts[i].Affected[k]
		}
		for k := 0; k < len(ivs) && k < len(parts[i].Lift); k++ {
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
// fold assembleTE describes — the same one the cluster coordinator runs
// over shard partials under a single shipped model.
func AdviseTrafficEngineering(records []telemetry.SessionRecord) ([]TERecommendation, error) {
	var rs rowStore
	rs.append(records)
	return adviseTE(rs.snapshot(), ratedOnly(records))
}

// adviseTE is AdviseTrafficEngineering over a row snapshot and its
// day-major rated subsequence.
func adviseTE(rows Rows, rated []telemetry.SessionRecord) ([]TERecommendation, error) {
	if rows.Len() == 0 {
		return nil, errors.New("usaas: no sessions to advise on")
	}
	p, err := TrainMOSPredictor(rated, 1.0)
	if err != nil {
		return nil, fmt.Errorf("usaas: traffic-engineering advisor: %w", err)
	}
	return assembleTE(rows.Len(), teDayPartials(p, rows)), nil
}

// teMemo holds the traffic-engineering advice of one session generation.
// /v1/report and /v1/advice/traffic-engineering both want it on every cold
// refresh and the fold behind it visits every row, so whichever asks first
// computes it — holding mu, so a concurrent asker waits instead of
// computing it again — and the other reuses it.
type teMemo struct {
	mu     sync.Mutex
	gen    uint64 // session generation advice and err were computed at
	valid  bool
	advice []TERecommendation
	err    error
}

// teAdvice answers AdviseTrafficEngineering over the store's sessions,
// covering at least every batch applied before the call, computing it at
// most once per session generation. The result is shared: read-only.
func (s *Store) teAdvice() ([]TERecommendation, error) {
	s.fenceSessions()
	s.sessMu.RLock()
	rows, rated, gen := s.sessions.snapshot(), s.views.rated, s.sessGen
	s.sessMu.RUnlock()

	m := &s.te
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.valid || m.gen < gen {
		m.advice, m.err = adviseTE(rows, rated)
		m.gen, m.valid = gen, true
	}
	return m.advice, m.err
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
		for d := from; d <= horizon; d++ {
			speed = scenario.MedianDownMbps(d)
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
