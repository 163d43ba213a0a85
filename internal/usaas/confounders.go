package usaas

import (
	"fmt"
	"math"
	"sort"

	"usersignals/internal/parallel"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// This file implements the §6 "Are networks to blame always?" analysis: a
// toolkit for quantifying how much of an apparent network→engagement
// relationship survives confounder control. The paper names three
// confounders — platform (Fig. 3), meeting size, and long-term
// conditioning — and argues an effective USaaS must account for all of
// them.

// SizeBucket labels a meeting-size stratum.
type SizeBucket struct {
	Name   string
	Lo, Hi int // inclusive participant-count range
}

// DefaultSizeBuckets covers the enterprise meeting spectrum.
func DefaultSizeBuckets() []SizeBucket {
	return []SizeBucket{
		{Name: "small-3-5", Lo: 3, Hi: 5},
		{Name: "medium-6-10", Lo: 6, Hi: 10},
		{Name: "large-11+", Lo: 11, Hi: 1 << 30},
	}
}

// ByMeetingSize computes one dose-response series per size stratum,
// sharded across one worker per CPU.
func ByMeetingSize(records []telemetry.SessionRecord, metric telemetry.Metric, eng telemetry.Engagement, b stats.Binner, buckets []SizeBucket, filter telemetry.Filter) (map[string]stats.BinnedSeries, error) {
	return ByMeetingSizeN(records, metric, eng, b, buckets, filter, 0)
}

// ByMeetingSizeN is ByMeetingSize over an explicit worker count: each chunk
// keeps one accumulator per stratum and the strata merge in chunk order, so
// the result is bit-identical at any worker count.
func ByMeetingSizeN(records []telemetry.SessionRecord, metric telemetry.Metric, eng telemetry.Engagement, b stats.Binner, buckets []SizeBucket, filter telemetry.Filter, workers int) (map[string]stats.BinnedSeries, error) {
	if len(buckets) == 0 {
		buckets = DefaultSizeBuckets()
	}
	mf, ef := metric.Accessor(), eng.Accessor()
	shards, err := parallel.Map(workers, parallel.Chunks(len(records)), func(i int) ([]*stats.BinAcc, error) {
		lo, hi := parallel.ChunkBounds(i, len(records))
		accs := make([]*stats.BinAcc, len(buckets))
		for j := lo; j < hi; j++ {
			r := &records[j]
			if filter != nil && !filter(r) {
				continue
			}
			for k, bk := range buckets {
				if r.MeetingSize >= bk.Lo && r.MeetingSize <= bk.Hi {
					if accs[k] == nil {
						accs[k] = stats.NewBinAcc(b)
					}
					accs[k].Add(mf(&r.Net), ef(r))
					break
				}
			}
		}
		return accs, nil
	})
	if err != nil {
		return nil, fmt.Errorf("usaas: meeting-size strata: %w", err)
	}
	out := make(map[string]stats.BinnedSeries, len(buckets))
	for k, bk := range buckets {
		var total *stats.BinAcc
		for _, shard := range shards {
			if shard[k] == nil {
				continue
			}
			if total == nil {
				total = shard[k]
			} else if err := total.Merge(shard[k]); err != nil {
				return nil, fmt.Errorf("usaas: meeting-size strata: %w", err)
			}
		}
		if total != nil {
			out[bk.Name] = total.Series()
		}
	}
	return out, nil
}

// ConfounderEffect quantifies one confounder's marginal impact on an
// engagement metric, holding network conditions in the control bands.
type ConfounderEffect struct {
	Confounder string
	// Levels maps each level (platform name, size bucket) to its mean
	// engagement under controlled network conditions.
	Levels map[string]float64
	// Spread is (max-min)/max across levels: how much the confounder
	// alone moves the metric. 0 = no effect.
	Spread float64
}

// ConfounderDayPartial carries one calendar day's confounder accumulator
// state: in-band session count plus per-level Welford state for the platform
// and meeting-size strata. Days are the cluster's partition unit — a day's
// sessions always live on one shard — so a shard's partials are exact, and
// assembleConfounders' ascending-day fold reproduces the single-store answer
// byte for byte.
type ConfounderDayPartial struct {
	Day      timeline.Day                 `json:"day"`
	InBand   int                          `json:"in_band"`
	Platform map[string]stats.OnlineState `json:"platform,omitempty"`
	Size     map[string]stats.OnlineState `json:"size,omitempty"`
}

// confView is the confounder fold for one engagement metric: per calendar
// day, the sessions inside the control bands and per-level Welford
// accumulators for the platform and meeting-size strata, each day fed in
// arrival order. The store keeps one per metric asked for (viewOf);
// ConfounderReport runs the same fold over its records.
type confView struct {
	ef         func(*telemetry.SessionRecord) float64
	controlled telemetry.Filter
	buckets    []SizeBucket
	days       map[timeline.Day]*confDay
	folded     int
	viewUse
}

// confDay is one day's confounder accumulators.
type confDay struct {
	inBand int
	plat   map[string]*stats.Online
	size   map[string]*stats.Online
}

func newConfView(eng telemetry.Engagement) *confView {
	return &confView{
		ef:         eng.Accessor(),
		controlled: telemetry.AllControlBands(),
		buckets:    DefaultSizeBuckets(),
		days:       map[timeline.Day]*confDay{},
	}
}

func (v *confView) rowsFolded() int { return v.folded }
func (v *confView) empty() bool     { return len(v.days) == 0 }

// foldOne absorbs one record: an in-band session joins its day's platform
// and meeting-size strata.
func (v *confView) foldOne(r *telemetry.SessionRecord) {
	v.folded++
	if !v.controlled(r) {
		return
	}
	d := timeline.DayOf(r.Start)
	cd := v.days[d]
	if cd == nil {
		cd = &confDay{plat: map[string]*stats.Online{}, size: map[string]*stats.Online{}}
		v.days[d] = cd
	}
	cd.inBand++
	x := v.ef(r)
	onlineOf(cd.plat, r.Platform).Add(x)
	for _, bk := range v.buckets {
		if r.MeetingSize >= bk.Lo && r.MeetingSize <= bk.Hi {
			onlineOf(cd.size, bk.Name).Add(x)
			break
		}
	}
}

// onlineOf returns m's accumulator for name, adding an empty one if absent.
func onlineOf(m map[string]*stats.Online, name string) *stats.Online {
	acc := m[name]
	if acc == nil {
		acc = &stats.Online{}
		m[name] = acc
	}
	return acc
}

// partials exports the days a since= base at session generation after lacks
// (every day for 0; stamps per viewState), ascending.
func (v *confView) partials(stamps map[timeline.Day]uint64, after uint64) []ConfounderDayPartial {
	days := changedDays(v.days, stamps, after)
	out := make([]ConfounderDayPartial, 0, len(days))
	for _, d := range days {
		cd := v.days[d]
		p := ConfounderDayPartial{Day: d, InBand: cd.inBand,
			Platform: make(map[string]stats.OnlineState, len(cd.plat)),
			Size:     make(map[string]stats.OnlineState, len(cd.size))}
		for name, acc := range cd.plat {
			p.Platform[name] = acc.State()
		}
		for name, acc := range cd.size {
			p.Size[name] = acc.State()
		}
		out = append(out, p)
	}
	return out
}

// confounderPartials exports the store's confounder days for one engagement
// metric that a since= base at session generation after lacks.
func (s *Store) confounderPartials(eng telemetry.Engagement, after uint64) []ConfounderDayPartial {
	var out []ConfounderDayPartial
	viewOf(s, &s.views.conf, eng, func() *confView { return newConfView(eng) }, func(v *confView) {
		out = v.partials(s.views.stamps, after)
	})
	return out
}

// assembleConfounders folds day partials (from one store or many shards)
// into the ConfounderReport answer: per-level accumulators merge strictly
// ascending by day, then means and spreads are read off. The fold order is
// canonical, so the answer is a pure function of the ingested records.
func assembleConfounders(parts []ConfounderDayPartial) ([]ConfounderEffect, error) {
	sort.Slice(parts, func(i, j int) bool { return parts[i].Day < parts[j].Day })
	total := 0
	platAcc := map[string]*stats.Online{}
	sizeAcc := map[string]*stats.Online{}
	merge := func(dst map[string]*stats.Online, states map[string]stats.OnlineState) {
		for name, st := range states {
			acc := dst[name]
			if acc == nil {
				acc = &stats.Online{}
				dst[name] = acc
			}
			acc.Merge(stats.FromState(st))
		}
	}
	for i := range parts {
		total += parts[i].InBand
		merge(platAcc, parts[i].Platform)
		merge(sizeAcc, parts[i].Size)
	}
	if total < 20 {
		return nil, fmt.Errorf("usaas: only %d sessions inside the control bands", total)
	}
	platform := ConfounderEffect{Confounder: "platform", Levels: map[string]float64{}}
	size := ConfounderEffect{Confounder: "meeting-size", Levels: map[string]float64{}}
	for name, acc := range platAcc {
		platform.Levels[name] = acc.Mean()
	}
	for name, acc := range sizeAcc {
		size.Levels[name] = acc.Mean()
	}
	platform.Spread = levelSpread(platform.Levels)
	size.Spread = levelSpread(size.Levels)
	return []ConfounderEffect{platform, size}, nil
}

// ConfounderReport measures platform and meeting-size effects on one
// engagement metric with every network metric held in the §3.2 control
// bands, so the network cannot be the explanation. The computation is the
// day-partitioned fold assembleConfounders describes — the same one the
// cluster coordinator runs over shard partials.
func ConfounderReport(records []telemetry.SessionRecord, eng telemetry.Engagement) ([]ConfounderEffect, error) {
	v := newConfView(eng)
	for i := range records {
		v.foldOne(&records[i])
	}
	return assembleConfounders(v.partials(nil, 0))
}

func levelSpread(levels map[string]float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range levels {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsInf(hi, -1) || hi <= 0 {
		return math.NaN()
	}
	return (hi - lo) / hi
}

// LongitudinalConditioning measures §6's third confounder from telemetry
// alone: among *bad-network* sessions of returning users, does engagement
// depend on what the user experienced last time? A user whose previous
// session was also bad has a lowered expectation and tolerates the current
// one better — the in-call analogue of Fig. 7's "wheel of time".
type LongitudinalConditioning struct {
	// PresenceBadAfterBad / PresenceBadAfterGood are mean Presence in bad
	// sessions, split by the quality of the same user's previous session.
	PresenceBadAfterBad  float64
	PresenceBadAfterGood float64
	NBadAfterBad         int
	NBadAfterGood        int
}

// Effect is the conditioning gap in presence points (positive = conditioned
// users tolerate degradation better).
func (l LongitudinalConditioning) Effect() float64 {
	return l.PresenceBadAfterBad - l.PresenceBadAfterGood
}

// badSession classifies a session's network as degraded.
func badSession(r *telemetry.SessionRecord) bool {
	return r.Net.LatencyMean > 150 || r.Net.LossMean > 1.5
}

// AnalyzeLongitudinalConditioning groups sessions by user, orders each
// user's history by start time, and compares bad-session engagement by
// previous-session quality. Requires stable user IDs across sessions (see
// conference.Options.UserPool).
func AnalyzeLongitudinalConditioning(records []telemetry.SessionRecord) LongitudinalConditioning {
	byUser := map[uint64][]*telemetry.SessionRecord{}
	for i := range records {
		r := &records[i]
		byUser[r.UserID] = append(byUser[r.UserID], r)
	}
	var afterBad, afterGood stats.Online
	for _, sessions := range byUser {
		if len(sessions) < 2 {
			continue
		}
		sort.Slice(sessions, func(a, b int) bool { return sessions[a].Start.Before(sessions[b].Start) })
		for i := 1; i < len(sessions); i++ {
			cur, prev := sessions[i], sessions[i-1]
			if !badSession(cur) {
				continue
			}
			if badSession(prev) {
				afterBad.Add(cur.PresencePct)
			} else {
				afterGood.Add(cur.PresencePct)
			}
		}
	}
	return LongitudinalConditioning{
		PresenceBadAfterBad:  afterBad.Mean(),
		PresenceBadAfterGood: afterGood.Mean(),
		NBadAfterBad:         afterBad.N(),
		NBadAfterGood:        afterGood.N(),
	}
}

// StratificationCheck compares the pooled dose-response slope with the
// within-stratum slopes: when confounders correlate with both the network
// metric and engagement, the pooled slope is biased (Simpson-style), and
// the gap measures how much an uncontrolled analysis would mis-estimate
// the network effect.
type StratificationCheck struct {
	PooledSlope      float64
	MeanStratumSlope float64
	Strata           map[string]float64 // per-stratum slope
	// Bias is pooled - mean-stratum slope; near 0 means pooling is safe.
	Bias float64
}

// CheckPlatformStratification runs the check with platforms as strata.
func CheckPlatformStratification(records []telemetry.SessionRecord, metric telemetry.Metric, eng telemetry.Engagement, b stats.Binner, filter telemetry.Filter) (StratificationCheck, error) {
	pooled, err := DoseResponse(records, metric, eng, b, filter)
	if err != nil {
		return StratificationCheck{}, err
	}
	pne := pooled.NonEmpty()
	check := StratificationCheck{Strata: map[string]float64{}}
	check.PooledSlope, _ = stats.TrendSlope(pne.X, pne.Y)

	perPlatform, err := ByPlatform(records, metric, eng, b, filter)
	if err != nil {
		return StratificationCheck{}, err
	}
	names := make([]string, 0, len(perPlatform))
	for name := range perPlatform {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	var n int
	for _, name := range names {
		ne := perPlatform[name].NonEmpty()
		slope, _ := stats.TrendSlope(ne.X, ne.Y)
		if math.IsNaN(slope) {
			continue
		}
		check.Strata[name] = slope
		sum += slope
		n++
	}
	if n > 0 {
		check.MeanStratumSlope = sum / float64(n)
	} else {
		check.MeanStratumSlope = math.NaN()
	}
	check.Bias = check.PooledSlope - check.MeanStratumSlope
	return check, nil
}
