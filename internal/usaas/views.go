package usaas

import (
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// This file holds the store's materialized session views: mergeable
// accumulators maintained incrementally at ingest time so the query handlers
// read precomputed state instead of re-scanning every session. Views accumulate
// per calendar day — the cluster's partition unit — and serve queries by
// folding the days together strictly ascending, so a view-served series is
// bit-identical to recomputing over a snapshot AND to merging the same days
// gathered from N shards: incrementality, parallelism, and sharding never
// change figure shapes.

// engViewKey identifies one dose-response view: the query parameters that
// select an accumulator. stats.Binner is comparable, so the key can be used
// directly in a map.
type engViewKey struct {
	metric telemetry.Metric
	eng    telemetry.Engagement
	b      stats.Binner
	isp    string // empty = unfiltered
}

// maxEngViews caps how many distinct dose-response parameterizations the
// store materializes; queries beyond the cap still work (they fold a fresh
// accumulator from the snapshot) but are not retained.
const maxEngViews = 64

// engView incrementally maintains DoseResponseDaily's state for one key:
// one bin accumulator per calendar day, each fed in arrival order. folded
// counts every session seen (so a catch-up can resume at an absolute row
// index), while Add is filter-conditional, exactly like the batch scan.
type engView struct {
	key  engViewKey
	mf   func(*telemetry.NetAggregates) float64
	ef   func(*telemetry.SessionRecord) float64
	days dayBins
	// lastDay/lastAcc cache the most recent day's accumulator: ingest is
	// roughly chronological, so most Adds skip the map lookup.
	lastDay timeline.Day
	lastAcc *stats.BinAcc
	folded  int
}

func newEngView(key engViewKey) *engView {
	return &engView{
		key:  key,
		mf:   key.metric.Accessor(),
		ef:   key.eng.Accessor(),
		days: dayBins{},
	}
}

// foldOne absorbs one record.
func (v *engView) foldOne(r *telemetry.SessionRecord, filter telemetry.Filter) {
	v.folded++
	if filter != nil && !filter(r) {
		return
	}
	d := timeline.DayOf(r.Start)
	if v.lastAcc == nil || d != v.lastDay {
		v.lastDay, v.lastAcc = d, v.days.add(d, v.key.b, v.mf(&r.Net), v.ef(r))
		return
	}
	v.lastAcc.Add(v.mf(&r.Net), v.ef(r))
}

func (v *engView) filter() telemetry.Filter {
	if v.key.isp != "" {
		return telemetry.OnISP(v.key.isp)
	}
	return nil
}

// fold absorbs an arrival-ordered batch.
func (v *engView) fold(recs []telemetry.SessionRecord) {
	filter := v.filter()
	for i := range recs {
		v.foldOne(&recs[i], filter)
	}
}

// foldRows absorbs rows [lo, hi) of a snapshot in arrival order.
func (v *engView) foldRows(rows Rows, lo, hi int) {
	filter := v.filter()
	rows.Each(lo, hi, func(r *telemetry.SessionRecord) {
		v.foldOne(r, filter)
	})
}

// series snapshots the view as DoseResponseDaily would produce it: the
// per-day accumulators merged strictly ascending by day.
func (v *engView) series() stats.BinnedSeries {
	return foldDayBins(v.key.b, v.days).Series()
}

// viewState is everything the store maintains incrementally over sessions,
// guarded by the store's sessMu — the same shard lock as the rows it is
// folded from, so view state is always generation-consistent with them.
// (Posts fold into per-day accumulators of their own; see posts.go.)
type viewState struct {
	// rated is the rated-session subsequence in day-major order (ascending
	// start day, arrival order within a day — the cluster's canonical
	// order), feeding the MOS paths without a full-store scan. The slice is
	// rebuilt copy-on-write per batch so readers holding the previous slice
	// never observe the re-sort.
	rated []telemetry.SessionRecord
	// daily aggregates engagement by calendar day for incident detection.
	daily map[timeline.Day]*dayAcc
	// eng holds the materialized dose-response accumulators.
	eng map[engViewKey]*engView
}

// foldSessions absorbs an accepted (non-duplicate) session batch into every
// session-backed view. Caller holds sessMu.
func (vs *viewState) foldSessions(recs []telemetry.SessionRecord) {
	if vs.daily == nil {
		vs.daily = map[timeline.Day]*dayAcc{}
	}
	var newRated []telemetry.SessionRecord
	for i := range recs {
		r := &recs[i]
		if r.Rated {
			newRated = append(newRated, *r)
		}
		d := timeline.DayOf(r.Start)
		a := vs.daily[d]
		if a == nil {
			a = &dayAcc{}
			vs.daily[d] = a
		}
		a.add(r)
	}
	if len(newRated) > 0 {
		// Copy-on-write day-major merge: the stable sort keeps existing
		// entries (earlier arrivals) ahead of the batch's within each day,
		// which is exactly ratedOnly's order over the full arrival sequence.
		merged := make([]telemetry.SessionRecord, 0, len(vs.rated)+len(newRated))
		merged = append(merged, vs.rated...)
		merged = append(merged, newRated...)
		sortRatedDayMajor(merged)
		vs.rated = merged
	}
	for _, v := range vs.eng {
		v.fold(recs)
	}
}

// --- store accessors over the views ---

// RatedSessions returns the rated-session subsequence in day-major order
// (shared, read-only) and the total session count, serving the MOS paths
// without a full scan.
func (s *Store) RatedSessions() (rated []telemetry.SessionRecord, total int) {
	s.fenceSessions()
	s.sessMu.RLock()
	defer s.sessMu.RUnlock()
	return s.views.rated, s.sessions.n
}

// Generations returns the session and post ingest generations. Any accepted
// batch bumps the corresponding counter, so (sessGen, postGen) keys exactly
// the store states a cached result is valid for.
func (s *Store) Generations() (sessions, posts uint64) {
	s.fenceSessions()
	s.fencePosts()
	s.sessMu.RLock()
	sessions = s.sessGen
	s.sessMu.RUnlock()
	s.postMu.RLock()
	posts = s.postGen
	s.postMu.RUnlock()
	return sessions, posts
}

// DailyEngagementView serves DailyEngagement(sessions, nil) from the
// incrementally maintained per-day accumulators.
func (s *Store) DailyEngagementView() []DayEngagement {
	s.fenceSessions()
	s.sessMu.RLock()
	defer s.sessMu.RUnlock()
	return dayEngagementFrom(s.views.daily)
}

// doseView runs read against the materialized dose-response view for key,
// under sessMu, registering the parameterization on first use. The catch-up
// fold runs outside any lock over a row snapshot; the write lock only folds
// the (small) gap and adopts or registers the result.
func (s *Store) doseView(key engViewKey, read func(*engView)) {
	s.fenceSessions()
	s.sessMu.RLock()
	if v, ok := s.views.eng[key]; ok {
		read(v)
		s.sessMu.RUnlock()
		return
	}
	rows := s.sessions.snapshot()
	s.sessMu.RUnlock()

	nv := newEngView(key)
	nv.foldRows(rows, 0, rows.Len())

	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if v, ok := s.views.eng[key]; ok {
		// Another query registered this key first; it is at least as
		// caught-up as ours.
		read(v)
		return
	}
	// Sessions may have arrived since the snapshot: fold the gap. folded is
	// an absolute row index, so resuming there continues the same
	// arrival-order fold.
	cur := s.sessions.snapshot()
	nv.foldRows(cur, nv.folded, cur.Len())
	if len(s.views.eng) < maxEngViews {
		if s.views.eng == nil {
			s.views.eng = map[engViewKey]*engView{}
		}
		s.views.eng[key] = nv
	}
	read(nv)
}

// DoseResponseSeries serves DoseResponseDaily(sessions, ...) from the
// materialized per-day accumulators.
func (s *Store) DoseResponseSeries(metric telemetry.Metric, eng telemetry.Engagement, b stats.Binner, isp string) stats.BinnedSeries {
	var out stats.BinnedSeries
	s.doseView(engViewKey{metric: metric, eng: eng, b: b, isp: isp}, func(v *engView) {
		out = v.series()
	})
	return out
}
