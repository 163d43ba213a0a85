package usaas

import (
	"slices"

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

// maxEngViews caps how many views of each kind (dose-response
// parameterizations, confounder metrics, ISPs) the store materializes;
// queries beyond the cap still work (they fold a fresh accumulator from the
// snapshot) but are not retained.
const maxEngViews = 64

// sessionView is a per-day fold over sessions that the store keeps current
// at ingest once a query has registered it (viewOf). Each record is absorbed
// in arrival order; rowsFolded counts every session seen, filtered or not,
// so a catch-up fold can resume at an absolute row index.
type sessionView interface {
	foldOne(r *telemetry.SessionRecord)
	rowsFolded() int
}

// foldRows absorbs rows [lo, hi) of a snapshot in arrival order.
func foldRows(v sessionView, rows Rows, lo, hi int) {
	rows.Each(lo, hi, v.foldOne)
}

// foldBatch absorbs an arrival-ordered batch into every view of one kind.
func foldBatch[K comparable, V sessionView](views map[K]V, recs []telemetry.SessionRecord) {
	for _, v := range views {
		for i := range recs {
			v.foldOne(&recs[i])
		}
	}
}

// engView incrementally maintains DoseResponseDaily's state for one key:
// one bin accumulator per calendar day, each fed in arrival order. Add is
// filter-conditional, exactly like the batch scan.
type engView struct {
	key    engViewKey
	mf     func(*telemetry.NetAggregates) float64
	ef     func(*telemetry.SessionRecord) float64
	filter telemetry.Filter
	days   dayBins
	// lastDay/lastAcc cache the most recent day's accumulator: ingest is
	// roughly chronological, so most Adds skip the map lookup.
	lastDay timeline.Day
	lastAcc *stats.BinAcc
	folded  int
}

func newEngView(key engViewKey) *engView {
	v := &engView{
		key:  key,
		mf:   key.metric.Accessor(),
		ef:   key.eng.Accessor(),
		days: dayBins{},
	}
	if key.isp != "" {
		v.filter = telemetry.OnISP(key.isp)
	}
	return v
}

func (v *engView) rowsFolded() int { return v.folded }

// foldOne absorbs one record.
func (v *engView) foldOne(r *telemetry.SessionRecord) {
	v.folded++
	if v.filter != nil && !v.filter(r) {
		return
	}
	d := timeline.DayOf(r.Start)
	if v.lastAcc == nil || d != v.lastDay {
		v.lastDay, v.lastAcc = d, v.days.add(d, v.key.b, v.mf(&r.Net), v.ef(r))
		return
	}
	v.lastAcc.Add(v.mf(&r.Net), v.ef(r))
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
	// stamps maps every calendar day that holds sessions to the session
	// generation of the last batch that touched it: a since= base at an
	// earlier generation lacks exactly the days stamped after it.
	stamps map[timeline.Day]uint64
	// eng, conf and exp are the views registered by queries: dose-response
	// by parameterization, confounders by engagement metric, per-ISP
	// experience by ISP. Each kind holds at most maxEngViews.
	eng  map[engViewKey]*engView
	conf map[telemetry.Engagement]*confView
	exp  map[string]*expView
}

// foldSessions absorbs an accepted (non-duplicate) session batch, applied as
// session generation gen, into every session-backed view. Caller holds
// sessMu.
func (vs *viewState) foldSessions(recs []telemetry.SessionRecord, gen uint64) {
	if vs.daily == nil {
		vs.daily = map[timeline.Day]*dayAcc{}
		vs.stamps = map[timeline.Day]uint64{}
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
		vs.stamps[d] = gen
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
	foldBatch(vs.eng, recs)
	foldBatch(vs.conf, recs)
	foldBatch(vs.exp, recs)
}

// changedDays returns, ascending, the days of m a since= base at session
// generation after lacks: those stamped after it, or every day for 0.
func changedDays[A any](m map[timeline.Day]A, stamps map[timeline.Day]uint64, after uint64) []timeline.Day {
	keys := make([]timeline.Day, 0, len(m))
	for d := range m {
		if after == 0 || stamps[d] > after {
			keys = append(keys, d)
		}
	}
	slices.Sort(keys)
	return keys
}

// --- store accessors over the views ---

// RatedSessions returns the rated-session subsequence in day-major order
// (shared, read-only) and the total session count, serving the MOS paths
// without a full scan.
func (s *Store) RatedSessions() (rated []telemetry.SessionRecord, total int) {
	return s.ratedSince(0)
}

// ratedSince is RatedSessions for a since= base at session generation after:
// the whole run of every day stamped after it (every day for 0), still
// day-major.
func (s *Store) ratedSince(after uint64) (rated []telemetry.SessionRecord, total int) {
	s.fenceSessions()
	s.sessMu.RLock()
	defer s.sessMu.RUnlock()
	if after == 0 {
		return s.views.rated, s.sessions.n
	}
	for i := range s.views.rated {
		r := &s.views.rated[i]
		if s.views.stamps[timeline.DayOf(r.Start)] > after {
			rated = append(rated, *r)
		}
	}
	return rated, s.sessions.n
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

// dailySince serves DailyEngagement(sessions, nil) from the incrementally
// maintained per-day accumulators: for a since= base at session generation
// after, only the days stamped after it (every day for 0).
func (s *Store) dailySince(after uint64) []DayEngagement {
	s.fenceSessions()
	s.sessMu.RLock()
	defer s.sessMu.RUnlock()
	return dayEngagementFrom(s.views.daily, changedDays(s.views.daily, s.views.stamps, after))
}

// viewOf runs read against the store's view of one kind for key, under
// sessMu, registering it on first use. The catch-up fold runs outside any
// lock over a row snapshot; the write lock only folds the (small) gap and
// adopts or registers the result. Past maxEngViews keys of the kind, a view
// is folded fresh for the one read and not kept. read may consult the
// store's views (the day stamps) but must not write them.
func viewOf[K comparable, V sessionView](s *Store, views *map[K]V, key K, fresh func() V, read func(V)) {
	s.fenceSessions()
	s.sessMu.RLock()
	if v, ok := (*views)[key]; ok {
		read(v)
		s.sessMu.RUnlock()
		return
	}
	rows := s.sessions.snapshot()
	s.sessMu.RUnlock()

	nv := fresh()
	foldRows(nv, rows, 0, rows.Len())

	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if v, ok := (*views)[key]; ok {
		// Another query registered this key first; it is at least as
		// caught-up as ours.
		read(v)
		return
	}
	// Sessions may have arrived since the snapshot: fold the gap. The rows
	// folded are an absolute row index, so resuming there continues the same
	// arrival-order fold.
	cur := s.sessions.snapshot()
	foldRows(nv, cur, nv.rowsFolded(), cur.Len())
	if len(*views) < maxEngViews {
		if *views == nil {
			*views = map[K]V{}
		}
		(*views)[key] = nv
	}
	read(nv)
}

// doseView runs read against the materialized dose-response view for key
// (viewOf).
func (s *Store) doseView(key engViewKey, read func(*engView)) {
	viewOf(s, &s.views.eng, key, func() *engView { return newEngView(key) }, read)
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
