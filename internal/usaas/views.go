package usaas

import (
	"slices"
	"sync/atomic"

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

// doseKeyOf is the view a dose section's parameters select.
func doseKeyOf(a readArgs) engViewKey {
	b := stats.NewBinner(arg[float64](a, "lo"), arg[float64](a, "hi"), arg[int](a, "bins"))
	return engViewKey{metric: arg[telemetry.Metric](a, "metric"), eng: arg[telemetry.Engagement](a, "engagement"), b: b, isp: arg[string](a, "isp")}
}

// args are the dose section's parameters that select k.
func (k engViewKey) args() readArgs {
	return readArgs{"metric": k.metric, "engagement": k.eng, "lo": k.b.Lo, "hi": k.b.Hi, "bins": k.b.NBins, "isp": k.isp}
}

// maxEngViews caps how many views of each kind (dose-response
// parameterizations, confounder metrics, ISPs) the store keeps (viewOf).
const maxEngViews = 64

// sessionView is a per-day fold over sessions that the store keeps current
// at ingest once a query has registered it (viewOf). Each record is absorbed
// in arrival order; rowsFolded counts every session seen, filtered or not,
// so a catch-up fold can resume at an absolute row index. A view that holds
// no session is empty.
type sessionView interface {
	foldOne(r *telemetry.SessionRecord)
	rowsFolded() int
	empty() bool
	use() *viewUse
}

// viewUse is a registered view's read history: the session generation it was
// last read at, and in how many generations it was read.
type viewUse struct{ last, gens atomic.Uint64 }

func (u *viewUse) use() *viewUse { return u }

// read notes a read at session generation gen.
func (u *viewUse) read(gen uint64) {
	if u.last.Swap(gen) != gen {
		u.gens.Add(1)
	}
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
	viewUse
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
func (v *engView) empty() bool     { return len(v.days) == 0 }

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
	// readFolded counts the rows views folded at read time, over the
	// store's life: tests count work with it.
	readFolded int
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
// sessMu, registering it on first use unless it is empty. The catch-up fold
// runs outside any lock over a row snapshot; the write lock only folds the
// (small) gap and adopts or registers the result. A kind full at
// maxEngViews registers a view only in place of one it displaces;
// otherwise the view is folded for the one read. read may consult the
// store's views (the day stamps) but must not write them.
func viewOf[K comparable, V sessionView](s *Store, views *map[K]V, key K, fresh func() V, read func(V)) {
	s.fenceSessions()
	s.sessMu.RLock()
	if v, ok := (*views)[key]; ok {
		v.use().read(s.sessGen)
		read(v)
		s.sessMu.RUnlock()
		return
	}
	rows := s.sessions.snapshot()
	s.sessMu.RUnlock()

	nv := fresh()
	rows.Each(0, rows.Len(), nv.foldOne)

	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	defer func() { s.views.readFolded += nv.rowsFolded() }()
	if v, ok := (*views)[key]; ok {
		// Another query registered this key first; it is at least as
		// caught-up as ours.
		v.use().read(s.sessGen)
		read(v)
		return
	}
	// Sessions may have arrived since the snapshot: fold the gap. The rows
	// folded are an absolute row index, so resuming there continues the same
	// arrival-order fold.
	cur := s.sessions.snapshot()
	cur.Each(nv.rowsFolded(), cur.Len(), nv.foldOne)
	nv.use().read(s.sessGen)
	if !nv.empty() && (len(*views) < maxEngViews || displace(*views, s.sessGen)) {
		if *views == nil {
			*views = map[K]V{}
		}
		(*views)[key] = nv
	}
	read(nv)
}

// displace drops the view of least standing at session generation gen — the
// generations it was read in less those since its last read — if that is
// below a new view's (1), and reports whether it dropped one. So a view read
// at gen stays, as does one read in two generations or more, the last the
// one before: a dashboard that reads after every ingest outlives any number
// of keys read once. Of equals any may go; a displaced key comes back with
// the same fold.
func displace[K comparable, V sessionView](views map[K]V, gen uint64) bool {
	var victim K
	least, found := int64(1), false
	for k, v := range views {
		u := v.use()
		if s := int64(u.gens.Load()) - int64(gen-u.last.Load()); s < least {
			victim, least, found = k, s, true
		}
	}
	if found {
		delete(views, victim)
	}
	return found
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
