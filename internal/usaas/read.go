package usaas

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"

	"usersignals/internal/leo"
	"usersignals/internal/newswire"
	"usersignals/internal/nlp"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// This file is the one read path. Every read endpoint is defined once, as a
// plan: its parameters, the partial sections it needs, and how it renders
// its answer from the bundles gathered for them. A PartialsSource supplies
// the bundles — a node's own store (one part, collected in process) or a
// coordinator's shards (one part per shard, revalidated over /v1/partials) —
// and one serve runs every plan on both front ends, so an answer is the same
// bytes whichever front end served it: a node is the N=1 cluster.
//
// Serve order. A node can name its state before reading it, so serve reads
// the node's state tag first: it is the ETag, If-None-Match equal to it
// answers 304, and the result cache replays an answer stored under it; the
// store is read only on a miss. A coordinator learns its shards' state only
// by revalidating them, so it gathers first and keys the cache by the tags
// the shards answered under.

// Section names one piece of partial state a plan needs: a /v1/partials
// section plus the parameters that select it.
type Section struct {
	Name   string
	Params url.Values
}

// Key identifies the section's state among others of its source.
func (s Section) Key() string { return s.Name + "?" + s.Params.Encode() }

// PartialsQuery is the /v1/partials query that fetches the sections in one
// answer. No plan combines sections whose parameters collide.
func PartialsQuery(sections []Section) url.Values {
	names := make([]string, len(sections))
	q := url.Values{}
	for i, s := range sections {
		names[i] = s.Name
		for k, v := range s.Params {
			q[k] = v
		}
	}
	q.Set("sections", strings.Join(names, ","))
	return q
}

// Gathered is what a plan renders from: per part, the bundle of the plan's
// sections (nil for a part that could not be gathered).
type Gathered struct {
	Bundles []*ShardPartials
	// Failed names each part that could not be gathered ("shard X
	// unavailable: ..."), sorted. Every endpoint but /v1/report refuses with
	// a 503 naming the first; the report notes them on each of its sections.
	Failed []string
	// Gen keys the result cache when the source has no Tag: the state the
	// bundles are valid at, or "" when some part names none and the answer
	// may not be stored.
	Gen string
	// ModelPhase ships a model trained on the gathered rated sessions to
	// every part and returns their per-day partials under it. consistent is
	// false when some part answered from another state than its bundle's.
	ModelPhase func(ModelPartialsRequest) (parts []ModelPartials, consistent bool, err error)

	fits       *ratedFits // the read path's memo of the rated set SectionSessions bundles hold
	unstorable bool       // the answer is served but not stored: a model phase failed or saw another state
}

// model runs the model phase. Any part's failure fails it: a partial answer
// would silently change the merged number.
func (g *Gathered) model(req ModelPartialsRequest) ([]ModelPartials, error) {
	mps, consistent, err := g.ModelPhase(req)
	if err != nil || !consistent {
		g.unstorable = true
	}
	return mps, err
}

// tePartials is the traffic-engineering model phase.
func (g *Gathered) tePartials(m stats.LinearModel) ([][]TEDayPartial, error) {
	mps, err := g.model(ModelPartialsRequest{Model: m, Sections: []string{ModelSectionTE}})
	return each(mps, func(mp ModelPartials) []TEDayPartial { return mp.TE }), err
}

// each lists of(part) for every part, in order.
func each[P, T any](parts []P, of func(P) T) []T {
	out := make([]T, len(parts))
	for i, p := range parts {
		out[i] = of(p)
	}
	return out
}

// PartialsSource is where the read plans get their partial state.
type PartialsSource interface {
	// Tag returns the strong tag of the state the source stands at, read
	// before any content, or "" when the source learns its state only by
	// gathering.
	Tag() string
	// Gather collects every part's bundle of the sections.
	Gather(ctx context.Context, sections []Section) *Gathered
}

// localSource is a node's own store as a partials source.
type localSource struct{ s *Server }

func (l localSource) Tag() string { return l.s.stateTag() }

func (l localSource) Gather(_ context.Context, sections []Section) *Gathered {
	return l.s.store.gather(sections)
}

// gather collects the store's one bundle of the sections for its own plans:
// social rows come straight from the day accumulators, and the model phase
// runs on the store's folds. It is consistent while the store's generations
// hold still.
func (s *Store) gather(sections []Section) *Gathered {
	sessGen, postGen := s.Generations()
	req, err := parsePartials(PartialsQuery(sections))
	if err != nil {
		return &Gathered{Bundles: []*ShardPartials{nil}, Failed: []string{err.Error()}}
	}
	g := &Gathered{Bundles: []*ShardPartials{s.partials(req, nil, true)}}
	g.ModelPhase = func(mreq ModelPartialsRequest) ([]ModelPartials, bool, error) {
		mp, err := s.modelPartials(mreq)
		if err != nil {
			return nil, false, err
		}
		sg, pg := s.Generations()
		return []ModelPartials{*mp}, sg == sessGen && pg == postGen, nil
	}
	return g
}

// ReadPath serves the read endpoints from a partials source, with the
// annotation sources the renders consult.
type ReadPath struct {
	src    PartialsSource
	cache  *ResultCache // nil when off
	news   *newswire.Index
	model  *leo.Model
	fits   *ratedFits
	merges atomic.Uint64
}

// NewReadPath builds the read path over src; cache may be nil.
func NewReadPath(src PartialsSource, cache *ResultCache, news *newswire.Index, model *leo.Model) *ReadPath {
	return &ReadPath{src: src, cache: cache, news: news, model: model, fits: new(ratedFits)}
}

// Merges counts renders from gathered partials: an answer replayed from the
// result cache, or one that needs no partials, merges nothing.
func (rd *ReadPath) Merges() uint64 { return rd.merges.Load() }

// plan is a read endpoint after parameter parsing: the partial sections it
// needs and how to render its answer from them.
type plan struct {
	sections []Section
	// degrades marks /v1/report: a part that could not be gathered becomes
	// per-section notes on a 200 instead of a 503.
	degrades bool
	render   func(w http.ResponseWriter, g *Gathered)
}

// readEndpoints is every read endpoint and its plan, which answers a 4xx
// itself and returns nil.
var readEndpoints = []struct {
	path string
	plan func(rd *ReadPath, w http.ResponseWriter, r *http.Request) *plan
}{
	{"/v1/insights/engagement", (*ReadPath).engagement},
	{"/v1/insights/mos", (*ReadPath).mos},
	{"/v1/insights/sentiment", (*ReadPath).sentiment},
	{"/v1/insights/peaks", (*ReadPath).peaks},
	{"/v1/insights/outages", (*ReadPath).outages},
	{"/v1/insights/speeds", (*ReadPath).speeds},
	{"/v1/insights/trends", (*ReadPath).trends},
	{"/v1/query/experience", (*ReadPath).experience},
	{"/v1/insights/confounders", (*ReadPath).confounders},
	{"/v1/advice/traffic-engineering", (*ReadPath).teAdvice},
	{"/v1/advice/deployment", (*ReadPath).deployment},
	{"/v1/report", (*ReadPath).report},
	{"/v1/insights/incidents", (*ReadPath).incidents},
}

// Mount registers every read endpoint on mux.
func (rd *ReadPath) Mount(mux *http.ServeMux) {
	for _, e := range readEndpoints {
		mux.HandleFunc(e.path, rd.serve(e.plan))
	}
}

// serve is the one read path: method check, then in the source's serve order
// (see the top of this file) parameters, gather and the result cache. A part
// that could not be gathered is never answered from cache: its tag is
// missing from the generation.
func (rd *ReadPath) serve(planOf func(*ReadPath, http.ResponseWriter, *http.Request) *plan) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !RequireMethod(w, r, http.MethodGet) {
			return
		}
		if tag := rd.src.Tag(); tag != "" {
			rd.cache.serveTagged(w, r, tag, func(w http.ResponseWriter) bool {
				q := planOf(rd, w, r)
				return q == nil || rd.run(w, q, rd.gather(r.Context(), q))
			})
			return
		}
		q := planOf(rd, w, r)
		if q == nil {
			return
		}
		g := rd.gather(r.Context(), q)
		cache := rd.cache
		if g.Gen == "" {
			cache = nil
		}
		cache.Serve(w, r, g.Gen, func(w http.ResponseWriter) bool { return rd.run(w, q, g) })
	}
}

// gather asks the source for the plan's sections, and hands the gather the
// read path's rated-set memo; a plan that needs none asks nothing.
func (rd *ReadPath) gather(ctx context.Context, q *plan) *Gathered {
	if len(q.sections) == 0 {
		return &Gathered{}
	}
	g := rd.src.Gather(ctx, q.sections)
	g.fits = rd.fits
	return g
}

// run refuses or renders, and reports whether the answer may be stored.
func (rd *ReadPath) run(w http.ResponseWriter, q *plan, g *Gathered) bool {
	if len(g.Failed) > 0 && !q.degrades {
		WriteError(w, http.StatusServiceUnavailable, "%s", g.Failed[0])
		return false
	}
	if len(q.sections) > 0 {
		rd.merges.Add(1)
	}
	q.render(w, g)
	return !g.unstorable
}

// --- the plans ---

func (rd *ReadPath) engagement(w http.ResponseWriter, r *http.Request) *plan {
	key, err := parseDose(r.URL.Query())
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	return &plan{sections: []Section{{SectionDose, key.params()}}, render: func(w http.ResponseWriter, g *Gathered) {
		series, err := MergeDosePartials(key.b, each(g.Bundles, func(b *ShardPartials) []DoseDayPartial { return b.Dose }))
		if err != nil {
			WriteError(w, http.StatusBadGateway, "%v", err)
			return
		}
		WriteJSON(w, http.StatusOK, EngagementFromSeries(key.metric, key.eng, series))
	}}
}

func (rd *ReadPath) mos(w http.ResponseWriter, r *http.Request) *plan {
	f := formOf(r)
	bins := f.int("bins", 10)
	f.bound("bins", bins >= 1 && bins <= maxBins, "%d bins, want 1 to %d", bins, maxBins)
	if f.reject(w) {
		return nil
	}
	return &plan{sections: []Section{{Name: SectionSessions}}, render: func(w http.ResponseWriter, g *Gathered) {
		rated, total := g.fits.of(g.Bundles)
		correlations, err := rated.correlations(bins)
		if err != nil {
			WriteError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		resp := MOSResponse{Correlations: correlations}
		if eval, err := rated.evaluation(total); err == nil {
			resp.Predictor = &eval
		}
		WriteJSON(w, http.StatusOK, resp)
	}}
}

func (rd *ReadPath) sentiment(http.ResponseWriter, *http.Request) *plan {
	return socialPlan(SectionSocial, func(w http.ResponseWriter, p *socialParts) {
		WriteJSON(w, http.StatusOK, p.sentiment())
	})
}

func (rd *ReadPath) peaks(w http.ResponseWriter, r *http.Request) *plan {
	f := formOf(r)
	k := f.int("k", 3)
	if f.reject(w) {
		return nil
	}
	if k < 1 || k > 50 {
		WriteError(w, http.StatusBadRequest, "k out of range")
		return nil
	}
	return socialPlan(SectionSocial, func(w http.ResponseWriter, p *socialParts) {
		WriteJSON(w, http.StatusOK, MergePeaks(p.sentiment(), p.clouds(), rd.news, k))
	})
}

func (rd *ReadPath) outages(w http.ResponseWriter, r *http.Request) *plan {
	f := formOf(r)
	threshold := f.int("threshold", 0)
	if f.reject(w) {
		return nil
	}
	return socialPlan(SectionSocial, func(w http.ResponseWriter, p *socialParts) {
		series := p.keywords()
		if threshold > 0 {
			WriteJSON(w, http.StatusOK, AlertsFromSeries(series, threshold))
			return
		}
		WriteJSON(w, http.StatusOK, series)
	})
}

func (rd *ReadPath) speeds(http.ResponseWriter, *http.Request) *plan {
	return socialPlan(SectionSpeeds, func(w http.ResponseWriter, p *socialParts) {
		WriteJSON(w, http.StatusOK, MergeSpeeds(p.window, p.speeds, rd.model, 1))
	})
}

func (rd *ReadPath) trends(http.ResponseWriter, *http.Request) *plan {
	return socialPlan(SectionSocial, func(w http.ResponseWriter, p *socialParts) {
		WriteJSON(w, http.StatusOK, p.trends(TrendOptions{}))
	})
}

func (rd *ReadPath) experience(w http.ResponseWriter, r *http.Request) *plan {
	isp := r.URL.Query().Get("isp")
	if isp == "" {
		WriteError(w, http.StatusBadRequest, "isp parameter required")
		return nil
	}
	sections := []Section{{Name: SectionSessions}, {SectionExperience, url.Values{"isp": {isp}}}}
	return &plan{sections: sections, render: func(w http.ResponseWriter, g *Gathered) {
		parts := each(g.Bundles, func(b *ShardPartials) *ExperiencePartial { return b.Experience })
		sessions := 0
		for _, p := range parts {
			if p != nil {
				sessions += p.Sessions
			}
		}
		if sessions == 0 {
			WriteError(w, http.StatusNotFound, "no sessions for isp %q", isp)
			return
		}
		// Predicted MOS comes from one model trained on the day-major rated
		// subsequence of the whole population (engagement generalizes across
		// access networks), applied to the ISP's sessions on every part.
		var predicted [][]DayOnlinePartial
		rated, _ := g.fits.of(g.Bundles)
		if p, err := rated.predictor(); err == nil {
			mps, err := g.model(ModelPartialsRequest{Model: *p.Model(), ISP: isp, Sections: []string{ModelSectionExperience}})
			if err != nil {
				WriteError(w, http.StatusServiceUnavailable, "%v", err)
				return
			}
			for _, mp := range mps {
				predicted = append(predicted, mp.Predicted)
			}
		}
		WriteJSON(w, http.StatusOK, MergeExperience(isp, parts, predicted))
	}}
}

func (rd *ReadPath) confounders(w http.ResponseWriter, r *http.Request) *plan {
	eng, err := telemetry.ParseEngagement(r.URL.Query().Get("engagement"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	sections := []Section{{SectionConfounders, url.Values{"engagement": {eng.String()}}}}
	return &plan{sections: sections, render: func(w http.ResponseWriter, g *Gathered) {
		effects, err := MergeConfounders(each(g.Bundles, func(b *ShardPartials) []ConfounderDayPartial { return b.Confounders }))
		if err != nil {
			WriteError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		WriteJSON(w, http.StatusOK, effects)
	}}
}

func (rd *ReadPath) teAdvice(http.ResponseWriter, *http.Request) *plan {
	return &plan{sections: []Section{{Name: SectionSessions}}, render: func(w http.ResponseWriter, g *Gathered) {
		rated, total := g.fits.of(g.Bundles)
		var phaseErr error
		advice, err := adviseTE(rated, total, func(m stats.LinearModel) ([][]TEDayPartial, error) {
			parts, err := g.tePartials(m)
			phaseErr = err
			return parts, err
		})
		switch {
		case phaseErr != nil:
			WriteError(w, http.StatusServiceUnavailable, "%v", phaseErr)
		case err != nil:
			WriteError(w, http.StatusUnprocessableEntity, "%v", err)
		default:
			WriteJSON(w, http.StatusOK, advice)
		}
	}}
}

// The deployment advice costs launches² × days, so both are capped.
const maxDeploymentExtra, maxDeploymentDays = 64, 3660

// deployment consults only the constellation model: it needs no partials.
func (rd *ReadPath) deployment(w http.ResponseWriter, r *http.Request) *plan {
	f := formOf(r)
	from := timeline.Day(f.int("from", int(timeline.Date(2022, 6, 1))))
	horizon := timeline.Day(f.int("horizon", int(timeline.Date(2022, 12, 1))))
	maxExtra := f.int("max", 8)
	sats := f.int("sats", 50)
	target := f.float("target", 0)
	f.bound("max", maxExtra <= maxDeploymentExtra, "%d extra launches, want at most %d", maxExtra, maxDeploymentExtra)
	f.bound("horizon", horizon <= from || (horizon-from > 0 && horizon-from <= maxDeploymentDays),
		"%d days after from, want at most %d", horizon-from, maxDeploymentDays)
	if f.reject(w) {
		return nil
	}
	return &plan{render: func(w http.ResponseWriter, _ *Gathered) {
		if rd.model == nil {
			WriteError(w, http.StatusNotFound, "no constellation model configured")
			return
		}
		advice, err := AdviseDeployment(rd.model, from, horizon, maxExtra, sats, target)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		WriteJSON(w, http.StatusOK, advice)
	}}
}

// reportPartials are the sections /v1/report merges.
var reportPartials = []Section{{Name: SectionSessions}, {Name: SectionDrops}, {Name: SectionSocial}, {Name: SectionSpeeds}}

// reportSections are every section name the report can attach notes to, in
// guard-chain order. A part that could not be gathered taints all of them:
// the data it held could have fed any section.
var reportSections = []string{
	"sessions", "engagement-drops", "mos-correlations", "mos-predictor",
	"traffic-engineering", "posts", "social-sweep", "sentiment-peaks",
	"outage-monitor", "trends", "speeds",
}

// reportFrom assembles the operator report from a gather of reportPartials.
func reportFrom(g *Gathered, news *newswire.Index, model *leo.Model) OperatorReport {
	notes := map[string][]string{}
	for _, f := range g.Failed {
		for _, sec := range reportSections {
			notes[sec] = append(notes[sec], sec+": "+f)
		}
	}
	return AssembleClusterReport(ClusterReportInput{
		Bundles: g.Bundles, Notes: notes, News: news, Model: model, TEPartials: g.tePartials, fits: g.fits,
	})
}

// report degrades instead of refusing: a part that fails mid-gather becomes
// notes naming it on every section, never silently missing days.
func (rd *ReadPath) report(_ http.ResponseWriter, r *http.Request) *plan {
	text := r.URL.Query().Get("format") == "text"
	return &plan{sections: reportPartials, degrades: true, render: func(w http.ResponseWriter, g *Gathered) {
		rep := reportFrom(g, rd.news, rd.model)
		if text {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, rep.Render())
			return
		}
		WriteJSON(w, http.StatusOK, rep)
	}}
}

func (rd *ReadPath) incidents(w http.ResponseWriter, r *http.Request) *plan {
	eng, err := telemetry.ParseEngagement(r.URL.Query().Get("engagement"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	f := formOf(r)
	minDrop := f.float("min_drop", 0)
	if f.reject(w) {
		return nil
	}
	return &plan{sections: []Section{{Name: SectionDaily}}, render: func(w http.ResponseWriter, g *Gathered) {
		days := MergeDaily(each(g.Bundles, func(b *ShardPartials) []DayEngagement { return b.Daily }))
		if len(days) == 0 {
			WriteError(w, http.StatusNotFound, "no sessions ingested")
			return
		}
		incidents := EngagementIncidents(days, eng, IncidentOptions{MinDrop: minDrop})
		WriteJSON(w, http.StatusOK, IncidentResponse{Engagement: eng.String(), Days: days, Incidents: incidents})
	}}
}

// --- social parts ---

// socialPlan is the plan of an endpoint over one post section: render runs
// when some part holds posts; otherwise the answer is a 404.
func socialPlan(section string, render func(w http.ResponseWriter, p *socialParts)) *plan {
	return &plan{sections: []Section{{Name: section}}, render: func(w http.ResponseWriter, g *Gathered) {
		p, ok := socialPartsOf(g.Bundles)
		if !ok {
			WriteError(w, http.StatusNotFound, "no posts ingested")
			return
		}
		render(w, p)
	}}
}

// socialParts is the post-side state of the parts that hold posts. A part
// collected in process reads its rows straight from the store's day
// accumulators, and takes its term rows from the store's memo only for a
// render that asks.
type socialParts struct {
	window timeline.Range
	posts  int
	rows   []*SocialRows
	views  []*socialView // per part: the local view whose terms() stand in for rows' Terms, or nil
	speeds [][]SpeedMonthPartial
}

// socialPartsOf collects the post-side state of bundles over the global
// corpus window; ok is false when no part holds posts.
func socialPartsOf(bundles []*ShardPartials) (p *socialParts, ok bool) {
	p = &socialParts{}
	for _, b := range bundles {
		if b == nil || !b.HavePosts {
			continue
		}
		if len(p.rows) == 0 || b.WindowFrom < p.window.From {
			p.window.From = b.WindowFrom
		}
		if len(p.rows) == 0 || b.WindowTo > p.window.To {
			p.window.To = b.WindowTo
		}
		p.posts += b.Posts
		p.speeds = append(p.speeds, b.Speeds)
		p.views = append(p.views, b.view)
		if b.view != nil {
			p.rows = append(p.rows, b.view.rows())
		} else {
			p.rows = append(p.rows, b.SocialRows())
		}
	}
	return p, len(p.rows) > 0
}

func (p *socialParts) sentiment() []DaySentiment {
	rows := each(p.rows, func(r *SocialRows) []DaySentiment { return r.Sentiment })
	return MergeByDay(p.window, rows, func(d *DaySentiment) *timeline.Day { return &d.Day })
}

func (p *socialParts) keywords() []DayKeywords {
	rows := each(p.rows, func(r *SocialRows) []DayKeywords { return r.Keywords })
	return MergeByDay(p.window, rows, func(d *DayKeywords) *timeline.Day { return &d.Day })
}

func (p *socialParts) clouds() map[timeline.Day][]nlp.WordCount {
	return MergeClouds(each(p.rows, func(r *SocialRows) []DayCloud { return r.Clouds }))
}

func (p *socialParts) trends(opts TrendOptions) []Trend {
	parts := make([][]TermPartial, len(p.rows))
	for i, r := range p.rows {
		if v := p.views[i]; v != nil {
			parts[i] = v.terms()
		} else {
			parts[i] = r.Terms
		}
	}
	return MergeTrends(p.window, parts, opts)
}
