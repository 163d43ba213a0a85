package usaas

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"

	"usersignals/internal/leo"
	"usersignals/internal/newswire"
	"usersignals/internal/nlp"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// This file is the cluster's partial-state wire format: every analysis the
// service serves is decomposed into per-calendar-day (or per-month)
// mergeable accumulator state, exported by each shard over GET /v1/partials
// and POST /v1/partials/model, and folded back together by the coordinator
// (internal/cluster). Days are the partition unit — a day's sessions and
// posts live wholly on one shard — so no float is ever summed across
// shards: the coordinator concatenates disjoint day rows and folds them
// strictly ascending by day, exactly the computation a single store runs
// over the same records. That is what makes an N-shard answer byte-identical
// to a single node's — and a node serves its own reads the same way, from
// its one bundle collected in process (read.go).
//
// Two-phase queries: analyses that apply a trained model to every session
// (traffic engineering, per-ISP predicted MOS) cannot be merged from
// independent per-shard models (Predict clamps to [1, 5]; ridge fits are
// not mergeable). The coordinator therefore first gathers the day-major
// rated subsequence, trains the one canonical model itself, and ships its
// coefficients to every shard via POST /v1/partials/model; shards answer
// with per-day partials computed under that exact model.
//
// Deltas: every keyed element of a section — a calendar day, a month of
// speeds, a day's run of rated sessions — is stamped on the shard with the
// generation of its family that last touched it: session days with the
// session generation, social days (and a month, with its newest day) with
// the post generation. GET /v1/partials?since=<state tag> answers every
// keyed section with only the elements stamped after that tag's generation
// for the section's family — when the tag is this process's, of this
// protocol, and neither generation is ahead of the store — and names the tag
// in Since. Anything else gets a full answer, never an error. Scalars (the
// session count, the posts, the window, experience's counts) always ship.
// The stamps never cross the wire: every element carries its key, and the
// receiver patches elements onto the base it holds by key (Patch).

// PartialsProtocol numbers the shape of the partials exchange: the sections,
// their fields and the rules above. It travels in PartialsProtocolHeader on
// every /v1/partials and /v1/partials/model request and answer and leads the
// state tag, so content folded by code of another protocol can never be
// revalidated or patched. Bump it with any change to this file's wire types.
const PartialsProtocol = 3

// PartialsProtocolHeader carries PartialsProtocol.
const PartialsProtocolHeader = "X-Usaas-Partials-Protocol"

// MaxPartialsBytes caps a partials answer body a client reads; a longer one
// fails the exchange.
const MaxPartialsBytes = 256 << 20

// partialsProtocol is PartialsProtocol as it appears on the wire.
var partialsProtocol = strconv.Itoa(PartialsProtocol)

// Partial-section names accepted by GET /v1/partials.
const (
	SectionSessions    = "sessions"    // session count + day-major rated subsequence
	SectionDaily       = "daily"       // per-day engagement rows (incidents)
	SectionDose        = "dose"        // one parameterized dose-response view
	SectionDrops       = "drops"       // the report's four engagement-drop views
	SectionConfounders = "confounders" // per-day confounder accumulators
	SectionSocial      = "social"      // per-day sentiment, keywords, cloud and term rows
	SectionSpeeds      = "speeds"      // per-month extracted speed observations
	SectionExperience  = "experience"  // per-day per-ISP engagement + social counts
)

// Model-phase section names accepted by POST /v1/partials/model.
const (
	ModelSectionTE         = "te"         // per-day traffic-engineering partials
	ModelSectionExperience = "experience" // per-day predicted-MOS accumulators
)

// DoseDayPartial is one calendar day's dose-response accumulator state.
type DoseDayPartial struct {
	Day  timeline.Day      `json:"day"`
	Bins stats.BinAccState `json:"bins"`
}

// SocialDayPartial is one calendar day's social accumulator state: the
// sentiment counts, the gated outage-keyword count, the ranked word cloud
// and the day's trend terms as parallel arrays (spelling, summed post
// weight, positive posts, posts). A day's posts live wholly on one shard, so
// every field is the value the global corpus has for that day — the cloud
// lets the coordinator annotate peaks without the posts.
type SocialDayPartial struct {
	Day       timeline.Day    `json:"day"`
	Posts     int             `json:"posts"`
	StrongPos int             `json:"strong_pos,omitempty"`
	StrongNeg int             `json:"strong_neg,omitempty"`
	Keywords  int             `json:"keywords,omitempty"`
	Cloud     []nlp.WordCount `json:"cloud"`
	Terms     []string        `json:"terms,omitempty"`
	Weights   []float64       `json:"weights,omitempty"`
	Pos       []int           `json:"pos,omitempty"`
	Total     []int           `json:"total,omitempty"`
}

// DayCloud is one day's top word-cloud unigrams.
type DayCloud struct {
	Day   timeline.Day    `json:"day"`
	Words []nlp.WordCount `json:"words"`
}

// DayWeight is one day's popularity-weighted volume for a mined term.
type DayWeight struct {
	Day    timeline.Day `json:"day"`
	Weight float64      `json:"weight"`
}

// TermPartial is one mined term's accumulated state. Each (term, day)
// weight is accumulated wholly on one shard, so coordinator merging unions
// day rows and int-sums the counts — no float crosses shards.
type TermPartial struct {
	Term  string      `json:"term"`
	Days  []DayWeight `json:"days"`
	Pos   int         `json:"pos"`
	Total int         `json:"total"`
}

// SpeedMonthPartial is one month's OCR-extracted speed observations
// (parallel arrays, sorted by (day, id) — corpus order) plus the
// strong-sentiment counts of the posts that carried them.
type SpeedMonthPartial struct {
	Month     timeline.Month `json:"month"`
	Days      []timeline.Day `json:"days,omitempty"`
	IDs       []uint64       `json:"ids,omitempty"`
	Downs     []float64      `json:"downs,omitempty"`
	StrongPos int            `json:"strong_pos,omitempty"`
	StrongNeg int            `json:"strong_neg,omitempty"`
}

// ExperienceDayPartial is one calendar day's per-ISP engagement state:
// Welford accumulators for the engagement means plus exact integer rating
// sums (MOS is an integer mean, so it ships losslessly).
type ExperienceDayPartial struct {
	Day       timeline.Day      `json:"day"`
	Pres      stats.OnlineState `json:"pres"`
	Cam       stats.OnlineState `json:"cam"`
	Mic       stats.OnlineState `json:"mic"`
	RatingSum int               `json:"rating_sum,omitempty"`
	RatingN   int               `json:"rating_n,omitempty"`
}

// DayOnlinePartial is one day's generic Welford accumulator state (used for
// per-day predicted-MOS accumulation under a shipped model).
type DayOnlinePartial struct {
	Day timeline.Day      `json:"day"`
	Acc stats.OnlineState `json:"acc"`
}

// ExperiencePartial is one shard's contribution to a per-ISP experience
// query: per-day engagement accumulators plus whole-corpus social counts
// (exact integers, order-free).
type ExperiencePartial struct {
	Sessions       int                    `json:"sessions"`
	Days           []ExperienceDayPartial `json:"days,omitempty"`
	SocialPos      int                    `json:"social_pos,omitempty"`
	SocialNeg      int                    `json:"social_neg,omitempty"`
	OutageMentions int                    `json:"outage_mentions,omitempty"`
}

// ShardPartials is the GET /v1/partials response: the union of every
// requested section's mergeable state. Absent sections stay zero.
type ShardPartials struct {
	Sessions int `json:"sessions"`

	Rated       []telemetry.SessionRecord `json:"rated,omitempty"`
	Daily       []DayEngagement           `json:"daily,omitempty"`
	Dose        []DoseDayPartial          `json:"dose,omitempty"`
	Drops       [][]DoseDayPartial        `json:"drops,omitempty"`
	Confounders []ConfounderDayPartial    `json:"confounders,omitempty"`

	HavePosts  bool                `json:"have_posts,omitempty"`
	Posts      int                 `json:"posts,omitempty"`
	WindowFrom timeline.Day        `json:"window_from,omitempty"`
	WindowTo   timeline.Day        `json:"window_to,omitempty"`
	Social     []SocialDayPartial  `json:"social,omitempty"`
	Speeds     []SpeedMonthPartial `json:"speeds,omitempty"`

	Experience *ExperiencePartial `json:"experience,omitempty"`

	// Since is set when the answer is a delta: the state tag the request
	// named in since=, whose sections the receiver holds. Every keyed section
	// then lists only the elements stamped after it.
	Since string `json:"since,omitempty"`

	// rows is Social regrouped for the Merge* functions, derived once by
	// Patch (a delta's term rows patched from base's); nil means derive on
	// use.
	rows *SocialRows
	// view stands in for Social in a bundle collected for this process's own
	// plans: its rows come straight from the day accumulators.
	view *socialView
	// took has bit i set once the section partialsSections[i] was taken
	// into p (Take).
	took uint32
}

// SocialRows is one shard's social section regrouped into the series the
// Merge* functions take: sentiment rows of the days with posts, keyword rows
// of the days with gated hits, every day's cloud, and the term weights
// regrouped by term (days ascending) and sorted by spelling.
type SocialRows struct {
	Sentiment []DaySentiment
	Keywords  []DayKeywords
	Clouds    []DayCloud
	Terms     []TermPartial
}

// socialRowsOf copies the day rows of ascending, well-formed day partials
// (see Validate) into merge rows; terms is their term rows (patchTerms).
func socialRowsOf(days []SocialDayPartial, terms []TermPartial) *SocialRows {
	r := &SocialRows{
		Sentiment: make([]DaySentiment, 0, len(days)),
		Clouds:    make([]DayCloud, 0, len(days)),
		Terms:     terms,
	}
	for i := range days {
		d := &days[i]
		r.Sentiment = append(r.Sentiment, DaySentiment{Day: d.Day, Posts: d.Posts, StrongPos: d.StrongPos, StrongNeg: d.StrongNeg})
		if d.Keywords > 0 {
			r.Keywords = append(r.Keywords, DayKeywords{Day: d.Day, Count: d.Keywords})
		}
		r.Clouds = append(r.Clouds, DayCloud{Day: d.Day, Words: d.Cloud})
	}
	return r
}

// termEdit is one (term, day) row of a changed day: a base row to drop, or
// a row to insert.
type termEdit struct {
	day        timeline.Day
	weight     float64
	pos, total int
	drop       bool
}

// patchTerms returns the term rows — each term's day weights, days
// ascending, terms sorted by spelling — of a day set whose rows are base,
// once the days old lists (base's own, a subset of its day set) are
// replaced by the days next lists; both ascend by day, and a day may be on
// either side alone. Only the terms the changed days name are rebuilt
// (patchDays), a term left without a day is dropped, and nothing of base is
// written, since readers may still hold it. The full build is the patch of
// an empty base, patchTerms(nil, nil, days).
func patchTerms(base []TermPartial, old, next []SocialDayPartial) []TermPartial {
	out := append(make([]TermPartial, 0, len(base)), base...)
	edits := make([][]termEdit, len(base))
	fresh := map[string]int{} // out's index of each term base lacks
	edit := func(d *SocialDayPartial, drop bool) {
		for j, term := range d.Terms {
			k, ok := slices.BinarySearchFunc(base, term, bySpelling)
			if !ok {
				if drop {
					continue // base holds no row of it to drop
				}
				if k, ok = fresh[term]; !ok {
					k = len(out)
					fresh[term] = k
					out = append(out, TermPartial{Term: term})
				}
				tp := &out[k] // a new term: its rows arrive in day order
				tp.Days = append(tp.Days, DayWeight{Day: d.Day, Weight: d.Weights[j]})
				tp.Pos, tp.Total = tp.Pos+d.Pos[j], tp.Total+d.Total[j]
				continue
			}
			edits[k] = append(edits[k], termEdit{day: d.Day, weight: d.Weights[j], pos: d.Pos[j], total: d.Total[j], drop: drop})
		}
	}
	// Changed days in day order, a day's old rows before its new ones: each
	// term's edits then come out in the order patchDays applies them.
	for i, j := 0, 0; i < len(old) || j < len(next); {
		if j == len(next) || i < len(old) && old[i].Day <= next[j].Day {
			edit(&old[i], true)
			i++
		} else {
			edit(&next[j], false)
			j++
		}
	}
	n := 0
	for k := range out {
		if k < len(edits) && edits[k] != nil {
			out[k] = patchDays(&out[k], edits[k])
		}
		if len(out[k].Days) > 0 {
			out[n] = out[k]
			n++
		}
	}
	out = out[:n]
	if len(fresh) > 0 {
		sort.Slice(out, func(i, j int) bool { return out[i].Term < out[j].Term })
	}
	return out
}

// bySpelling orders a term row against a spelling.
func bySpelling(tp TermPartial, term string) int { return strings.Compare(tp.Term, term) }

// patchDays applies one term's edits, ascending by day with a day's drop
// before its insert, to a copy of its row: the runs between edited days are
// copied in bulk, and the counts move by integer deltas.
func patchDays(tp *TermPartial, edits []termEdit) TermPartial {
	days := tp.Days
	out := TermPartial{Term: tp.Term, Days: make([]DayWeight, 0, len(days)+len(edits)), Pos: tp.Pos, Total: tp.Total}
	i := 0
	for _, e := range edits {
		n := sort.Search(len(days)-i, func(k int) bool { return days[i+k].Day >= e.day })
		out.Days = append(out.Days, days[i:i+n]...)
		i += n
		if e.drop {
			if i < len(days) && days[i].Day == e.day {
				i++
			}
			out.Pos, out.Total = out.Pos-e.pos, out.Total-e.total
		} else {
			out.Days = append(out.Days, DayWeight{Day: e.day, Weight: e.weight})
			out.Pos, out.Total = out.Pos+e.pos, out.Total+e.total
		}
	}
	out.Days = append(out.Days, days[i:]...)
	return out
}

// replacedDays lists, ascending, base's days that delta replaces.
func replacedDays(base, delta []SocialDayPartial) []SocialDayPartial {
	var out []SocialDayPartial
	i := 0
	for j := range delta {
		d := delta[j].Day
		i += sort.Search(len(base)-i, func(k int) bool { return base[i+k].Day >= d })
		if i < len(base) && base[i].Day == d {
			out = append(out, base[i])
		}
	}
	return out
}

// --- the section table ---

// partialsSection declares one /v1/partials section: its name and family,
// the parameter table's rows it reads (params.go), how a store collects it,
// and how a receiver validates, patches and takes it. parseRequest,
// Store.partials, Validate, Patch and Take walk partialsSections: a section
// is one row and its field.
type partialsSection struct {
	name   string
	post   bool // the post family, whose generation since= reads; else the session family
	params []string
	// collect fills in the elements stamped after generation c.after (0: all).
	collect  func(c *collection, p *ShardPartials)
	validate func(p *ShardPartials) error
	// present, when set, says p carries the section's payload at all, which
	// an answer the section was taken from must (Validate).
	present func(p *ShardPartials) bool
	patch   func(p, base *ShardPartials) // base is nil for a full answer
	take    func(p, src *ShardPartials)
}

// keyed completes sec as one list ordered by key — strictly, or allowing
// repeats for runs — with each element checked by elem when set. The list is
// validated and, unless sec has its own, patched by key and taken whole.
func keyed[T any, K cmp.Ordered](sec partialsSection, field func(*ShardPartials) *[]T, key func(*T) K, runs bool, elem func(*T) error) partialsSection {
	sec.validate = func(p *ShardPartials) error {
		xs := *field(p)
		err := ascending(sec.name, xs, key, runs)
		for i := 0; err == nil && elem != nil && i < len(xs); i++ {
			err = elem(&xs[i])
		}
		return err
	}
	if sec.patch == nil {
		sec.patch = func(p, base *ShardPartials) {
			if base != nil {
				*field(p) = patchByKey(*field(base), *field(p), key)
			}
		}
	}
	if sec.take == nil {
		sec.take = func(p, src *ShardPartials) { *field(p) = *field(src) }
	}
	return sec
}

// partialsSections is every /v1/partials section.
var partialsSections = []partialsSection{
	keyed(partialsSection{name: SectionSessions,
		collect: func(c *collection, p *ShardPartials) { p.Rated, p.Sessions = c.s.ratedSince(c.after) },
	}, func(p *ShardPartials) *[]telemetry.SessionRecord { return &p.Rated },
		func(r *telemetry.SessionRecord) timeline.Day { return timeline.DayOf(r.Start) }, true, nil),
	keyed(partialsSection{name: SectionDaily,
		collect: func(c *collection, p *ShardPartials) { p.Daily = c.s.dailySince(c.after) },
	}, func(p *ShardPartials) *[]DayEngagement { return &p.Daily }, func(d *DayEngagement) timeline.Day { return d.Day }, false, nil),
	keyed(partialsSection{name: SectionDose, params: doseParams,
		collect: func(c *collection, p *ShardPartials) { p.Dose = c.s.dosePartials(doseKeyOf(c.args), c.after) },
	}, func(p *ShardPartials) *[]DoseDayPartial { return &p.Dose }, func(d *DoseDayPartial) timeline.Day { return d.Day }, false, nil),
	{
		name: SectionDrops,
		collect: func(c *collection, p *ShardPartials) { // the report's four views, in reportDropRanges order
			for _, rr := range reportDropRanges {
				p.Drops = append(p.Drops, c.s.dosePartials(engViewKey{metric: rr.metric, eng: telemetry.Presence, b: stats.NewBinner(rr.lo, rr.hi, 8)}, c.after))
			}
		},
		validate: func(p *ShardPartials) (err error) {
			if p.Drops != nil && len(p.Drops) != len(reportDropRanges) {
				err = fmt.Errorf("%s: %d views, want %d", SectionDrops, len(p.Drops), len(reportDropRanges))
			}
			for i := 0; err == nil && i < len(p.Drops); i++ {
				err = ascending(SectionDrops, p.Drops[i], func(d *DoseDayPartial) timeline.Day { return d.Day }, false)
			}
			return err
		},
		present: func(p *ShardPartials) bool { return p.Drops != nil },
		patch: func(p, base *ShardPartials) {
			for i := 0; base != nil && i < min(len(p.Drops), len(base.Drops)); i++ {
				p.Drops[i] = patchByKey(base.Drops[i], p.Drops[i], func(d *DoseDayPartial) timeline.Day { return d.Day })
			}
		},
		take: func(p, src *ShardPartials) { p.Drops = src.Drops },
	},
	keyed(partialsSection{name: SectionConfounders, params: engagementParams,
		collect: func(c *collection, p *ShardPartials) {
			p.Confounders = c.s.confounderPartials(arg[telemetry.Engagement](c.args, "engagement"), c.after)
		},
	}, func(p *ShardPartials) *[]ConfounderDayPartial { return &p.Confounders },
		func(d *ConfounderDayPartial) timeline.Day { return d.Day }, false, nil),
	keyed(partialsSection{name: SectionSocial, post: true,
		collect: func(c *collection, p *ShardPartials) {
			if c.local {
				p.view = c.view
			} else {
				p.Social = c.view.dayPartials(c.after) // the days with posts: the receiver zero-fills the window
			}
		},
		patch: patchSocial,
		take:  func(p, src *ShardPartials) { p.Social, p.rows, p.view = src.Social, src.rows, src.view },
	}, func(p *ShardPartials) *[]SocialDayPartial { return &p.Social }, func(d *SocialDayPartial) timeline.Day { return d.Day }, false,
		func(d *SocialDayPartial) error {
			if n := len(d.Terms); len(d.Weights) != n || len(d.Pos) != n || len(d.Total) != n {
				return fmt.Errorf("social day %v: %d terms, %d weights, %d pos, %d total", d.Day, n, len(d.Weights), len(d.Pos), len(d.Total))
			}
			return nil
		}),
	keyed(partialsSection{name: SectionSpeeds, post: true,
		collect: func(c *collection, p *ShardPartials) { p.Speeds = c.view.speedPartials(c.after) },
	}, func(p *ShardPartials) *[]SpeedMonthPartial { return &p.Speeds }, func(m *SpeedMonthPartial) timeline.Month { return m.Month }, false,
		func(m *SpeedMonthPartial) error {
			if n := len(m.Downs); len(m.Days) != n || len(m.IDs) != n {
				return fmt.Errorf("speeds month %v: %d downs, %d days, %d ids", m.Month, n, len(m.Days), len(m.IDs))
			}
			return nil
		}),
	keyed(partialsSection{name: SectionExperience, params: ispParams,
		collect: func(c *collection, p *ShardPartials) {
			p.Experience = c.s.experiencePartial(arg[string](c.args, "isp"), c.after)
		},
		present: func(p *ShardPartials) bool { return p.Experience != nil },
		take:    func(p, src *ShardPartials) { p.Experience = src.Experience },
	}, func(p *ShardPartials) *[]ExperienceDayPartial {
		return &cmp.Or(p.Experience, &ExperiencePartial{}).Days // none to order or patch when absent
	}, func(d *ExperienceDayPartial) timeline.Day { return d.Day }, false, nil),
}

// sectionOf is the named section's row, or nil for an unknown name.
func sectionOf(name string) *partialsSection {
	if i := slices.IndexFunc(partialsSections, func(s partialsSection) bool { return s.name == name }); i >= 0 {
		return &partialsSections[i]
	}
	return nil
}

// patchSocial patches the social days by key and derives the rows the
// Merge* functions take once: for a delta, base's term rows patched by the
// days it replaces, or, for an unchanged social section, base's rows
// themselves; for a full answer, the patch of an empty base.
func patchSocial(p, base *ShardPartials) {
	var terms []TermPartial
	old, next := []SocialDayPartial(nil), p.Social
	if base != nil {
		if len(next) == 0 && base.rows != nil {
			p.Social, p.rows = base.Social, base.rows
			return
		}
		terms, old = base.SocialRows().Terms, replacedDays(base.Social, next)
		p.Social = patchByKey(base.Social, next, func(d *SocialDayPartial) timeline.Day { return d.Day })
	}
	if len(p.Social) > 0 {
		p.rows = socialRowsOf(p.Social, patchTerms(terms, old, next))
	}
}

// ascending checks that xs is ordered by key: strictly, or — for runs such
// as a day's rated sessions — allowing repeats.
func ascending[T any, K cmp.Ordered](section string, xs []T, key func(*T) K, runs bool) error {
	for i := 1; i < len(xs); i++ {
		prev, k := key(&xs[i-1]), key(&xs[i])
		if k < prev || k == prev && !runs {
			return fmt.Errorf("%s: %v follows %v", section, k, prev)
		}
	}
	return nil
}

// Validate rejects an answer the merge cannot take, before anything is
// patched or merged: elements of a keyed section out of order (days and
// months strictly ascending, rated runs non-decreasing by day), a drops
// section without its four views, parallel arrays of unequal length, and a
// section taken from an answer that left out its payload (drops, experience).
func (p *ShardPartials) Validate() error {
	var errs []error
	for i := range partialsSections {
		sec := &partialsSections[i]
		if p.took&(1<<i) != 0 && sec.present != nil && !sec.present(p) {
			errs = append(errs, fmt.Errorf("%s: requested but missing from the answer", sec.name))
		}
		errs = append(errs, sec.validate(p))
	}
	return errors.Join(errs...)
}

// patchByKey returns base with every key delta lists replaced by delta's
// elements of that key — one element, or a whole run — ascending. Both are
// ordered by key (Validate); neither is written, and an empty delta returns
// base itself.
func patchByKey[T any, K cmp.Ordered](base, delta []T, key func(*T) K) []T {
	if len(delta) == 0 {
		return base
	}
	out := make([]T, 0, len(base)+len(delta))
	i := 0
	for j := 0; j < len(delta); {
		k := key(&delta[j])
		for i < len(base) && key(&base[i]) < k {
			out = append(out, base[i])
			i++
		}
		for i < len(base) && key(&base[i]) == k {
			i++
		}
		for ; j < len(delta) && key(&delta[j]) == k; j++ {
			out = append(out, delta[j])
		}
	}
	return append(out, base[i:]...)
}

// Patch makes p, a freshly decoded answer (or one section of it; see Take),
// whole and ready to merge. It validates p; then, if p is a delta (Since
// set), patches every keyed section onto base's by key. base must hold the
// same sections as p, at a state no older than the tag p names — a section
// the receiver refreshed later patches exactly, because the elements changed
// since the named tag include every one changed since — and is only read,
// since concurrent readers may still hold it. Last, the social rows the
// Merge* functions take are derived once (patchSocial). It reports whether p
// was a delta.
func (p *ShardPartials) Patch(base *ShardPartials) (delta bool, err error) {
	if err := p.Validate(); err != nil {
		return false, err
	}
	if delta = p.Since != ""; !delta {
		base = nil
	} else if base == nil {
		return true, fmt.Errorf("delta since %q without the sections it patches", p.Since)
	}
	p.Since = ""
	for i := range partialsSections {
		partialsSections[i].patch(p, base)
	}
	return delta, nil
}

// SocialRows returns the social section regrouped for merging: the rows
// Patch derived, or — for partials collected in process — derived now.
func (p *ShardPartials) SocialRows() *SocialRows {
	if p.rows != nil {
		return p.rows
	}
	return socialRowsOf(p.Social, patchTerms(nil, nil, p.Social))
}

// Take copies the fields section contributes from src into p, and marks p
// as holding it: Validate then requires the section's payload. The copy is
// shallow — slices are shared and read-only, as every Merge* function treats
// them. A coordinator splits a multi-section answer into sections it can hold
// separately with it, and composes held sections back into one bundle.
// Unknown sections contribute only the session count every answer carries,
// and the delta mark.
func (p *ShardPartials) Take(section string, src *ShardPartials) {
	p.Sessions, p.Since = src.Sessions, src.Since
	for i := range partialsSections {
		if sec := &partialsSections[i]; sec.name == section {
			if sec.post {
				p.HavePosts, p.Posts = src.HavePosts, src.Posts
				p.WindowFrom, p.WindowTo = src.WindowFrom, src.WindowTo
			}
			sec.take(p, src)
			p.took |= 1 << i
		}
	}
}

// ModelPartialsRequest is the POST /v1/partials/model body: the
// coordinator-trained model plus which model-phase sections to compute.
type ModelPartialsRequest struct {
	Model    stats.LinearModel `json:"model"`
	ISP      string            `json:"isp,omitempty"`
	Sections []string          `json:"sections"`
}

// ModelPartials is the POST /v1/partials/model response.
type ModelPartials struct {
	Sessions  int                `json:"sessions"`
	TE        []TEDayPartial     `json:"te,omitempty"`
	Predicted []DayOnlinePartial `json:"predicted,omitempty"`
}

// Validate rejects a model-phase answer the merge cannot take: days out of
// strictly ascending order, or a traffic-engineering day without one
// affected count and one lift per intervention.
func (m *ModelPartials) Validate() error {
	errs := []error{
		ascending(ModelSectionTE, m.TE, func(d *TEDayPartial) timeline.Day { return d.Day }, false),
		ascending(ModelSectionExperience, m.Predicted, func(d *DayOnlinePartial) timeline.Day { return d.Day }, false),
	}
	for i := range m.TE {
		if d := &m.TE[i]; len(d.Affected) != teSlots || len(d.Lift) != teSlots {
			errs = append(errs, fmt.Errorf("te day %v: %d affected, %d lifts, want %d of each", d.Day, len(d.Affected), len(d.Lift), teSlots))
		}
	}
	return errors.Join(errs...)
}

// --- shard-side collectors ---

// dosePartials exports one parameterization's per-day dose-response
// accumulator state — the days a since= base at session generation after
// lacks (every day for 0), ascending — registering the view on first use.
func (s *Store) dosePartials(key engViewKey, after uint64) []DoseDayPartial {
	var out []DoseDayPartial
	s.doseView(key, func(v *engView) {
		days := changedDays(v.days, s.views.stamps, after)
		out = make([]DoseDayPartial, 0, len(days))
		for _, d := range days {
			out = append(out, DoseDayPartial{Day: d, Bins: v.days[d].State()})
		}
	})
	return out
}

// expView is the per-ISP experience fold: the ISP's session count and, per
// calendar day, Welford accumulators of its engagement plus exact integer
// rating sums, each day fed in arrival order. The store keeps one per ISP
// asked for (viewOf).
type expView struct {
	isp      string
	sessions int
	days     map[timeline.Day]*expDay
	folded   int
	viewUse
}

// expDay is one day's experience accumulators.
type expDay struct {
	pres, cam, mic stats.Online
	ratingSum      int
	ratingN        int
}

func newExpView(isp string) *expView {
	return &expView{isp: isp, days: map[timeline.Day]*expDay{}}
}

func (v *expView) rowsFolded() int { return v.folded }
func (v *expView) empty() bool     { return v.sessions == 0 }

// foldOne absorbs one record of the view's ISP.
func (v *expView) foldOne(r *telemetry.SessionRecord) {
	v.folded++
	if r.ISP != v.isp {
		return
	}
	v.sessions++
	d := timeline.DayOf(r.Start)
	de := v.days[d]
	if de == nil {
		de = &expDay{}
		v.days[d] = de
	}
	de.pres.Add(r.PresencePct)
	de.cam.Add(r.CamOnPct)
	de.mic.Add(r.MicOnPct)
	if r.Rated {
		de.ratingSum += r.Rating
		de.ratingN++
	}
}

// experiencePartial builds the store's experience contribution: the ISP's
// session count, the days a since= base at session generation after lacks
// (every day for 0), and the whole corpus's social counts.
func (s *Store) experiencePartial(isp string, after uint64) *ExperiencePartial {
	p := &ExperiencePartial{}
	viewOf(s, &s.views.exp, isp, func() *expView { return newExpView(isp) }, func(v *expView) {
		p.Sessions = v.sessions
		days := changedDays(v.days, s.views.stamps, after)
		p.Days = make([]ExperienceDayPartial, 0, len(days))
		for _, d := range days {
			de := v.days[d]
			p.Days = append(p.Days, ExperienceDayPartial{
				Day: d, Pres: de.pres.State(), Cam: de.cam.State(), Mic: de.mic.State(),
				RatingSum: de.ratingSum, RatingN: de.ratingN,
			})
		}
	})
	if v := s.social(); v != nil {
		p.SocialPos, p.SocialNeg, p.OutageMentions = v.experienceCounts()
	}
	return p
}

// partialsRequest is a parsed /v1/partials query: the sections and, for
// each, the values of the rows it reads.
type partialsRequest struct {
	sections []string
	args     []readArgs
}

// parseRequest reads each section's parameters from the query query gives
// for it, and rejects unknown sections — version skew between coordinator
// and shard must be loud, not silent.
func parseRequest(sections []string, query func(sec *partialsSection) url.Values) (partialsRequest, error) {
	req := partialsRequest{sections: sections, args: make([]readArgs, len(sections))}
	for i, name := range sections {
		sec := sectionOf(name)
		if sec == nil {
			return req, fmt.Errorf("unknown partials section %q", name)
		}
		var err error
		if req.args[i], err = parseParams(query(sec), sec.params); err != nil {
			return req, err
		}
	}
	return req, nil
}

// parsePartials reads a /v1/partials query, or a plan's sections encoded by
// PartialsQuery. The error is the message a shard answers 400 with.
func parsePartials(q url.Values) (partialsRequest, error) {
	sections := ParseSections(q.Get("sections"))
	if len(sections) == 0 {
		return partialsRequest{}, errors.New("sections parameter required")
	}
	return parseRequest(sections, func(*partialsSection) url.Values { return q })
}

// CollectPartials builds the full GET /v1/partials response for the
// requested sections. Returns an error for unknown sections or missing
// parameters.
func (s *Server) CollectPartials(sections []string, doseKey *engViewKey, confEng telemetry.Engagement, isp string) (*ShardPartials, error) {
	given := map[string]readArgs{SectionConfounders: {"engagement": confEng}, SectionExperience: {"isp": isp}}
	if doseKey != nil {
		given[SectionDose] = doseKey.args()
	}
	req, err := parseRequest(sections, func(sec *partialsSection) url.Values { return given[sec.name].query(sec.params) })
	if err != nil {
		return nil, err
	}
	return s.store.partials(req, nil, false), nil
}

// sinceBase is a since= tag that this process minted under this protocol:
// the state whose sections a requester holds.
type sinceBase struct {
	tag              string
	sessGen, postGen uint64
}

// parseSince returns the base a since= value names, or nil for anything
// that is not a state tag of this process and protocol — those get a full
// answer.
func (s *Server) parseSince(raw string) *sinceBase {
	f := strings.Split(strings.Trim(raw, `"`), ".")
	if len(f) != 4 || f[0] != partialsProtocol || f[1] != s.boot {
		return nil
	}
	sessGen, err := strconv.ParseUint(f[2], 10, 64)
	if err != nil {
		return nil
	}
	postGen, err := strconv.ParseUint(f[3], 10, 64)
	if err != nil {
		return nil
	}
	return &sinceBase{tag: raw, sessGen: sessGen, postGen: postGen}
}

// collection is one Store.partials walk: the store, the current section's
// parameters and the generation of its family a delta lists elements after,
// and the one post snapshot both post sections read.
type collection struct {
	s     *Store
	args  readArgs
	after uint64
	view  *socialView
	local bool
}

// partials collects the bundle of a checked request. A local bundle is for
// this process's own plans: its social section is the store's view, read
// without spelling every day's terms onto the wire. A wire bundle, with a
// since= base the store has not moved behind in either family (a future
// generation gets a full answer), is a delta: every keyed section lists only
// the elements stamped after the base's generation for its family.
func (s *Store) partials(req partialsRequest, since *sinceBase, local bool) *ShardPartials {
	out := &ShardPartials{}
	// afterSess and afterPost are the base's generations: 0 asks for all.
	var afterSess, afterPost uint64
	if since != nil {
		if sessGen, postGen := s.Generations(); since.sessGen <= sessGen && since.postGen <= postGen {
			afterSess, afterPost, out.Since = since.sessGen, since.postGen, since.tag
		}
	}
	_, out.Sessions = s.RatedSessions()
	c := &collection{s: s, local: local}
	for i, name := range req.sections {
		sec := sectionOf(name)
		if c.args, c.after = req.args[i], afterSess; sec.post {
			if c.view == nil {
				c.view = s.social()
			}
			if c.view == nil {
				continue // no posts held
			}
			c.after = afterPost
			out.HavePosts, out.Posts = true, c.view.posts
			out.WindowFrom, out.WindowTo = c.view.window.From, c.view.window.To
		}
		sec.collect(c, out)
	}
	return out
}

// checkShippedModel rejects a model no coordinator trains: the wrong
// number of coefficients, or a non-finite one. A shipped model keys the
// store's traffic-engineering fold, so it is checked before anything runs.
func checkShippedModel(m *stats.LinearModel) error {
	if len(m.Coef) != predictorFeatureCount {
		return fmt.Errorf("model has %d coefficients, want %d", len(m.Coef), predictorFeatureCount)
	}
	if math.IsNaN(m.Intercept) || math.IsInf(m.Intercept, 0) {
		return fmt.Errorf("model intercept %v is not finite", m.Intercept)
	}
	for j, c := range m.Coef {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("model coefficient %d (%v) is not finite", j, c)
		}
	}
	return nil
}

// CollectModelPartials builds the POST /v1/partials/model response: per-day
// partials computed under the shipped model. Both sections come from the
// store's model fold, so a model shipped again folds only the rows that
// arrived since it was last asked for.
func (s *Server) CollectModelPartials(req ModelPartialsRequest) (*ModelPartials, error) {
	return s.store.modelPartials(req)
}

func (s *Store) modelPartials(req ModelPartialsRequest) (*ModelPartials, error) {
	if err := checkShippedModel(&req.Model); err != nil {
		return nil, err
	}
	model := req.Model
	p := NewMOSPredictorFromModel(&model)
	rows := s.Rows()
	out := &ModelPartials{Sessions: rows.Len()}
	for _, section := range req.Sections {
		switch section {
		case ModelSectionTE:
			out.TE, _ = s.te.partials(p, rows)
		case ModelSectionExperience:
			out.Predicted, _ = s.te.predicted(p, rows, req.ISP)
		default:
			return nil, fmt.Errorf("unknown model-partials section %q", section)
		}
	}
	return out, nil
}

// --- coordinator-side merge/assemble ---

// MergeRated merges shards' day-major rated subsequences into the global
// day-major order. Shards hold disjoint day sets, so a stable day sort of
// the concatenation reproduces a single store's subsequence exactly. One
// part is returned as it is: it is already in that order.
func MergeRated(parts [][]telemetry.SessionRecord) []telemetry.SessionRecord {
	if len(parts) == 1 {
		return parts[0]
	}
	merged := slices.Concat(parts...)
	sortRatedDayMajor(merged)
	return merged
}

// MergeDaily merges shards' per-day engagement rows (disjoint day sets)
// into the global ascending series. One part is already that series.
func MergeDaily(parts [][]DayEngagement) []DayEngagement {
	if len(parts) == 1 {
		return parts[0]
	}
	merged := slices.Concat(parts...)
	sort.Slice(merged, func(i, j int) bool { return merged[i].Day < merged[j].Day })
	return merged
}

// MergeDosePartials folds shards' per-day dose accumulators into the final
// series: day states union (each day lives on one shard), then fold
// strictly ascending — the DoseResponseDaily computation.
func MergeDosePartials(b stats.Binner, parts [][]DoseDayPartial) (stats.BinnedSeries, error) {
	days := dayBins{}
	for _, part := range parts {
		for _, dp := range part {
			acc, err := stats.BinAccFromState(dp.Bins)
			if err != nil {
				return stats.BinnedSeries{}, fmt.Errorf("usaas: dose partial day %v: %w", dp.Day, err)
			}
			if prev := days[dp.Day]; prev != nil {
				// A day shared across shards means the partition map was
				// violated; merging keeps the fold well-defined anyway.
				if err := prev.Merge(acc); err != nil {
					return stats.BinnedSeries{}, fmt.Errorf("usaas: dose partial day %v: %w", dp.Day, err)
				}
			} else {
				days[dp.Day] = acc
			}
		}
	}
	return foldDayBins(b, days).Series(), nil
}

// MergeConfounders assembles the confounder report from shards' day
// partials (assembleConfounders' canonical ascending fold).
func MergeConfounders(parts [][]ConfounderDayPartial) ([]ConfounderEffect, error) {
	return assembleConfounders(slices.Concat(parts...))
}

// MergeTE assembles the traffic-engineering recommendations from shards'
// model-phase day partials; total is the cluster-wide session count.
func MergeTE(total int, parts [][]TEDayPartial) []TERecommendation {
	return assembleTE(total, slices.Concat(parts...))
}

// MergeByDay reconstructs a global daily series — sentiment, outage
// keywords — from shipped day rows (disjoint across parts): each placed on
// its day of the window, and a row of only its day wherever no part ships
// one, exactly the series a single corpus sweep produces. day points at a
// row's day.
func MergeByDay[T any](window timeline.Range, parts [][]T, day func(*T) *timeline.Day) []T {
	out := make([]T, window.Len())
	for i := range out {
		*day(&out[i]) = window.From + timeline.Day(i)
	}
	for _, p := range parts {
		for j := range p {
			if i := int(*day(&p[j]) - window.From); i >= 0 && i < len(out) {
				out[i] = p[j]
			}
		}
	}
	return out
}

// MergeTrends runs the trend surge scan over the union of shards' term
// accumulations, exactly as a single corpus sweep would over the global
// window. It walks the parts' term lists, each sorted by spelling, in
// lockstep: a term's rows are scattered from every part that has it, its
// counts int-summed. Each (term, day) weight is accumulated wholly on one
// shard, so no float is summed across parts.
func MergeTrends(window timeline.Range, parts [][]TermPartial, opts TrendOptions) []Trend {
	opts = opts.withDefaults()
	days := window.Len()
	// weight is the current term's per-day weight over the window, zero
	// where it is silent; the tail lets the surge window run past the last
	// day.
	weight := make([]float64, days+opts.WindowDays)
	var out []Trend
	next := make([]int, len(parts))
	for {
		term, found := "", false // the least spelling at the parts' cursors
		for i, p := range parts {
			if n := next[i]; n < len(p) && (!found || p[n].Term < term) {
				term, found = p[n].Term, true
			}
		}
		if !found {
			break
		}
		clear(weight)
		pos, total := 0, 0
		for i, p := range parts {
			if n := next[i]; n < len(p) && p[n].Term == term {
				for _, dw := range p[n].Days {
					if d := int(dw.Day - window.From); d >= 0 && d < days {
						weight[d] += dw.Weight
					}
				}
				pos, total = pos+p[n].Pos, total+p[n].Total
				next[i]++
			}
		}
		// Scan for the first window whose weight crosses MinWeight with a
		// quiet 30-day baseline before it. Windows in the first 30 days have
		// no baseline to judge against, so they cannot qualify — otherwise
		// the corpus's ordinary vocabulary would all "emerge" on day one.
		for i := 30; i+opts.WindowDays <= days; i++ {
			var windowW float64
			for j := 0; j < opts.WindowDays; j++ {
				windowW += weight[i+j]
			}
			if windowW < opts.MinWeight {
				continue
			}
			var baseW float64
			for j := 1; j <= 30; j++ {
				baseW += weight[i-j]
			}
			if baseW/30 > opts.BaselineMax {
				break // established topic, not emerging
			}
			// Anchor the trend at the first day inside the window that
			// actually carries weight (not the window's leading edge), and
			// measure the surge weight from there so a surge that starts
			// mid-window is not under-weighted.
			first := i
			for j := 0; j < opts.WindowDays; j++ {
				if weight[i+j] > 0 {
					first = i + j
					break
				}
			}
			surgeW := 0.0
			for j := 0; j < opts.WindowDays; j++ {
				surgeW += weight[first+j]
			}
			out = append(out, Trend{
				Term:          term,
				FirstDay:      window.From + timeline.Day(first),
				Weight:        surgeW,
				PositiveShare: float64(pos) / float64(total),
			})
			break
		}
	}
	sortTrends(out)
	if len(out) > opts.MaxTerms {
		out = out[:opts.MaxTerms]
	}
	return out
}

// MergeClouds indexes shards' shipped word clouds by day for peak
// annotation.
func MergeClouds(parts [][]DayCloud) map[timeline.Day][]nlp.WordCount {
	out := map[timeline.Day][]nlp.WordCount{}
	for _, p := range parts {
		for _, dc := range p {
			out[dc.Day] = dc.Words
		}
	}
	return out
}

// MergePeaks annotates the top-k sentiment peaks of the merged daily series
// using shipped word clouds instead of a local corpus.
func MergePeaks(daily []DaySentiment, clouds map[timeline.Day][]nlp.WordCount, news *newswire.Index, k int) []AnnotatedPeak {
	return annotatePeaksWith(daily, news, k, func(d timeline.Day) []nlp.WordCount {
		return clouds[d]
	})
}

// MergeSpeeds assembles the monthly speed series from shards' per-month
// observations: per month, observations re-interleave into corpus order
// ((day, id) sort over disjoint shard contributions), strong counts
// int-sum, and assembleMonthSpeeds runs its single subsample-RNG stream
// over the global window's months.
func MergeSpeeds(window timeline.Range, parts [][]SpeedMonthPartial, model *leo.Model, seed uint64) []MonthSpeed {
	type obs struct {
		day  timeline.Day
		id   uint64
		down float64
	}
	byMonth := map[timeline.Month][]obs{}
	strong := map[timeline.Month][2]int{}
	for _, part := range parts {
		for _, sp := range part {
			for i, down := range sp.Downs { // parallel arrays of one length (Validate)
				byMonth[sp.Month] = append(byMonth[sp.Month], obs{day: sp.Days[i], id: sp.IDs[i], down: down})
			}
			cnt := strong[sp.Month]
			cnt[0] += sp.StrongPos
			cnt[1] += sp.StrongNeg
			strong[sp.Month] = cnt
		}
	}
	months := window.Months()
	speeds := make(map[timeline.Month][]float64, len(byMonth))
	for m, os := range byMonth {
		sort.Slice(os, func(i, j int) bool {
			if os[i].day != os[j].day {
				return os[i].day < os[j].day
			}
			return os[i].id < os[j].id
		})
		xs := make([]float64, len(os))
		for i, ob := range os {
			xs[i] = ob.down
		}
		speeds[m] = xs
	}
	return assembleMonthSpeeds(months, speeds, strong, model, seed)
}

// MergeExperience assembles the per-ISP experience answer from parts'
// phase-1 partials and (optionally) phase-2 predicted accumulators. The
// per-day accumulators merge strictly ascending by day.
func MergeExperience(isp string, parts []*ExperiencePartial, predicted [][]DayOnlinePartial) ExperienceResponse {
	resp := ExperienceResponse{ISP: isp}
	type dayRow struct {
		day            timeline.Day
		pres, cam, mic stats.OnlineState
	}
	var days []dayRow
	var ratingSum, ratingN int
	var pos, neg, outage int
	for _, p := range parts {
		if p == nil {
			continue
		}
		resp.Sessions += p.Sessions
		for _, d := range p.Days {
			days = append(days, dayRow{day: d.Day, pres: d.Pres, cam: d.Cam, mic: d.Mic})
			ratingSum += d.RatingSum
			ratingN += d.RatingN
		}
		pos += p.SocialPos
		neg += p.SocialNeg
		outage += p.OutageMentions
	}
	sort.Slice(days, func(i, j int) bool { return days[i].day < days[j].day })
	var pres, cam, mic stats.Online
	for _, d := range days {
		pres.Merge(stats.FromState(d.pres))
		cam.Merge(stats.FromState(d.cam))
		mic.Merge(stats.FromState(d.mic))
	}
	resp.MeanPresence = pres.Mean()
	resp.MeanCamOn = cam.Mean()
	resp.MeanMicOn = mic.Mean()
	if ratingN > 0 {
		resp.SurveyedMOS = float64(ratingSum) / float64(ratingN)
		resp.SurveyedCount = ratingN
	}
	var predDays []DayOnlinePartial
	for _, p := range predicted {
		predDays = append(predDays, p...)
	}
	if len(predDays) > 0 {
		sort.Slice(predDays, func(i, j int) bool { return predDays[i].Day < predDays[j].Day })
		var acc stats.Online
		for _, d := range predDays {
			acc.Merge(stats.FromState(d.Acc))
		}
		resp.PredictedMOS = acc.Mean()
	}
	if pos+neg > 0 {
		resp.SocialPosRatio = float64(pos) / float64(pos+neg)
	}
	resp.OutageMentions = outage
	return resp
}

// mosCorrelations is the wire form of the Fig. 4 correlations over a
// day-major rated subsequence.
func mosCorrelations(rated []telemetry.SessionRecord, bins int) ([]MOSCorrelation, error) {
	report, err := mosReportRated(rated, bins, nil)
	if err != nil {
		return nil, err
	}
	out := make([]MOSCorrelation, 0, len(report))
	for _, em := range report {
		out = append(out, MOSCorrelation{
			Engagement:    em.Engagement.String(),
			Pearson:       em.Pearson,
			Spearman:      em.Spearman,
			RatedSessions: em.RatedSessions,
		})
	}
	return out, nil
}

// ParseSections splits a comma-separated sections parameter.
func ParseSections(raw string) []string {
	if raw == "" {
		return nil
	}
	parts := strings.Split(raw, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
