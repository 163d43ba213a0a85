package usaas

import (
	"math"
	"sync/atomic"

	"usersignals/internal/nlp"
	"usersignals/internal/parallel"
	"usersignals/internal/social"
	"usersignals/internal/timeline"
)

// This file is the text engine behind every §4 explicit-signal analysis,
// in three layers that the daemon and the offline library share:
//
//   - analyze reads one post's token streams ONCE and keeps the few facts
//     every analysis needs of it (sentiment classes, dictionary hits, trend
//     weight). Scoring and gating rules exist only there.
//   - socialDay folds the facts and content stems of one calendar day's posts,
//     in corpus (ID) order, into mergeable per-day state: sentiment counts,
//     keyword hits, word-cloud counts, trend term weights. The term rules
//     exist only there.
//   - the assembly steps (sentimentRows, keywordRows, spellDays +
//     patchTerms, MergeTrends, annotatePeaksWith) turn day accumulators into
//     served series. They run at read time; the term rows, the costliest,
//     are patched by the days that changed (posts.go).
//
// The store (posts.go) analyses each post at ingest and keeps one socialDay per
// day up to date, so a query only assembles. SweepCorpus is the same fold
// run in one pass over an offline social.Corpus — the library entry point
// (cmd/figures, examples) and the reference the store's incremental folds
// are tested against.
//
// A day is the unit of float accumulation: a term's weight on a day is the
// sum of that day's post weights in ID order, and nothing is ever summed
// across days. Sharding by day (workers here, shards in a cluster) and
// folding days at different times (ingest) therefore cannot change a bit of
// the output.

// sweepDayChunk is the canonical day-sharding granularity.
const sweepDayChunk = 32

// postsAnalyzed counts analyze calls process-wide. It only ever grows;
// tests read it before and after a request to prove that the read path
// scores nothing.
var postsAnalyzed atomic.Int64

// textEngine is an analyzer and an optional dictionary compiled against one
// interner. Not safe for use beside interner growth; the store serialises
// both under its text lock.
type textEngine struct {
	in      *nlp.Interner
	scorer  *nlp.TokenScorer
	matcher *nlp.Matcher // nil: dictionary hits not wanted
}

func newTextEngine(an *nlp.Analyzer, dict *nlp.Dictionary, in *nlp.Interner) *textEngine {
	e := &textEngine{in: in, scorer: an.CompileScorer(in)}
	if dict != nil {
		e.matcher = dict.CompileMatcher(in)
	}
	return e
}

// postFacts is what the analyses keep of one post once its text has been
// read.
type postFacts struct {
	// weight is the trend popularity weight, 1 + log1p(upvotes+comments).
	weight float64
	// hits counts outage-dictionary occurrences over the whole thread,
	// before any gate.
	hits                 int32
	strongPos, strongNeg bool
	// positive posts count toward a term's positive share; negative ones
	// pass the experience query's outage gate; gated ones (negative and
	// clearly so) pass the Fig. 6 keyword gate.
	positive, negative, gated bool
}

// analyze scores a post's own text, matches the dictionary over its thread
// and applies the gates.
func (e *textEngine) analyze(p *social.Post, text, thread []nlp.TokenID) postFacts {
	postsAnalyzed.Add(1)
	s := e.scorer.Score(text)
	f := postFacts{
		weight:    1 + math.Log1p(float64(p.Upvotes+p.Comments)),
		strongPos: s.StrongPositive(),
		strongNeg: s.StrongNegative(),
		positive:  s.Positive > s.Negative,
		negative:  s.Negative > s.Positive,
	}
	f.gated = f.negative && s.Negative >= 0.3
	if e.matcher != nil {
		f.hits = int32(e.matcher.Count(thread))
	}
	return f
}

// contentStems appends the stem of every content token of a post's text:
// the vocabulary its word cloud and its trend terms are counted over.
func (e *textEngine) contentStems(dst, text []nlp.TokenID) []nlp.TokenID {
	for _, id := range text {
		if e.in.IsContent(id) {
			dst = append(dst, e.in.StemID(id))
		}
	}
	return dst
}

// termKey packs a unigram stem ID or a bigram stem-ID pair into one map
// key. The +1 bias keeps unigrams (low word zero) disjoint from bigrams.
func unigramKey(a nlp.TokenID) uint64 { return (uint64(a) + 1) << 32 }
func bigramKey(a, b nlp.TokenID) uint64 {
	return (uint64(a)+1)<<32 | (uint64(b) + 1)
}

// termString decodes a packed term key back to the term's spelling ("stem"
// or "stem stem").
func termString(in *nlp.Interner, key uint64) string {
	a := nlp.TokenID(key>>32 - 1)
	if low := uint32(key); low != 0 {
		return in.Token(a) + " " + in.Token(nlp.TokenID(low-1))
	}
	return in.Token(a)
}

// dayTerm is one term's state on one day.
type dayTerm struct {
	key    uint64
	weight float64 // summed weight of the day's posts that use the term
	pos    int32   // of those posts, the positive ones
	total  int32
	count  int32 // occurrences among content tokens (unigrams): the cloud count
	last   int32 // socialDay.Posts when a post last counted the term
}

// speedPoint is one OCR-extracted speed report and the strong-sentiment
// class of the post that carried it.
type speedPoint struct {
	id                   uint64
	down                 float64
	strongPos, strongNeg bool
}

// socialDay is the fold of one day's posts in ID order.
type socialDay struct {
	DaySentiment
	hits           int       // dictionary occurrences, ungated
	gatedHits      int       // ... in posts that pass the keyword gate
	outageMentions int       // negative posts with at least one hit
	terms          []dayTerm // sorted by key
	speeds         []speedPoint
	// cloud is the day's top word-cloud unigrams, set by finish.
	cloud []nlp.WordCount
	// gen is the store's post generation whose batch folded this
	// accumulator (0 in an offline sweep): a coordinator holding the
	// days of an older generation needs exactly the days with a greater one.
	gen uint64
}

// cloudWords is how many unigrams a day's word cloud keeps: the peak
// annotations show twelve and search the news for the first three.
const cloudWords = 12

// addFacts counts one post's sentiment classes and dictionary hits.
func (a *socialDay) addFacts(f postFacts) {
	a.Posts++
	if f.strongPos {
		a.StrongPos++
	}
	if f.strongNeg {
		a.StrongNeg++
	}
	a.hits += int(f.hits)
	if f.gated {
		a.gatedHits += int(f.hits)
	}
	if f.negative && f.hits > 0 {
		a.outageMentions++
	}
}

// term returns the position of key's entry in terms, adding it if absent.
func (a *socialDay) term(key uint64) int {
	lo, hi := 0, len(a.terms)
	for lo < hi {
		if mid := (lo + hi) / 2; a.terms[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(a.terms) || a.terms[lo].key != key {
		a.terms = append(a.terms, dayTerm{})
		copy(a.terms[lo+1:], a.terms[lo:])
		a.terms[lo] = dayTerm{key: key}
	}
	return lo
}

// addStems counts one post's content stems: every occurrence toward the
// word cloud, and each distinct unigram (and adjacent pair, with bigrams)
// once toward the trend terms. Call after addFacts for the same post.
func (a *socialDay) addStems(f postFacts, stems []nlp.TokenID, bigrams bool) {
	use := func(t *dayTerm) {
		if t.last == int32(a.Posts) {
			return // this post already counted the term
		}
		t.last = int32(a.Posts)
		t.weight += f.weight
		t.total++
		if f.positive {
			t.pos++
		}
	}
	for i, stem := range stems {
		t := &a.terms[a.term(unigramKey(stem))]
		t.count++
		use(t)
		if bigrams && i > 0 {
			use(&a.terms[a.term(bigramKey(stems[i-1], stem))])
		}
	}
}

// topWords ranks the day's word cloud and returns its first k unigrams.
func (a *socialDay) topWords(in *nlp.Interner, k int) []nlp.WordCount {
	words := make([]nlp.WordCount, 0, len(a.terms))
	for i := range a.terms {
		if t := &a.terms[i]; t.count > 0 {
			words = append(words, nlp.WordCount{Word: termString(in, t.key), Count: int(t.count)})
		}
	}
	top := nlp.Rank(words, k)
	return append(make([]nlp.WordCount, 0, len(top)), top...)
}

// finish sets the day's served word cloud. Call once its posts are folded.
func (a *socialDay) finish(in *nlp.Interner) { a.cloud = a.topWords(in, cloudWords) }

// clone copies the accumulator so that posts can be added to the copy while
// readers keep the original.
func (a *socialDay) clone() *socialDay {
	c := *a
	c.terms = append([]dayTerm(nil), a.terms...)
	c.speeds = append([]speedPoint(nil), a.speeds...)
	return &c
}

// spellDays exports day accumulators as day partials, each with its term
// rows spelled through in, the interner their keys were packed from.
func spellDays(in *nlp.Interner, days []*socialDay) []SocialDayPartial {
	if len(days) == 0 {
		return nil
	}
	out := make([]SocialDayPartial, len(days))
	for k, a := range days {
		d := SocialDayPartial{
			Day: a.Day, Posts: a.Posts, StrongPos: a.StrongPos, StrongNeg: a.StrongNeg,
			Keywords: a.gatedHits, Cloud: a.cloud,
			Terms:   make([]string, len(a.terms)),
			Weights: make([]float64, len(a.terms)),
			Pos:     make([]int, len(a.terms)),
			Total:   make([]int, len(a.terms)),
		}
		for i := range a.terms {
			t := &a.terms[i]
			d.Terms[i], d.Weights[i], d.Pos[i], d.Total[i] = termString(in, t.key), t.weight, int(t.pos), int(t.total)
		}
		out[k] = d
	}
	return out
}

// SweepOptions selects which fused products to compute.
type SweepOptions struct {
	// Sentiment computes the daily strong-sentiment series.
	Sentiment bool
	// Dict, when non-nil, computes the per-day dictionary-hit series over
	// whole threads.
	Dict *nlp.Dictionary
	// Gate applies the negative-sentiment gate to dictionary hits.
	Gate bool
	// Trends, when non-nil, mines emerging terms with these options.
	Trends *TrendOptions
	// Workers shards the sweep; <= 0 means one per CPU.
	Workers int
}

// Sweep holds the fused products. Fields for products not requested are
// nil.
type Sweep struct {
	Sentiment []DaySentiment
	Keywords  []DayKeywords
	Trends    []Trend
}

// SweepCorpus runs the single-pass sweep over an offline corpus: every
// window day folded into a socialDay from the corpus's cached token streams,
// then assembled. Output is byte-identical to running the string-based
// reference analyses separately (golden-tested in sweep_test.go) at any
// worker count.
func SweepCorpus(c *social.Corpus, an *nlp.Analyzer, opts SweepOptions) *Sweep {
	tc := c.Tokens()
	e := newTextEngine(an, opts.Dict, tc.Interner())
	bigrams := opts.Trends != nil && opts.Trends.withDefaults().Bigrams

	n := c.Window.Len()
	chunks, _ := parallel.Map(opts.Workers, (n+sweepDayChunk-1)/sweepDayChunk, func(ci int) ([]*socialDay, error) {
		lo, hi := ci*sweepDayChunk, min((ci+1)*sweepDayChunk, n)
		days := make([]*socialDay, 0, hi-lo)
		var stems []nlp.TokenID
		for di := lo; di < hi; di++ {
			a := &socialDay{DaySentiment: DaySentiment{Day: c.Window.From + timeline.Day(di)}}
			plo, phi := c.PostIndexRange(a.Day)
			for j := plo; j < phi; j++ {
				f := e.analyze(&c.Posts[j], tc.Text(j), tc.Thread(j))
				a.addFacts(f)
				if opts.Trends != nil {
					stems = e.contentStems(stems[:0], tc.Text(j))
					a.addStems(f, stems, bigrams)
				}
			}
			days = append(days, a)
		}
		return days, nil
	})
	days := make([]*socialDay, 0, n)
	for _, ch := range chunks {
		days = append(days, ch...)
	}

	out := &Sweep{}
	if opts.Sentiment {
		out.Sentiment = MergeByDay(c.Window, [][]DaySentiment{sentimentRows(days)}, func(d *DaySentiment) *timeline.Day { return &d.Day })
	}
	if opts.Dict != nil {
		out.Keywords = MergeByDay(c.Window, [][]DayKeywords{keywordRows(days, opts.Gate)}, func(d *DayKeywords) *timeline.Day { return &d.Day })
	}
	if opts.Trends != nil {
		terms := patchTerms(nil, nil, spellDays(e.in, days))
		out.Trends = MergeTrends(c.Window, [][]TermPartial{terms}, *opts.Trends)
	}
	return out
}

// sentimentRows exports the sentiment rows of the days that hold posts.
func sentimentRows(days []*socialDay) []DaySentiment {
	var out []DaySentiment
	for _, a := range days {
		if a.Posts > 0 {
			out = append(out, a.DaySentiment)
		}
	}
	return out
}

// keywordRows exports the keyword rows of the days that have hits, with or
// without the negative-sentiment gate.
func keywordRows(days []*socialDay, gate bool) []DayKeywords {
	var out []DayKeywords
	for _, a := range days {
		n := a.hits
		if gate {
			n = a.gatedHits
		}
		if n > 0 {
			out = append(out, DayKeywords{Day: a.Day, Count: n})
		}
	}
	return out
}
