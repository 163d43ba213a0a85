package usaas

import (
	"sort"
	"sync"

	"usersignals/internal/nlp"
	"usersignals/internal/ocr"
	"usersignals/internal/parallel"
	"usersignals/internal/social"
	"usersignals/internal/timeline"
)

// This file is the store's post shard: posts bucketed by calendar day and
// kept in ID order by insertion, every post's text read once at ingest, and
// one day accumulator (sweep.go) per bucket kept current under the dedup
// guard. A social query never touches a post: it copies the accumulator
// pointers under the shard lock and assembles from them.
//
// Float identity holds by construction. A day's accumulator is always the
// fold of that day's posts in ID order: a post that arrives in order extends
// a copy of the accumulator, a post that lands ahead of already-folded ones
// makes the day fold again from its cached per-post facts — only that day,
// and without tokenising or scoring anything. Arrival order, batch cuts,
// recovery from a snapshot (one big batch) and sharding by day therefore all
// reach the same accumulators, bit for bit. Published accumulators are never
// written again, so readers use them without a lock.
//
// Locks: the buckets, the stem arena and postGen belong to postMu. The text
// engine (interner, scorer tables, matcher) belongs to textMu, which staging
// takes on its own and folds and reads take shared, after postMu if they
// hold it. Lock order: ... ≻ postMu ≻ textMu ≻ dedupMu.

// postRec is what the store keeps of one post beside the post itself: the
// facts read from its text, its content stems (arena[off:off+n]) and, for a
// readable screenshot, the extracted downlink speed.
type postRec struct {
	postFacts
	off, n   uint32
	down     float64
	hasSpeed bool
}

// dayBucket is one calendar day's posts in ID order (ties in arrival order).
type dayBucket struct {
	day   timeline.Day
	posts []social.Post
	recs  []postRec // parallel to posts
	// acc is the fold of recs[:folded]. folded trails len(recs) only
	// inside applyPosts, between placing a batch and folding it.
	acc    *socialDay
	folded int
}

// insert places a post by ID, after any equal ones. A post that lands ahead
// of folded ones invalidates the fold.
func (b *dayBucket) insert(p *social.Post, r postRec) {
	n := len(b.posts)
	k := n
	if n > 0 && p.ID < b.posts[n-1].ID {
		k = sort.Search(n, func(i int) bool { return b.posts[i].ID > p.ID })
	}
	b.posts = append(b.posts, social.Post{})
	copy(b.posts[k+1:], b.posts[k:])
	b.posts[k] = *p
	b.recs = append(b.recs, postRec{})
	copy(b.recs[k+1:], b.recs[k:])
	b.recs[k] = r
	if k < b.folded {
		b.folded = 0
	}
}

// fold brings acc up to date with recs and stamps it with the post
// generation gen of the batch folding it. The previous accumulator is left
// untouched for the readers that hold it.
func (b *dayBucket) fold(arena []nlp.TokenID, in *nlp.Interner, gen uint64) (refolded bool) {
	var a *socialDay
	if b.folded > 0 {
		a = b.acc.clone()
	} else {
		a = &socialDay{DaySentiment: DaySentiment{Day: b.day}}
		refolded = b.acc != nil
	}
	for i := b.folded; i < len(b.recs); i++ {
		r := &b.recs[i]
		a.addFacts(r.postFacts)
		a.addStems(r.postFacts, arena[r.off:r.off+r.n], false)
		if r.hasSpeed {
			a.speeds = append(a.speeds, speedPoint{id: b.posts[i].ID, down: r.down, strongPos: r.strongPos, strongNeg: r.strongNeg})
		}
	}
	a.finish(in)
	a.gen = gen
	b.acc, b.folded = a, len(b.recs)
	return refolded
}

// stagedPosts is a batch's per-post work, done outside the shard lock; stem
// offsets are relative to stems.
type stagedPosts struct {
	recs  []postRec
	stems []nlp.TokenID
}

// bindText gives the store the analyzer and dictionary its posts are read
// with, over a fresh interner. The first binding wins: a store that has
// already read posts (or been bound by an earlier server) keeps its
// instances. The dictionary's tokens are interned first, so the matcher
// keeps every pattern as ingest grows the vocabulary.
func (s *Store) bindText(an *nlp.Analyzer, dict *nlp.Dictionary) {
	s.textMu.Lock()
	defer s.textMu.Unlock()
	s.bindTextLocked(an, dict)
}

func (s *Store) bindTextLocked(an *nlp.Analyzer, dict *nlp.Dictionary) {
	if s.text != nil {
		return
	}
	in := nlp.NewInterner()
	dict.InternInto(in)
	s.text = newTextEngine(an, dict, in)
}

// stagePosts does everything per-post that does not need the shard lock:
// OCR extraction of screenshots, then — under the text lock, which only
// other stagers contend for — tokenising each post into the store's
// interner, scoring it, matching the outage dictionary over its thread and
// keeping its content stems. The caller (an apply job before its turn, a
// snapshot restore) folds the result in under postMu.
func (s *Store) stagePosts(posts []social.Post) stagedPosts {
	st := stagedPosts{recs: make([]postRec, len(posts))}
	for i := range posts {
		if posts[i].Screenshot == nil {
			continue
		}
		ex, err := ocr.Extract(*posts[i].Screenshot)
		if err != nil {
			continue // unreadable screenshot: the pipeline moves on
		}
		st.recs[i].down, st.recs[i].hasSpeed = ex.DownMbps, true
	}

	s.textMu.Lock()
	defer s.textMu.Unlock()
	if s.text == nil { // posts before any server: the defaults
		s.bindTextLocked(nlp.NewAnalyzer(), nlp.OutageDictionary())
	}
	e := s.text
	// Tokenise the whole batch first, so the scorer tables are extended
	// once for whatever vocabulary it brought. The raw token run is scratch:
	// only the content stems outlive the call.
	toks := s.tokScratch[:0]
	type span struct{ off, text, end int }
	spans := make([]span, len(posts))
	for i := range posts {
		sp := span{off: len(toks)}
		toks, sp.text = social.AppendPostTokens(e.in, toks, &posts[i])
		sp.end = len(toks)
		spans[i] = sp
	}
	s.tokScratch = toks
	e.scorer.Extend(e.in)
	st.stems = make([]nlp.TokenID, 0, len(toks)/2)
	for i := range posts {
		sp, r := spans[i], &st.recs[i]
		text := toks[sp.off : sp.off+sp.text]
		r.postFacts = e.analyze(&posts[i], text, toks[sp.off:sp.end])
		r.off = uint32(len(st.stems))
		st.stems = e.contentStems(st.stems, text)
		r.n = uint32(len(st.stems)) - r.off
	}
	return st
}

// applyPosts folds a sequenced post batch into the shard: each post goes
// into its day's bucket by ID, then every touched day's accumulator is
// brought up to date. Jobs arrive here in sequence order (turn chain).
func (s *Store) applyPosts(posts []social.Post, st stagedPosts) {
	if len(posts) == 0 {
		return
	}
	s.postMu.Lock()
	defer s.postMu.Unlock()
	s.postGen++
	s.nPosts += len(posts)
	base := uint32(len(s.arena))
	s.arena = appendGrown(s.arena, st.stems)
	var touched []*dayBucket
	for i := range posts {
		b := s.bucketLocked(posts[i].Day)
		if b.folded == len(b.recs) {
			touched = append(touched, b)
		}
		r := st.recs[i]
		r.off += base
		b.insert(&posts[i], r)
	}

	// Days fold independently, so a batch that spans many (a backfill, a
	// snapshot restore) shards them by canonical chunk.
	s.textMu.RLock()
	defer s.textMu.RUnlock()
	n, gen := len(touched), s.postGen
	refolds, _ := parallel.Map(0, (n+sweepDayChunk-1)/sweepDayChunk, func(ci int) (int, error) {
		refolded := 0
		for _, b := range touched[ci*sweepDayChunk : min((ci+1)*sweepDayChunk, n)] {
			if b.fold(s.arena, s.text.in, gen) {
				refolded++
			}
		}
		return refolded, nil
	})
	for _, r := range refolds {
		s.refolds += r
	}
}

// bucketLocked finds or creates the bucket of day d. Caller holds postMu.
func (s *Store) bucketLocked(d timeline.Day) *dayBucket {
	n := len(s.days)
	if n > 0 && s.days[n-1].day == d {
		return s.days[n-1] // ingest is roughly chronological
	}
	i := sort.Search(n, func(i int) bool { return s.days[i].day >= d })
	if i < n && s.days[i].day == d {
		return s.days[i]
	}
	s.days = append(s.days, nil)
	copy(s.days[i+1:], s.days[i:])
	s.days[i] = &dayBucket{day: d}
	return s.days[i]
}

// postsLocked copies every post out in corpus order. Caller holds postMu.
func (s *Store) postsLocked() []social.Post {
	out := make([]social.Post, 0, s.nPosts)
	for _, b := range s.days {
		out = append(out, b.posts...)
	}
	return out
}

// Corpus materialises the posts as a day-indexed corpus for offline
// analysis (nil when no posts have been ingested). The corpus is a private
// copy in corpus order covering every post applied before the call began;
// nothing the daemon serves reads it.
func (s *Store) Corpus() *social.Corpus {
	s.fencePosts()
	s.postMu.RLock()
	if s.nPosts == 0 {
		s.postMu.RUnlock()
		return nil
	}
	posts := s.postsLocked()
	window := timeline.Range{From: s.days[0].day, To: s.days[len(s.days)-1].day}
	s.postMu.RUnlock()
	return social.NewCorpus(window, posts)
}

// socialView is a consistent read of the post shard: the corpus window, the
// post count, the post generation and every day's published accumulator,
// ascending. Everything the social endpoints serve is assembled from it,
// lock-free.
type socialView struct {
	store  *Store
	window timeline.Range
	posts  int
	gen    uint64
	days   []*socialDay
}

// social snapshots the post shard, covering every post applied before the
// call began. nil when no posts have been ingested.
func (s *Store) social() *socialView {
	s.fencePosts()
	s.postMu.RLock()
	defer s.postMu.RUnlock()
	if s.nPosts == 0 {
		return nil
	}
	v := &socialView{
		store:  s,
		window: timeline.Range{From: s.days[0].day, To: s.days[len(s.days)-1].day},
		posts:  s.nPosts,
		gen:    s.postGen,
		days:   make([]*socialDay, len(s.days)),
	}
	for i, b := range s.days {
		v.days[i] = b.acc
	}
	return v
}

// rows is the view's merge rows, straight from the day accumulators, but for
// the term rows: those cost far more than the rest, so terms() derives them
// only for a reader that needs them.
func (v *socialView) rows() *SocialRows {
	r := &SocialRows{
		Sentiment: sentimentRows(v.days),
		Keywords:  keywordRows(v.days, true),
		Clouds:    make([]DayCloud, len(v.days)),
	}
	for i, a := range v.days {
		r.Clouds[i] = DayCloud{Day: a.Day, Words: a.cloud}
	}
	return r
}

// termRows memoizes the term rows of the newest post generation read so
// far, with the day accumulators they were built from. Published
// accumulators are never written again, so a day whose accumulator differs
// from the kept one is exactly a day a later batch extended or folded
// again: another generation's rows are the kept rows patched by those days
// alone. The rows are read-only.
type termRows struct {
	mu    sync.Mutex
	gen   uint64 // 0: none held (a store with posts is at generation 1 or later)
	days  []*socialDay
	terms []TermPartial
	// builds and patches count the full builds and the patches over the
	// store's life: tests count work with them.
	builds, patches int
}

// terms returns the view's term rows: the memo's, patched by the days whose
// accumulators differ from the view's. A newer view moves the memo on; an
// older one — a reader that took its view before a later one was memoized —
// gets its own rows without displacing the newer base.
func (v *socialView) terms() []TermPartial {
	m := &v.store.termRows
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gen == v.gen {
		return m.terms
	}
	old, next := diffDays(m.days, v.days)
	v.store.textMu.RLock()
	in := v.store.text.in
	terms := patchTerms(m.terms, spellDays(in, old), spellDays(in, next))
	v.store.textMu.RUnlock()
	if m.gen == 0 {
		m.builds++
	} else {
		m.patches++
	}
	if v.gen > m.gen {
		m.gen, m.days, m.terms = v.gen, v.days, terms
	}
	return terms
}

// diffDays compares two ascending day lists: old holds from's
// accumulators of the days whose accumulator differs in to (or that to
// lacks), next holds to's (or those from lacks), both ascending.
func diffDays(from, to []*socialDay) (old, next []*socialDay) {
	i, j := 0, 0
	for i < len(from) || j < len(to) {
		switch {
		case j == len(to) || i < len(from) && from[i].Day < to[j].Day:
			old = append(old, from[i])
			i++
		case i == len(from) || to[j].Day < from[i].Day:
			next = append(next, to[j])
			j++
		default:
			if from[i] != to[j] {
				old, next = append(old, from[i]), append(next, to[j])
			}
			i, j = i+1, j+1
		}
	}
	return old, next
}

// dayPartials exports the days folded by a post generation after the given
// one (every day for 0), ascending, each with its term rows spelled through
// the store's interner.
func (v *socialView) dayPartials(after uint64) []SocialDayPartial {
	var days []*socialDay
	for _, a := range v.days {
		if a.gen > after {
			days = append(days, a)
		}
	}
	v.store.textMu.RLock()
	defer v.store.textMu.RUnlock()
	return spellDays(v.store.text.in, days)
}

// speedPartials exports the extracted speed observations per month, in
// corpus order (days ascend, IDs ascend within a day), with the
// strong-sentiment counts of the posts that carried them: the months a
// since= base at post generation after lacks — a month is stamped with the
// newest generation among its days — or every month for 0.
func (v *socialView) speedPartials(after uint64) []SpeedMonthPartial {
	var out []SpeedMonthPartial
	for lo := 0; lo < len(v.days); {
		m := timeline.MonthOf(v.days[lo].Day)
		hi, stamp := lo, uint64(0)
		for ; hi < len(v.days) && timeline.MonthOf(v.days[hi].Day) == m; hi++ {
			stamp = max(stamp, v.days[hi].gen)
		}
		if after == 0 || stamp > after {
			out = appendSpeedMonth(out, m, v.days[lo:hi])
		}
		lo = hi
	}
	return out
}

// appendSpeedMonth appends month m's observations from its days, if any.
func appendSpeedMonth(out []SpeedMonthPartial, m timeline.Month, days []*socialDay) []SpeedMonthPartial {
	var sp *SpeedMonthPartial
	for _, a := range days {
		for _, pt := range a.speeds {
			if sp == nil {
				out = append(out, SpeedMonthPartial{Month: m})
				sp = &out[len(out)-1]
			}
			sp.Days = append(sp.Days, a.Day)
			sp.IDs = append(sp.IDs, pt.id)
			sp.Downs = append(sp.Downs, pt.down)
			if pt.strongPos {
				sp.StrongPos++
			}
			if pt.strongNeg {
				sp.StrongNeg++
			}
		}
	}
	return out
}

// experienceCounts sums the experience query's social counts: the
// strong-sentiment balance and the negative-gated outage mentions.
func (v *socialView) experienceCounts() (pos, neg, outage int) {
	for _, a := range v.days {
		pos += a.StrongPos
		neg += a.StrongNeg
		outage += a.outageMentions
	}
	return pos, neg, outage
}
