package usaas

import (
	"sort"
	"usersignals/internal/newswire"
	"usersignals/internal/nlp"
	"usersignals/internal/social"
	"usersignals/internal/stats"
	"usersignals/internal/timeline"
)

// DaySentiment is one day of the Fig. 5a series.
type DaySentiment struct {
	Day       timeline.Day
	Posts     int
	StrongPos int
	StrongNeg int
}

// Strong returns the total strong-sentiment post count, the quantity whose
// peaks the paper annotates.
func (d DaySentiment) Strong() int { return d.StrongPos + d.StrongNeg }

// DailySentiment scores every post of an offline corpus and aggregates by
// day over its window. It runs on the fused sweep (sweep.go) over the
// corpus's cached token streams; the output is byte-identical to scoring
// each post's text directly (golden-tested against the naive path in
// sweep_test.go).
func DailySentiment(c *social.Corpus, an *nlp.Analyzer) []DaySentiment {
	return SweepCorpus(c, an, SweepOptions{Sentiment: true}).Sentiment
}

// AnnotatedPeak is a detected sentiment peak with its word-cloud keywords
// and any news coverage found for them — the full Fig. 5 pipeline output.
type AnnotatedPeak struct {
	Day       timeline.Day
	Strong    int
	StrongPos int
	StrongNeg int
	// Positive reports whether the peak leans positive.
	Positive bool
	// TopWords are the day's top word-cloud unigrams (the news-search
	// keywords).
	TopWords []nlp.WordCount
	// News holds matching coverage; empty means the pipeline found no
	// reported cause (the paper's 22 Apr '22 case).
	News []newswire.Article
}

// AnnotatePeaks runs the §4.1 pipeline: detect the top-k strong-sentiment
// peaks, build each day's word cloud, and search the news index for the
// top unigrams around the peak date.
func AnnotatePeaks(c *social.Corpus, an *nlp.Analyzer, news *newswire.Index, k int) []AnnotatedPeak {
	return annotatePeaks(c, DailySentiment(c, an), news, k)
}

// annotatePeaks is AnnotatePeaks over a precomputed daily series, so a
// caller that already ran the fused sweep (BuildReport) does not run it
// again.
func annotatePeaks(c *social.Corpus, daily []DaySentiment, news *newswire.Index, k int) []AnnotatedPeak {
	return annotatePeaksWith(daily, news, k, func(d timeline.Day) []nlp.WordCount {
		return dayWordCloud(c, d, cloudWords)
	})
}

// annotatePeaksWith is annotatePeaks with the day word cloud abstracted: an
// offline corpus counts each peak day's cloud, and the read plans look up
// the one each part ranked when the day was last folded (each day's posts
// live wholly on one part, so its cloud is the same one the corpus would
// yield).
func annotatePeaksWith(daily []DaySentiment, news *newswire.Index, k int, cloud func(timeline.Day) []nlp.WordCount) []AnnotatedPeak {
	series := make([]float64, len(daily))
	for i, d := range daily {
		series[i] = float64(d.Strong())
	}
	// Detection is z-score based (a day must stand out from its local
	// baseline), but the paper's "top peaks" are the *largest* ones, so
	// rank qualifying peaks by absolute height before taking k.
	peaks := stats.DetectPeaks(series, stats.PeakOptions{Window: 21, MinScore: 4, MinValue: 20, Separation: 5})
	sort.Slice(peaks, func(i, j int) bool { return peaks[i].Value > peaks[j].Value })
	if len(peaks) > k {
		peaks = peaks[:k]
	}

	out := make([]AnnotatedPeak, 0, len(peaks))
	for _, pk := range peaks {
		ds := daily[pk.Index]
		top := cloud(ds.Day)
		keywords := make([]string, 0, 3)
		for _, wc := range top {
			if len(keywords) < 3 {
				keywords = append(keywords, wc.Word)
			}
		}
		ap := AnnotatedPeak{
			Day:       ds.Day,
			Strong:    ds.Strong(),
			StrongPos: ds.StrongPos,
			StrongNeg: ds.StrongNeg,
			Positive:  ds.StrongPos >= ds.StrongNeg,
			TopWords:  top,
		}
		if news != nil {
			ap.News = news.Search(keywords, ds.Day, 2)
		}
		out = append(out, ap)
	}
	return out
}

// dayWordCloud is nlp.WordCloud over one day's post texts, counted from the
// corpus's cached token streams through the same day fold the store keeps
// per day: stems resolve through the interner's memo tables and no post
// text is re-lexed.
func dayWordCloud(c *social.Corpus, d timeline.Day, k int) []nlp.WordCount {
	tc := c.Tokens()
	e := textEngine{in: tc.Interner()}
	var a socialDay
	var stems []nlp.TokenID
	lo, hi := c.PostIndexRange(d)
	for j := lo; j < hi; j++ {
		stems = e.contentStems(stems[:0], tc.Text(j))
		a.addStems(postFacts{}, stems, false)
	}
	return a.topWords(e.in, k)
}

// DayKeywords is one day of the Fig. 6 series: outage-keyword occurrences
// in negative-sentiment posts.
type DayKeywords struct {
	Day   timeline.Day
	Count int
}

// OutageKeywordSeries counts outage-dictionary hits per day over whole
// threads (post + retained replies — the paper counts occurrences "in
// these filtered Reddit threads"), gated on the posting user's negative
// sentiment to avoid false positives. Pass gate=false for the ablation
// that shows why the gate exists.
func OutageKeywordSeries(c *social.Corpus, an *nlp.Analyzer, dict *nlp.Dictionary, gate bool) []DayKeywords {
	return SweepCorpus(c, an, SweepOptions{Dict: dict, Gate: gate}).Keywords
}

// OutageGeography localizes one day's outage chatter: negative-gated
// keyword-bearing posts counted per reporting country. This is how the
// paper established that the 22 Apr '22 incident spanned 14 countries with
// ~190 US reports despite having no press coverage.
func OutageGeography(c *social.Corpus, an *nlp.Analyzer, dict *nlp.Dictionary, d timeline.Day) map[string]int {
	tc := c.Tokens()
	e := newTextEngine(an, dict, tc.Interner())
	out := map[string]int{}
	lo, hi := c.PostIndexRange(d)
	for j := lo; j < hi; j++ {
		if f := e.analyze(&c.Posts[j], tc.Text(j), tc.Thread(j)); f.gated && f.hits > 0 {
			out[c.Posts[j].Country]++
		}
	}
	return out
}

// OutageAlert is a day flagged by an outage monitor.
type OutageAlert struct {
	Day   timeline.Day
	Count int
}

// AlertsFromSeries flags days whose keyword count exceeds threshold — the
// keyword monitor proper.
func AlertsFromSeries(series []DayKeywords, threshold int) []OutageAlert {
	var out []OutageAlert
	for _, d := range series {
		if d.Count >= threshold {
			out = append(out, OutageAlert{Day: d.Day, Count: d.Count})
		}
	}
	return out
}

// MonitorComparison contrasts the Reddit keyword monitor with a
// Downdetector-style baseline that only logs large incidents (§4.1: "Ookla's
// Downdetector only logs large-scale incidents ... it is critical to
// understand transient small-scale outages too").
type MonitorComparison struct {
	// Detected{Keyword,Baseline} count ground-truth outage days each
	// monitor flagged; Total is the number of ground-truth outage days.
	TotalOutageDays      int
	KeywordDetectedDays  int
	BaselineDetectedDays int
	// FalseAlarmDays are keyword-flagged days with no ground-truth outage.
	FalseAlarmDays int
}

// CompareMonitors evaluates both monitors against ground-truth outage days.
// keywordThreshold flags small excursions; baselineThreshold is the high
// bar a large-incident logger effectively applies.
func CompareMonitors(series []DayKeywords, outageDays map[timeline.Day]bool, keywordThreshold, baselineThreshold int) MonitorComparison {
	cmp := MonitorComparison{TotalOutageDays: len(outageDays)}
	flaggedKeyword := map[timeline.Day]bool{}
	flaggedBaseline := map[timeline.Day]bool{}
	for _, d := range series {
		if d.Count >= keywordThreshold {
			flaggedKeyword[d.Day] = true
			if !outageDays[d.Day] {
				cmp.FalseAlarmDays++
			}
		}
		if d.Count >= baselineThreshold {
			flaggedBaseline[d.Day] = true
		}
	}
	for day := range outageDays {
		if flaggedKeyword[day] {
			cmp.KeywordDetectedDays++
		}
		if flaggedBaseline[day] {
			cmp.BaselineDetectedDays++
		}
	}
	return cmp
}
