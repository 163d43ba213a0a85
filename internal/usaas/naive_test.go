package usaas

import (
	"math"
	"sort"

	"usersignals/internal/newswire"
	"usersignals/internal/nlp"
	"usersignals/internal/social"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// This file preserves the pre-tokenize-once reference implementations of the
// §4 text analyses: each scores/lexes raw post text directly with the
// string-based nlp primitives, exactly as the production code did before the
// fused sweep (sweep.go). They exist so the golden tests (sweep_test.go) can
// assert the fused pipeline is byte-identical to them, and so the benchmarks
// (sweep_bench_test.go) can measure the before/after gap. The last function
// is the per-row predicted-MOS walk the model fold (planning.go) replaced.

func dailySentimentNaive(c *social.Corpus, an *nlp.Analyzer) []DaySentiment {
	out := make([]DaySentiment, 0, c.Window.Len())
	c.Window.Days(func(d timeline.Day) {
		ds := DaySentiment{Day: d}
		for _, p := range c.OnDay(d) {
			ds.Posts++
			s := an.Score(p.Text())
			if s.StrongPositive() {
				ds.StrongPos++
			}
			if s.StrongNegative() {
				ds.StrongNeg++
			}
		}
		out = append(out, ds)
	})
	return out
}

func outageKeywordSeriesNaive(c *social.Corpus, an *nlp.Analyzer, dict *nlp.Dictionary, gate bool) []DayKeywords {
	out := make([]DayKeywords, 0, c.Window.Len())
	c.Window.Days(func(d timeline.Day) {
		dk := DayKeywords{Day: d}
		for _, p := range c.OnDay(d) {
			n := dict.Count(p.ThreadText())
			if n == 0 {
				continue
			}
			if gate {
				s := an.Score(p.Text())
				if s.Negative <= s.Positive || s.Negative < 0.3 {
					continue
				}
			}
			dk.Count += n
		}
		out = append(out, dk)
	})
	return out
}

func mineTrendsNaive(c *social.Corpus, an *nlp.Analyzer, opts TrendOptions) []Trend {
	opts = opts.withDefaults()
	// termDay is the naive accumulator: a map from day to summed weight.
	type termDay struct {
		weight     map[timeline.Day]float64
		pos, total int
	}
	terms := map[string]*termDay{}
	c.Window.Days(func(d timeline.Day) {
		for _, p := range c.OnDay(d) {
			w := 1 + math.Log1p(float64(p.Upvotes+p.Comments))
			s := an.Score(p.Text())
			positive := s.Positive > s.Negative
			seen := map[string]bool{}
			record := func(term string) {
				if seen[term] {
					return
				}
				seen[term] = true
				td := terms[term]
				if td == nil {
					td = &termDay{weight: map[timeline.Day]float64{}}
					terms[term] = td
				}
				td.weight[d] += w
				td.total++
				if positive {
					td.pos++
				}
			}
			prev := ""
			for _, tok := range nlp.ContentTokens(p.Text()) {
				stem := nlp.Stem(tok)
				record(stem)
				if opts.Bigrams && prev != "" {
					record(prev + " " + stem)
				}
				prev = stem
			}
		}
	})
	var flat []TermPartial
	for term, td := range terms {
		tp := TermPartial{Term: term, Pos: td.pos, Total: td.total}
		for d, w := range td.weight {
			tp.Days = append(tp.Days, DayWeight{Day: d, Weight: w})
		}
		flat = append(flat, tp)
	}
	return MergeTrends(c.Window, [][]TermPartial{flat}, opts)
}

func annotatePeaksNaive(c *social.Corpus, an *nlp.Analyzer, news *newswire.Index, k int) []AnnotatedPeak {
	daily := dailySentimentNaive(c, an)
	series := make([]float64, len(daily))
	for i, d := range daily {
		series[i] = float64(d.Strong())
	}
	peaks := stats.DetectPeaks(series, stats.PeakOptions{Window: 21, MinScore: 4, MinValue: 20, Separation: 5})
	sort.Slice(peaks, func(i, j int) bool { return peaks[i].Value > peaks[j].Value })
	if len(peaks) > k {
		peaks = peaks[:k]
	}

	out := make([]AnnotatedPeak, 0, len(peaks))
	for _, pk := range peaks {
		ds := daily[pk.Index]
		var texts []string
		for _, p := range c.OnDay(ds.Day) {
			texts = append(texts, p.Text())
		}
		top := nlp.WordCloud(texts, 12)
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

func outageGeographyNaive(c *social.Corpus, an *nlp.Analyzer, dict *nlp.Dictionary, d timeline.Day) map[string]int {
	out := map[string]int{}
	for _, p := range c.OnDay(d) {
		if !dict.Matches(p.ThreadText()) {
			continue
		}
		s := an.Score(p.Text())
		if s.Negative <= s.Positive || s.Negative < 0.3 {
			continue
		}
		out[p.Country]++
	}
	return out
}

// predictedDayPartials folds per-day Welford accumulators of the shipped
// model's predictions over the ISP's sessions (every session for ""), in
// arrival order within a day, sorted ascending: the row walk the model fold's
// experience answer replaced, kept as its oracle.
func predictedDayPartials(p *MOSPredictor, rows Rows, isp string) []DayOnlinePartial {
	days := map[timeline.Day]*stats.Online{}
	rows.Each(0, rows.Len(), func(r *telemetry.SessionRecord) {
		if isp != "" && r.ISP != isp {
			return
		}
		d := timeline.DayOf(r.Start)
		acc := days[d]
		if acc == nil {
			acc = &stats.Online{}
			days[d] = acc
		}
		acc.Add(p.Predict(r))
	})
	keys := make([]timeline.Day, 0, len(days))
	for d := range days {
		keys = append(keys, d)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]DayOnlinePartial, 0, len(keys))
	for _, d := range keys {
		out = append(out, DayOnlinePartial{Day: d, Acc: days[d].State()})
	}
	return out
}
