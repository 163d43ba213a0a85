package usaas

import (
	"sort"

	"usersignals/internal/nlp"
	"usersignals/internal/social"
	"usersignals/internal/timeline"
)

// Trend is an emerging topic surfaced by the miner: a term whose
// popularity-weighted discussion volume surged from a silent baseline.
type Trend struct {
	Term string
	// FirstDay is the first day of the surge window.
	FirstDay timeline.Day
	// Weight is the popularity-weighted volume over the surge window.
	Weight float64
	// PositiveShare is the fraction of surge posts with positive-leaning
	// sentiment (the roaming discussions were positive).
	PositiveShare float64
}

// TrendOptions tunes MineTrends.
type TrendOptions struct {
	// WindowDays is the surge-detection window (default 7).
	WindowDays int
	// MinWeight is the minimum windowed weight to call a surge
	// (default 40).
	MinWeight float64
	// BaselineMax is the maximum average daily weight allowed over the
	// 30 days before the surge for the term to count as *emerging*
	// (default 1).
	BaselineMax float64
	// MaxTerms bounds the result (default 20).
	MaxTerms int
	// Bigrams additionally mines adjacent stem pairs ("roam enabl") —
	// the paper reports both "roaming" and "roaming enabled" as the
	// surge's most common terms.
	Bigrams bool
}

func (o TrendOptions) withDefaults() TrendOptions {
	if o.WindowDays <= 0 {
		o.WindowDays = 7
	}
	if o.MinWeight <= 0 {
		o.MinWeight = 40
	}
	if o.BaselineMax <= 0 {
		o.BaselineMax = 1
	}
	if o.MaxTerms <= 0 {
		o.MaxTerms = 60
	}
	return o
}

// MineTrends implements the §4.1 early-detection pipeline: it weights each
// post by its community traction (log of upvotes+comments), accumulates
// per-day stemmed-term weights, and reports terms whose windowed weight
// surges out of a silent baseline — the mechanism that surfaced "roaming"
// two weeks before the official announcement. The accumulation runs on the
// fused corpus sweep (sweep.go) over cached token streams; the surge scan
// itself is MergeTrends over one part, as on a node.
func MineTrends(c *social.Corpus, an *nlp.Analyzer, opts TrendOptions) []Trend {
	return SweepCorpus(c, an, SweepOptions{Trends: &opts}).Trends
}

// sortTrends orders trends by weight (descending), ties broken by term for
// determinism.
func sortTrends(out []Trend) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Term < out[j].Term
	})
}

// LeadTime returns how many days before reference the term surged, or
// (0, false) if the term never surfaced before it.
func LeadTime(trends []Trend, term string, reference timeline.Day) (int, bool) {
	stem := nlp.Stem(term)
	for _, tr := range trends {
		if tr.Term == stem && tr.FirstDay < reference {
			return int(reference - tr.FirstDay), true
		}
	}
	return 0, false
}
