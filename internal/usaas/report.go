package usaas

import (
	"fmt"
	"math"
	"strings"

	"usersignals/internal/nlp"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
)

// OperatorReport is the composed insight product of the service: every
// headline finding from both signal families in one structure, with a
// human-readable rendering. This is the artifact §5 imagines operators
// consuming.
type OperatorReport struct {
	// Implicit-signal side.
	Sessions        int                `json:"sessions"`
	EngagementDrops map[string]float64 `json:"engagement_drops"` // metric → relative drop over its range
	MOS             []MOSCorrelation   `json:"mos_correlations,omitempty"`
	Predictor       *PredictorEval     `json:"predictor,omitempty"`
	TEAdvice        []TERecommendation `json:"traffic_engineering,omitempty"`

	// Explicit-signal side.
	Posts        int                  `json:"posts"`
	WeeklyPosts  float64              `json:"weekly_posts"`
	Peaks        []AnnotatedPeak      `json:"peaks,omitempty"`
	OutageAlerts int                  `json:"outage_alert_days"`
	Trends       []Trend              `json:"trends,omitempty"`
	SpeedMonths  int                  `json:"speed_months"`
	SpeedPosCorr float64              `json:"speed_pos_correlation"`
	Conditioning *ConditioningFinding `json:"conditioning,omitempty"`

	// Degraded is set when one or more sub-analyses failed; the report
	// still carries every section that succeeded, and Errors lists what
	// was lost. Operators get a partial report instead of a blanket 500.
	Degraded bool     `json:"degraded,omitempty"`
	Errors   []string `json:"errors,omitempty"`
}

// reportDropRanges defines the per-metric binning used for the drop
// summaries.
var reportDropRanges = []struct {
	metric telemetry.Metric
	lo, hi float64
}{
	{telemetry.LatencyMean, 0, 300},
	{telemetry.LossMean, 0, 4},
	{telemetry.JitterMean, 0, 12},
	{telemetry.BandwidthMean, 0.25, 4},
}

// reportSource supplies each report section's inputs, so BuildReport (one
// store) and the cluster coordinator (merged shard partials) share the one
// guard chain — identical section order, section names, and error formats,
// which is what keeps an N-shard report byte-identical to a single-node one.
type reportSource struct {
	rated []telemetry.SessionRecord // day-major rated subsequence
	total int                       // total session count
	dose  func(metric telemetry.Metric, b stats.Binner) stats.BinnedSeries
	te    func() ([]TERecommendation, error)

	havePosts bool
	posts     int
	weekly    float64
	sweep     func() (*Sweep, error)
	peaks     func(sent []DaySentiment) ([]AnnotatedPeak, error)
	speeds    func() ([]MonthSpeed, error)

	// sectionNotes carries per-section degradation annotations (a cluster
	// coordinator's "shard X unavailable" notes); each section's notes are
	// appended to Errors right after the section runs.
	sectionNotes map[string][]string
}

// buildReportFrom assembles the report from a source, degrading gracefully:
// each section runs in isolation, and a section that fails — returns an
// error, panics, or has no data to work from — is recorded in Errors while
// every other section still lands. The report never takes the whole
// response down with it.
func buildReportFrom(src reportSource) OperatorReport {
	rep := OperatorReport{EngagementDrops: map[string]float64{}}

	// guard runs one section, converting errors and panics into Errors
	// entries instead of failures, then attaches the section's degradation
	// notes.
	guard := func(section string, f func() error) {
		defer func() {
			if p := recover(); p != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: panic: %v", section, p))
			}
			rep.Errors = append(rep.Errors, src.sectionNotes[section]...)
		}()
		if err := f(); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", section, err))
		}
	}

	rep.Sessions = src.total
	if src.total == 0 {
		rep.Errors = append(rep.Errors, "sessions: none ingested")
		rep.Errors = append(rep.Errors, src.sectionNotes["sessions"]...)
	} else {
		// With data present the notes still land: the session count itself
		// may be partial (a cluster's dead shard held some of the days).
		rep.Errors = append(rep.Errors, src.sectionNotes["sessions"]...)
		guard("engagement-drops", func() error {
			for _, rr := range reportDropRanges {
				s := src.dose(rr.metric, stats.NewBinner(rr.lo, rr.hi, 8))
				if drop := RelativeDrop(s); !math.IsNaN(drop) {
					rep.EngagementDrops[rr.metric.String()] = drop
				}
			}
			return nil
		})
		guard("mos-correlations", func() error {
			mosReport, err := mosReportRated(src.rated, 10, nil)
			if err != nil {
				return err
			}
			for _, em := range mosReport {
				rep.MOS = append(rep.MOS, MOSCorrelation{
					Engagement:    em.Engagement.String(),
					Pearson:       em.Pearson,
					Spearman:      em.Spearman,
					RatedSessions: em.RatedSessions,
				})
			}
			return nil
		})
		guard("mos-predictor", func() error {
			eval, err := evaluateMOSPredictorRated(src.rated, src.total, 0.7, 1.0)
			if err != nil {
				return err
			}
			rep.Predictor = &eval
			return nil
		})
		guard("traffic-engineering", func() error {
			advice, err := src.te()
			if err != nil {
				return err
			}
			rep.TEAdvice = advice
			return nil
		})
	}

	if !src.havePosts {
		rep.Errors = append(rep.Errors, "posts: none ingested")
		rep.Errors = append(rep.Errors, src.sectionNotes["posts"]...)
	} else {
		rep.Errors = append(rep.Errors, src.sectionNotes["posts"]...)
		rep.Posts = src.posts
		rep.WeeklyPosts = src.weekly
		var sw *Sweep
		guard("social-sweep", func() error {
			var err error
			sw, err = src.sweep()
			return err
		})
		if sw != nil {
			guard("sentiment-peaks", func() error {
				peaks, err := src.peaks(sw.Sentiment)
				if err != nil {
					return err
				}
				rep.Peaks = peaks
				return nil
			})
			guard("outage-monitor", func() error {
				rep.OutageAlerts = len(AlertsFromSeries(sw.Keywords, 3))
				return nil
			})
			guard("trends", func() error {
				rep.Trends = sw.Trends
				return nil
			})
		}
		guard("speeds", func() error {
			months, err := src.speeds()
			if err != nil {
				return err
			}
			for _, m := range months {
				if m.Reports > 0 {
					rep.SpeedMonths++
				}
			}
			finding := AnalyzeConditioning(months)
			rep.SpeedPosCorr = finding.SpeedPosCorrelation
			rep.Conditioning = &finding
			return nil
		})
	}
	rep.Degraded = len(rep.Errors) > 0
	return rep
}

// BuildReport assembles the report from a store's contents. Every section
// reads state the store folded at ingest (views.go, posts.go): dose-response
// curves come from per-day accumulators, the MOS paths scan only the
// day-major rated subsequence, and the social sections assemble the per-day
// post accumulators — read with the analyzer and dictionary the store was
// bound to (ServerOptions), so an and opts.OutageDict no longer take part.
// The traffic-engineering advice retrains the predictor on the rated
// subsequence and reads the store's TE fold (planning.go), shared with
// /v1/advice/traffic-engineering and the model phase of
// /v1/partials/model: it folds only the rows that arrived since the last
// read, or every row when a rating changed the model.
func BuildReport(store *Store, an *nlp.Analyzer, opts ServerOptions) OperatorReport {
	rated, total := store.RatedSessions()
	src := reportSource{
		rated: rated,
		total: total,
		dose: func(metric telemetry.Metric, b stats.Binner) stats.BinnedSeries {
			return store.DoseResponseSeries(metric, telemetry.Presence, b, "")
		},
		te: store.teAdvice,
	}
	if v := store.social(); v != nil {
		src.havePosts = true
		src.posts = v.posts
		src.weekly = v.weeklyPosts()
		src.sweep = func() (*Sweep, error) {
			return &Sweep{
				Sentiment: v.sentiment(),
				Keywords:  v.keywords(),
				Trends:    v.trends(TrendOptions{MaxTerms: 10}),
			}, nil
		}
		src.peaks = func(sent []DaySentiment) ([]AnnotatedPeak, error) {
			return annotatePeaksWith(sent, opts.News, 3, v.cloud), nil
		}
		src.speeds = func() ([]MonthSpeed, error) {
			return v.monthlySpeeds(opts.Model), nil
		}
	}
	return buildReportFrom(src)
}

// Render produces the human-readable version.
func (r OperatorReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "USER SIGNALS REPORT\n===================\n\n")

	fmt.Fprintf(&b, "Implicit signals: %d sessions\n", r.Sessions)
	for _, rr := range reportDropRanges {
		if drop, ok := r.EngagementDrops[rr.metric.String()]; ok {
			fmt.Fprintf(&b, "  presence falls %.0f%% over %s range %g-%g\n",
				100*drop, rr.metric, rr.lo, rr.hi)
		}
	}
	if r.Predictor != nil {
		fmt.Fprintf(&b, "  MOS predictor MAE %.3f (baseline %.3f); coverage %.1f%% → 100%%\n",
			r.Predictor.PredictorMAE, r.Predictor.BaselineMAE, 100*r.Predictor.SurveyCoverage)
	}
	if len(r.TEAdvice) > 0 {
		fmt.Fprintf(&b, "  top network investment: %s (%s), +%.4f population MOS\n",
			r.TEAdvice[0].Improvement, r.TEAdvice[0].Metric, r.TEAdvice[0].TotalLift)
	}

	fmt.Fprintf(&b, "\nExplicit signals: %d posts (%.0f/week)\n", r.Posts, r.WeeklyPosts)
	for _, pk := range r.Peaks {
		cause := "no reported cause found"
		if len(pk.News) > 0 {
			cause = pk.News[0].Headline
		}
		polarity := "negative"
		if pk.Positive {
			polarity = "positive"
		}
		fmt.Fprintf(&b, "  peak %s (%s, %d strong posts): %s\n", pk.Day, polarity, pk.Strong, cause)
	}
	fmt.Fprintf(&b, "  outage-alert days: %d\n", r.OutageAlerts)
	if len(r.Trends) > 0 {
		terms := make([]string, 0, 3)
		for i, tr := range r.Trends {
			if i == 3 {
				break
			}
			terms = append(terms, fmt.Sprintf("%s (from %s)", tr.Term, tr.FirstDay))
		}
		fmt.Fprintf(&b, "  emerging topics: %s\n", strings.Join(terms, ", "))
	}
	if r.SpeedMonths > 0 {
		fmt.Fprintf(&b, "  %d months of speed-test evidence; speed-sentiment correlation r=%.2f\n",
			r.SpeedMonths, r.SpeedPosCorr)
		if r.Conditioning != nil && r.Conditioning.DecemberBelowApril {
			fmt.Fprintf(&b, "  conditioning detected: sentiment tracks expectations, not absolute speed\n")
		}
	}
	if r.Degraded {
		fmt.Fprintf(&b, "\nDEGRADED: %d section(s) unavailable\n", len(r.Errors))
		for _, e := range r.Errors {
			fmt.Fprintf(&b, "  - %s\n", e)
		}
	}
	return b.String()
}
