package usaas

import (
	"fmt"
	"math"
	"strings"

	"usersignals/internal/leo"
	"usersignals/internal/newswire"
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

// ClusterReportInput carries everything gathered for one /v1/report: per-part
// bundles of reportPartials (a node's own one, or one per shard), a callback
// that runs the model phase for traffic engineering, per-section degradation
// notes, and the annotation sources.
type ClusterReportInput struct {
	Bundles []*ShardPartials
	// TEPartials runs the model phase: ship the trained model to every live
	// part, gather per-day TE partials. An error degrades the
	// traffic-engineering section only.
	TEPartials func(model stats.LinearModel) ([][]TEDayPartial, error)
	// Notes maps report section names to degradation annotations ("shard X
	// unavailable: ..."); they append to Errors after each section runs.
	Notes map[string][]string
	News  *newswire.Index
	Model *leo.Model
	fits  *ratedFits // the read path's memo of rated-set fits; nil derives each afresh
}

// AssembleClusterReport folds gathered partials into the operator report,
// degrading gracefully: each section runs in isolation, and a section that
// fails — returns an error, panics, or has no data to work from — is
// recorded in Errors while every other section still lands. The report
// never takes the whole response down with it. A node and a coordinator
// both assemble here, so section order, names and error strings cannot
// differ between them.
func AssembleClusterReport(in ClusterReportInput) OperatorReport {
	rep := OperatorReport{EngagementDrops: map[string]float64{}}

	// guard runs one section, converting errors and panics into Errors
	// entries instead of failures, then attaches the section's degradation
	// notes.
	guard := func(section string, f func() error) {
		defer func() {
			if p := recover(); p != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: panic: %v", section, p))
			}
			rep.Errors = append(rep.Errors, in.Notes[section]...)
		}()
		if err := f(); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", section, err))
		}
	}

	rated, total := in.fits.of(in.Bundles)
	rep.Sessions = total
	if total == 0 {
		rep.Errors = append(rep.Errors, "sessions: none ingested")
	}
	// The notes land with data present too: the session count itself may be
	// partial (a cluster's dead shard held some of the days).
	rep.Errors = append(rep.Errors, in.Notes["sessions"]...)
	if total > 0 {
		guard("engagement-drops", func() error {
			for i, rr := range reportDropRanges {
				var parts [][]DoseDayPartial
				for _, b := range in.Bundles {
					if b != nil && i < len(b.Drops) {
						parts = append(parts, b.Drops[i])
					}
				}
				s, err := MergeDosePartials(stats.NewBinner(rr.lo, rr.hi, 8), parts)
				if err != nil {
					return err
				}
				if drop := RelativeDrop(s); !math.IsNaN(drop) {
					rep.EngagementDrops[rr.metric.String()] = drop
				}
			}
			return nil
		})
		guard("mos-correlations", func() (err error) {
			rep.MOS, err = rated.correlations(10)
			return err
		})
		guard("mos-predictor", func() error {
			eval, err := rated.evaluation(total)
			if err != nil {
				return err
			}
			rep.Predictor = &eval
			return nil
		})
		guard("traffic-engineering", func() (err error) {
			rep.TEAdvice, err = adviseTE(rated, total, in.TEPartials)
			return err
		})
	}

	p, havePosts := socialPartsOf(in.Bundles)
	if !havePosts {
		rep.Errors = append(rep.Errors, "posts: none ingested")
	}
	rep.Errors = append(rep.Errors, in.Notes["posts"]...)
	if havePosts {
		rep.Posts = p.posts
		// WeeklyAverages' exact arithmetic: posts / (window days / 7).
		rep.WeeklyPosts = float64(p.posts) / (float64(p.window.Len()) / 7)
		var sw *Sweep
		guard("social-sweep", func() error {
			sw = &Sweep{Sentiment: p.sentiment(), Keywords: p.keywords(), Trends: p.trends(TrendOptions{MaxTerms: 10})}
			return nil
		})
		if sw != nil {
			guard("sentiment-peaks", func() error {
				rep.Peaks = MergePeaks(sw.Sentiment, p.clouds(), in.News, 3)
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
			months := MergeSpeeds(p.window, p.speeds, in.Model, 1)
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

// BuildReport assembles the report from a store's contents: the node's own
// /v1/report, its one bundle assembled as a coordinator assembles N. Every
// section reads state the store folded at ingest (views.go, posts.go) with
// the analyzer and dictionary the store was bound to (ServerOptions), so an
// takes no part. The traffic-engineering advice reads the store's TE fold
// (planning.go), which folds only the rows that arrived since the last
// read, or every row when a rating changed the model.
func BuildReport(store *Store, an *nlp.Analyzer, opts ServerOptions) OperatorReport {
	return reportFrom(store.gather(reportPartials), opts.News, opts.Model)
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
