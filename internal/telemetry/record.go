// Package telemetry implements the client-side measurement pipeline of
// §3.1: per-session aggregation of 5-second network samples into
// mean/median/P95 statistics, engagement metrics, sparse end-of-call
// feedback sampling, and streaming dataset encoding/decoding (CSV and JSON
// Lines) with the cohort filters the paper applies (enterprise, business
// hours, ≥3 participants, US).
package telemetry

import (
	"fmt"
	"time"

	"usersignals/internal/netsim"
	"usersignals/internal/stats"
)

// NetAggregates are the per-session network statistics the client computes
// when the session ends: mean, median, and 95th percentile of each metric,
// exactly as §3.1 describes.
type NetAggregates struct {
	LatencyMean, LatencyMedian, LatencyP95 float64
	LossMean, LossMedian, LossP95          float64
	JitterMean, JitterMedian, JitterP95    float64
	BWMean, BWMedian, BWP95                float64
}

// Aggregate computes NetAggregates from a sample series.
func Aggregate(s netsim.Series) NetAggregates {
	lat := stats.Summarize(s.Latencies())
	loss := stats.Summarize(s.Losses())
	jit := stats.Summarize(s.Jitters())
	bw := stats.Summarize(s.Bandwidths())
	return NetAggregates{
		LatencyMean: lat.Mean, LatencyMedian: lat.Median, LatencyP95: lat.P95,
		LossMean: loss.Mean, LossMedian: loss.Median, LossP95: loss.P95,
		JitterMean: jit.Mean, JitterMedian: jit.Median, JitterP95: jit.P95,
		BWMean: bw.Mean, BWMedian: bw.Median, BWP95: bw.P95,
	}
}

// Metric selects which session aggregate an analysis reads. The paper
// reports results on session means and notes the same trends hold for P95.
type Metric int

// Session network metrics.
const (
	LatencyMean Metric = iota
	LossMean
	JitterMean
	BandwidthMean
	LatencyP95
	LossP95
	JitterP95
	BandwidthP95
)

// String names the metric for reports.
func (m Metric) String() string {
	switch m {
	case LatencyMean:
		return "latency-mean-ms"
	case LossMean:
		return "loss-mean-pct"
	case JitterMean:
		return "jitter-mean-ms"
	case BandwidthMean:
		return "bandwidth-mean-mbps"
	case LatencyP95:
		return "latency-p95-ms"
	case LossP95:
		return "loss-p95-pct"
	case JitterP95:
		return "jitter-p95-ms"
	case BandwidthP95:
		return "bandwidth-p95-mbps"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// ParseMetric is the inverse of Metric.String.
func ParseMetric(name string) (Metric, error) {
	for m := LatencyMean; m <= BandwidthP95; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown metric %q", name)
}

// Of extracts the metric value from aggregates.
func (m Metric) Of(a NetAggregates) float64 {
	switch m {
	case LatencyMean:
		return a.LatencyMean
	case LossMean:
		return a.LossMean
	case JitterMean:
		return a.JitterMean
	case BandwidthMean:
		return a.BWMean
	case LatencyP95:
		return a.LatencyP95
	case LossP95:
		return a.LossP95
	case JitterP95:
		return a.JitterP95
	case BandwidthP95:
		return a.BWP95
	default:
		return 0
	}
}

// Engagement selects a user-engagement metric (§3.1).
type Engagement int

// Engagement metrics.
const (
	Presence Engagement = iota
	CamOn
	MicOn
)

// String names the engagement metric.
func (e Engagement) String() string {
	switch e {
	case Presence:
		return "presence"
	case CamOn:
		return "cam-on"
	case MicOn:
		return "mic-on"
	default:
		return fmt.Sprintf("engagement(%d)", int(e))
	}
}

// Engagements lists all engagement metrics in display order.
func Engagements() []Engagement { return []Engagement{Presence, CamOn, MicOn} }

// ParseEngagement is the inverse of Engagement.String.
func ParseEngagement(name string) (Engagement, error) {
	for _, e := range Engagements() {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("unknown engagement %q", name)
}

// SessionRecord is one participant's session in one call: the unit of the
// §3 analysis.
type SessionRecord struct {
	CallID      uint64    `json:"call_id"`
	UserID      uint64    `json:"user_id"`
	Platform    string    `json:"platform"`
	MeetingSize int       `json:"meeting_size"`
	Start       time.Time `json:"start"`
	DurationSec float64   `json:"duration_sec"`

	Net NetAggregates `json:"net"`

	// Engagement metrics, all in percent. Presence is the session
	// duration as a percentage of the call's median session duration,
	// capped at 100 (§3.1's outlier-robust definition).
	PresencePct float64 `json:"presence_pct"`
	CamOnPct    float64 `json:"cam_on_pct"`
	MicOnPct    float64 `json:"mic_on_pct"`
	LeftEarly   bool    `json:"left_early"`

	// Explicit feedback: present only for the sampled fraction.
	Rated  bool `json:"rated"`
	Rating int  `json:"rating,omitempty"`

	// Cohort attributes used by the paper's filters.
	Country    string `json:"country"`
	Enterprise bool   `json:"enterprise"`

	// ISP is the participant's access provider, enabling §5's
	// cross-source queries ("Teams experience of Starlink users").
	ISP string `json:"isp"`
}

// OnISP filters sessions by access provider.
func OnISP(isp string) Filter {
	return OnISPSpec(isp).Filter()
}

// EngagementOf extracts an engagement value from the record.
func (r *SessionRecord) EngagementOf(e Engagement) float64 {
	switch e {
	case Presence:
		return r.PresencePct
	case CamOn:
		return r.CamOnPct
	case MicOn:
		return r.MicOnPct
	default:
		return 0
	}
}

// Filter is a session predicate.
type Filter func(*SessionRecord) bool

// And combines filters conjunctively.
func And(fs ...Filter) Filter {
	return func(r *SessionRecord) bool {
		for _, f := range fs {
			if !f(r) {
				return false
			}
		}
		return true
	}
}

// StudyCohort is the §3.1 dataset filter: enterprise calls during business
// hours (9 AM–8 PM EST) on weekdays with 3+ participants, all in the US.
func StudyCohort() Filter {
	return StudyCohortSpec().Filter()
}

// AllControlBands holds every network metric inside the §3.2 bands: the
// filter for analyses where the network must not be the explanation.
func AllControlBands() Filter {
	return ControlBands(Metric(-1)) // no metric exempted
}

// ControlBands holds every metric except `vary` inside the §3.2 confounder
// bands (latency 0–40 ms, loss 0–0.2%, jitter 0–5 ms, bandwidth 3–4 Mbps),
// leaving the varied metric free. Use it to isolate one dose-response axis.
func ControlBands(vary Metric) Filter {
	return ControlBandsSpec(vary).Filter()
}
