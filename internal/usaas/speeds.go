package usaas

import (
	"encoding/json"
	"math"

	"usersignals/internal/leo"
	"usersignals/internal/nlp"
	"usersignals/internal/ocr"
	"usersignals/internal/parallel"
	"usersignals/internal/simrand"
	"usersignals/internal/social"
	"usersignals/internal/stats"
	"usersignals/internal/timeline"
)

// MonthSpeed is one month of the Fig. 7 series, assembled entirely from
// what the pipeline can observe: OCR-extracted screenshot values, post
// sentiment, and public launch/subscriber annotations.
type MonthSpeed struct {
	Month timeline.Month
	// Reports is the number of successfully extracted screenshots.
	Reports int
	// MedianDownMbps is the monthly median of extracted downlink speeds.
	MedianDownMbps float64
	// Median95 and Median90 are medians of uniformly subsampled 95% and
	// 90% of the month's data (Fig. 7's stability check).
	Median95, Median90 float64
	// Pos is the normalized strong-positive sentiment share among
	// speed-test posts with strong sentiment: pos / (pos + neg).
	// NaN when the month has no strong-sentiment speed posts.
	Pos float64
	// Launches and Users annotate the series (public information).
	Launches int
	Users    float64
}

// MonthlySpeeds runs the Fig. 7 pipeline over a corpus: find screenshot
// posts, OCR-extract them, aggregate monthly medians with subsample checks,
// score the carrying posts' sentiment, and annotate with the constellation
// timeline. The model is used only for the public annotations (launches,
// subscriber counts), never for speed values. The OCR extraction sweep is
// sharded across one worker per CPU; see MonthlySpeedsN.
func MonthlySpeeds(c *social.Corpus, an *nlp.Analyzer, model *leo.Model, seed uint64) []MonthSpeed {
	return MonthlySpeedsN(c, an, model, seed, 0)
}

// speedShard accumulates one post-chunk of the Fig. 7 extraction sweep.
type speedShard struct {
	speeds map[timeline.Month][]float64
	strong map[timeline.Month][2]int // [pos, neg]
}

// assembleMonthSpeeds is the final stage of the Fig. 7 pipeline, shared by
// the batch scan (MonthlySpeedsN) and MergeSpeeds, which serves a store's or
// a cluster's per-day observations: given
// per-month extracted speeds (in corpus order) and strong-sentiment counts,
// produce the monthly series with subsample stability checks and public
// annotations. The subsample RNG is one stream consumed across months in
// window order, so callers must pass the full month list.
func assembleMonthSpeeds(months []timeline.Month, speeds map[timeline.Month][]float64, strong map[timeline.Month][2]int, model *leo.Model, seed uint64) []MonthSpeed {
	rng := simrand.Root(seed).Derive("usaas/fig7-subsample").RNG()
	out := make([]MonthSpeed, 0, len(months))
	for _, m := range months {
		ms := MonthSpeed{Month: m}
		xs := speeds[m]
		ms.Reports = len(xs)
		if len(xs) > 0 {
			ms.MedianDownMbps = stats.Median(xs)
			ms.Median95 = stats.Median(stats.SubsampleStat(rng, xs, 0.95, stats.Median, 9))
			ms.Median90 = stats.Median(stats.SubsampleStat(rng, xs, 0.90, stats.Median, 9))
		} else {
			ms.MedianDownMbps = math.NaN()
			ms.Median95, ms.Median90 = math.NaN(), math.NaN()
		}
		cnt := strong[m]
		if cnt[0]+cnt[1] > 0 {
			ms.Pos = float64(cnt[0]) / float64(cnt[0]+cnt[1])
		} else {
			ms.Pos = math.NaN()
		}
		if model != nil {
			ms.Launches = model.LaunchesBetween(m.First(), m.First()+timeline.Day(m.Days()-1))
			ms.Users = model.Users(m.First() + timeline.Day(m.Days()-1))
		}
		out = append(out, ms)
	}
	return out
}

// MonthlySpeedsN is MonthlySpeeds over an explicit worker count (<= 0 means
// one per CPU). Posts shard into canonical chunks; per-month extraction
// results concatenate in chunk order, reproducing the serial scan exactly,
// so the output is byte-identical at any worker count.
func MonthlySpeedsN(c *social.Corpus, an *nlp.Analyzer, model *leo.Model, seed uint64, workers int) []MonthSpeed {
	tc := c.Tokens()
	e := newTextEngine(an, nil, tc.Interner())
	months := c.Window.Months()
	inWindow := make(map[timeline.Month]bool, len(months))
	speeds := make(map[timeline.Month][]float64, len(months))
	strong := make(map[timeline.Month][2]int, len(months))

	for _, m := range months {
		inWindow[m] = true
	}

	shards, _ := parallel.Map(workers, parallel.Chunks(len(c.Posts)), func(i int) (speedShard, error) {
		lo, hi := parallel.ChunkBounds(i, len(c.Posts))
		sh := speedShard{
			speeds: map[timeline.Month][]float64{},
			strong: map[timeline.Month][2]int{},
		}
		for j := lo; j < hi; j++ {
			p := &c.Posts[j]
			if p.Screenshot == nil {
				continue
			}
			m := timeline.MonthOf(p.Day)
			if !inWindow[m] {
				continue
			}
			ex, err := ocr.Extract(*p.Screenshot)
			if err != nil {
				continue // unreadable screenshot: the pipeline moves on
			}
			sh.speeds[m] = append(sh.speeds[m], ex.DownMbps)
			f := e.analyze(p, tc.Text(j), nil)
			cnt := sh.strong[m]
			if f.strongPos {
				cnt[0]++
			}
			if f.strongNeg {
				cnt[1]++
			}
			sh.strong[m] = cnt
		}
		return sh, nil
	})
	for _, sh := range shards {
		for _, m := range months {
			if xs := sh.speeds[m]; len(xs) > 0 {
				speeds[m] = append(speeds[m], xs...)
			}
			cnt := strong[m]
			add := sh.strong[m]
			cnt[0] += add[0]
			cnt[1] += add[1]
			strong[m] = cnt
		}
	}
	return assembleMonthSpeeds(months, speeds, strong, model, seed)
}

// monthSpeedWire is the JSON form: months without data carry nulls instead
// of NaN (which JSON cannot express).
type monthSpeedWire struct {
	Month    timeline.Month `json:"month"`
	Reports  int            `json:"reports"`
	Median   *float64       `json:"median_down_mbps,omitempty"`
	Median95 *float64       `json:"median_95pct_sample,omitempty"`
	Median90 *float64       `json:"median_90pct_sample,omitempty"`
	Pos      *float64       `json:"pos,omitempty"`
	Launches int            `json:"launches"`
	Users    float64        `json:"users"`
}

func optFloat(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	out := v
	return &out
}

func floatOrNaN(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}

// MarshalJSON encodes NaN fields as null.
func (m MonthSpeed) MarshalJSON() ([]byte, error) {
	return json.Marshal(monthSpeedWire{
		Month: m.Month, Reports: m.Reports,
		Median: optFloat(m.MedianDownMbps), Median95: optFloat(m.Median95),
		Median90: optFloat(m.Median90), Pos: optFloat(m.Pos),
		Launches: m.Launches, Users: m.Users,
	})
}

// UnmarshalJSON decodes nulls back to NaN.
func (m *MonthSpeed) UnmarshalJSON(data []byte) error {
	var w monthSpeedWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*m = MonthSpeed{
		Month: w.Month, Reports: w.Reports,
		MedianDownMbps: floatOrNaN(w.Median), Median95: floatOrNaN(w.Median95),
		Median90: floatOrNaN(w.Median90), Pos: floatOrNaN(w.Pos),
		Launches: w.Launches, Users: w.Users,
	}
	return nil
}

// ConditioningFinding captures Fig. 7's "wheel of time" evidence: months
// where sentiment and absolute speed disagree because users are judging
// against their conditioned expectation.
type ConditioningFinding struct {
	// SpeedPosCorrelation is the overall correlation between monthly
	// median speed and Pos (broadly positive, per the paper).
	SpeedPosCorrelation float64
	// DecemberBelowApril: Dec '21 speed exceeds Apr '21 speed yet Pos is
	// lower (negative conditioning after the fast summer).
	DecemberBelowApril bool
	// LateRecovery: Pos rises from mid '22 to Dec '22 even though speed
	// falls (users acclimatized to slower service).
	LateRecovery bool
}

// AnalyzeConditioning inspects a monthly series for the paper's two
// anomalies.
func AnalyzeConditioning(ms []MonthSpeed) ConditioningFinding {
	find := func(y int, mo int) *MonthSpeed {
		for i := range ms {
			if ms[i].Month.Year() == y && int(ms[i].Month.Month()) == mo {
				return &ms[i]
			}
		}
		return nil
	}
	var out ConditioningFinding
	var xs, ys []float64
	for _, m := range ms {
		if !math.IsNaN(m.MedianDownMbps) && !math.IsNaN(m.Pos) {
			xs = append(xs, m.MedianDownMbps)
			ys = append(ys, m.Pos)
		}
	}
	out.SpeedPosCorrelation, _ = stats.Pearson(xs, ys)
	// Pearson is NaN for degenerate series (under two usable months, or
	// zero variance). NaN is not representable in JSON and would make the
	// whole report unencodable, so report "no correlation" instead.
	if math.IsNaN(out.SpeedPosCorrelation) {
		out.SpeedPosCorrelation = 0
	}

	apr21, dec21 := find(2021, 4), find(2021, 12)
	if apr21 != nil && dec21 != nil &&
		dec21.MedianDownMbps > apr21.MedianDownMbps &&
		dec21.Pos < apr21.Pos {
		out.DecemberBelowApril = true
	}
	// The late recovery is a slow drift, so compare quarters rather than
	// single (noisy) months: Q2 '22 vs Q4 '22.
	quarter := func(months ...int) (speed, pos float64, ok bool) {
		var s, p []float64
		for _, mo := range months {
			if m := find(2022, mo); m != nil {
				if !math.IsNaN(m.MedianDownMbps) {
					s = append(s, m.MedianDownMbps)
				}
				if !math.IsNaN(m.Pos) {
					p = append(p, m.Pos)
				}
			}
		}
		if len(s) == 0 || len(p) == 0 {
			return 0, 0, false
		}
		return stats.Mean(s), stats.Mean(p), true
	}
	q2Speed, q2Pos, ok2 := quarter(4, 5, 6)
	q4Speed, q4Pos, ok4 := quarter(10, 11, 12)
	if ok2 && ok4 && q4Speed < q2Speed && q4Pos > q2Pos {
		out.LateRecovery = true
	}
	return out
}
