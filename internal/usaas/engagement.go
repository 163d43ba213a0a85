// Package usaas implements User Signals as-a-Service, the framework the
// paper proposes in §5: a service that ingests implicit user signals
// (in-call actions), sparse explicit feedback (MOS surveys), and offline
// explicit feedback (social posts), correlates them with network
// conditions, and serves user-centric insights back to network and service
// operators.
//
// The analysis engines mirror the paper's studies —
//
//   - engagement.go: dose-response of engagement vs network conditions with
//     confounder control (Fig. 1), compounding grids (Fig. 2), platform
//     stratification (Fig. 3);
//   - mos.go: engagement↔MOS correlation (Fig. 4), the engagement-based
//     MOS predictor (§5), and the survey-coverage comparison that motivates
//     the whole paper;
//   - sentiment.go: daily sentiment series, peak detection and news
//     annotation (Fig. 5), the outage-keyword monitor with its
//     Downdetector-style baseline (Fig. 6);
//   - speeds.go: OCR-extracted monthly speed medians with launch/subscriber
//     annotations and the conditioning analysis (Fig. 7);
//   - trends.go: the popularity-weighted early-trend miner (roaming);
//
// and service.go/client.go expose them over HTTP.
package usaas

import (
	"math"
	"sort"

	"usersignals/internal/parallel"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// DoseResponse bins one engagement metric by one per-session network metric
// over the filtered records: the Fig. 1 curves. The returned series is the
// per-bin mean engagement (in percent). Work is sharded across one worker
// per CPU; see DoseResponseN for the determinism contract.
func DoseResponse(records []telemetry.SessionRecord, metric telemetry.Metric, eng telemetry.Engagement, b stats.Binner, filter telemetry.Filter) (stats.BinnedSeries, error) {
	return DoseResponseN(records, metric, eng, b, filter, 0)
}

// DoseResponseN is DoseResponse over an explicit worker count (<= 0 means
// one per CPU). Records are sharded into canonical chunks whose per-bin
// accumulators merge in chunk order, so the result is bit-identical at any
// worker count — parallelism never changes figure shapes.
func DoseResponseN(records []telemetry.SessionRecord, metric telemetry.Metric, eng telemetry.Engagement, b stats.Binner, filter telemetry.Filter, workers int) (stats.BinnedSeries, error) {
	mf, ef := metric.Accessor(), eng.Accessor()
	shards, err := parallel.Map(workers, parallel.Chunks(len(records)), func(i int) (*stats.BinAcc, error) {
		lo, hi := parallel.ChunkBounds(i, len(records))
		acc := stats.NewBinAcc(b)
		for j := lo; j < hi; j++ {
			r := &records[j]
			if filter != nil && !filter(r) {
				continue
			}
			acc.Add(mf(&r.Net), ef(r))
		}
		return acc, nil
	})
	if err != nil {
		return stats.BinnedSeries{}, err
	}
	total := stats.NewBinAcc(b)
	for _, s := range shards {
		if err := total.Merge(s); err != nil {
			return stats.BinnedSeries{}, err
		}
	}
	return total.Series(), nil
}

// dayBins is the per-calendar-day accumulator map behind the daily
// dose-response fold: sessions accumulate into their start day's bin
// accumulator in arrival order, and foldDayBins merges the days ascending.
// Because a day's sessions always land on (and stay on) one shard, the fold
// is a pure function of the ingested records — independent of batch shape,
// worker count, and shard count.
type dayBins map[timeline.Day]*stats.BinAcc

// add folds one record into its day accumulator.
func (m dayBins) add(d timeline.Day, b stats.Binner, x, y float64) *stats.BinAcc {
	acc := m[d]
	if acc == nil {
		acc = stats.NewBinAcc(b)
		m[d] = acc
	}
	acc.Add(x, y)
	return acc
}

// foldDayBins merges per-day accumulators into one, strictly ascending by
// day — the canonical order every replica of this computation uses.
func foldDayBins(b stats.Binner, days dayBins) *stats.BinAcc {
	keys := make([]timeline.Day, 0, len(days))
	for d := range days {
		keys = append(keys, d)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	total := stats.NewBinAcc(b)
	for _, d := range keys {
		_ = total.Merge(days[d]) // same binner by construction
	}
	return total
}

// DoseResponseDaily is the day-partitioned form of DoseResponse: records
// accumulate per calendar day (of session start) in record order, and the
// days fold together ascending. This is the computation the materialized
// dose-response views and the cluster coordinator both replicate, so a
// sharded answer is byte-identical to this single-pass reference.
func DoseResponseDaily(records []telemetry.SessionRecord, metric telemetry.Metric, eng telemetry.Engagement, b stats.Binner, filter telemetry.Filter) stats.BinnedSeries {
	mf, ef := metric.Accessor(), eng.Accessor()
	days := dayBins{}
	for i := range records {
		r := &records[i]
		if filter != nil && !filter(r) {
			continue
		}
		days.add(timeline.DayOf(r.Start), b, mf(&r.Net), ef(r))
	}
	return foldDayBins(b, days).Series()
}

// StudyFilter composes the §3.1 cohort with the §3.2 control bands for the
// varied metric — the standard Fig. 1 filter.
func StudyFilter(vary telemetry.Metric) telemetry.Filter {
	return telemetry.And(telemetry.StudyCohort(), telemetry.ControlBands(vary))
}

// Normalize100 rescales a series so its maximum bin equals 100, matching
// the paper's relative-engagement axes. Empty bins stay NaN.
func Normalize100(s stats.BinnedSeries) stats.BinnedSeries {
	best := math.Inf(-1)
	for i, y := range s.Y {
		if s.Count[i] > 0 && y > best {
			best = y
		}
	}
	out := stats.BinnedSeries{
		X:     append([]float64(nil), s.X...),
		Y:     make([]float64, len(s.Y)),
		Count: append([]int(nil), s.Count...),
	}
	for i, y := range s.Y {
		if s.Count[i] == 0 || best <= 0 {
			out.Y[i] = math.NaN()
			continue
		}
		out.Y[i] = 100 * y / best
	}
	return out
}

// RelativeDrop summarizes a dose-response curve: the relative fall (0–1)
// from the best non-empty bin to the last non-empty bin. This is the
// number the paper quotes ("Mic On reduces by more than 25%").
func RelativeDrop(s stats.BinnedSeries) float64 {
	ne := s.NonEmpty()
	if len(ne.Y) < 2 {
		return math.NaN()
	}
	best := stats.Max(ne.Y)
	last := ne.Y[len(ne.Y)-1]
	if best <= 0 {
		return math.NaN()
	}
	return (best - last) / best
}

// HalfSlopes measures curve shape: the mean per-unit slope over the first
// and second halves of the non-empty series. The Fig. 1 Mic On claim is
// |first| > |second| (steep, then plateau).
func HalfSlopes(s stats.BinnedSeries) (first, second float64) {
	ne := s.NonEmpty()
	n := len(ne.X)
	if n < 4 {
		return math.NaN(), math.NaN()
	}
	mid := n / 2
	f, _ := stats.TrendSlope(ne.X[:mid+1], ne.Y[:mid+1])
	g, _ := stats.TrendSlope(ne.X[mid:], ne.Y[mid:])
	return f, g
}

// Compounding computes the 2D latency×loss grid of mean engagement — Fig. 2
// — over the filtered records, sharded across one worker per CPU.
func Compounding(records []telemetry.SessionRecord, xMetric, yMetric telemetry.Metric, eng telemetry.Engagement, xb, yb stats.Binner, filter telemetry.Filter) (stats.Grid2D, error) {
	return CompoundingN(records, xMetric, yMetric, eng, xb, yb, filter, 0)
}

// CompoundingN is Compounding over an explicit worker count, with the same
// canonical-chunk determinism contract as DoseResponseN.
func CompoundingN(records []telemetry.SessionRecord, xMetric, yMetric telemetry.Metric, eng telemetry.Engagement, xb, yb stats.Binner, filter telemetry.Filter, workers int) (stats.Grid2D, error) {
	xf, yf, ef := xMetric.Accessor(), yMetric.Accessor(), eng.Accessor()
	shards, err := parallel.Map(workers, parallel.Chunks(len(records)), func(i int) (*stats.Grid2DAcc, error) {
		lo, hi := parallel.ChunkBounds(i, len(records))
		acc := stats.NewGrid2DAcc(xb, yb)
		for j := lo; j < hi; j++ {
			r := &records[j]
			if filter != nil && !filter(r) {
				continue
			}
			acc.Add(xf(&r.Net), yf(&r.Net), ef(r))
		}
		return acc, nil
	})
	if err != nil {
		return stats.Grid2D{}, err
	}
	total := stats.NewGrid2DAcc(xb, yb)
	for _, s := range shards {
		if err := total.Merge(s); err != nil {
			return stats.Grid2D{}, err
		}
	}
	return total.Grid(), nil
}

// ByPlatform computes one dose-response series per platform — Fig. 3 —
// sharded across one worker per CPU.
func ByPlatform(records []telemetry.SessionRecord, metric telemetry.Metric, eng telemetry.Engagement, b stats.Binner, filter telemetry.Filter) (map[string]stats.BinnedSeries, error) {
	return ByPlatformN(records, metric, eng, b, filter, 0)
}

// ByPlatformN is ByPlatform over an explicit worker count: each chunk keeps
// one accumulator per platform it encounters, and the per-platform
// accumulators merge in chunk order.
func ByPlatformN(records []telemetry.SessionRecord, metric telemetry.Metric, eng telemetry.Engagement, b stats.Binner, filter telemetry.Filter, workers int) (map[string]stats.BinnedSeries, error) {
	mf, ef := metric.Accessor(), eng.Accessor()
	shards, err := parallel.Map(workers, parallel.Chunks(len(records)), func(i int) (map[string]*stats.BinAcc, error) {
		lo, hi := parallel.ChunkBounds(i, len(records))
		accs := map[string]*stats.BinAcc{}
		for j := lo; j < hi; j++ {
			r := &records[j]
			if filter != nil && !filter(r) {
				continue
			}
			acc := accs[r.Platform]
			if acc == nil {
				acc = stats.NewBinAcc(b)
				accs[r.Platform] = acc
			}
			acc.Add(mf(&r.Net), ef(r))
		}
		return accs, nil
	})
	if err != nil {
		return nil, err
	}
	merged := map[string]*stats.BinAcc{}
	for _, shard := range shards {
		for platform, acc := range shard {
			if total := merged[platform]; total != nil {
				if err := total.Merge(acc); err != nil {
					return nil, err
				}
			} else {
				merged[platform] = acc
			}
		}
	}
	out := make(map[string]stats.BinnedSeries, len(merged))
	for platform, acc := range merged {
		out[platform] = acc.Series()
	}
	return out, nil
}
