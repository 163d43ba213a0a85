package stats

import (
	"math"
	"sort"
)

// Peak is a detected local excursion in a daily time series (e.g. a
// sentiment spike tied to a Starlink event).
type Peak struct {
	Index int     // position in the series
	Value float64 // series value at the peak
	Score float64 // robust z-score relative to the local baseline
}

// PeakOptions controls DetectPeaks.
type PeakOptions struct {
	// Window is the number of trailing points forming the baseline.
	// Default 14 (two weeks of daily data).
	Window int
	// MinScore is the minimum robust z-score for a point to qualify.
	// Default 3.
	MinScore float64
	// MinValue filters out peaks whose absolute value is below this,
	// guarding against "3-sigma on a near-zero baseline" artifacts.
	MinValue float64
	// Separation merges peaks closer than this many points, keeping the
	// strongest. Default 3.
	Separation int
}

func (o PeakOptions) withDefaults() PeakOptions {
	if o.Window <= 0 {
		o.Window = 14
	}
	if o.MinScore <= 0 {
		o.MinScore = 3
	}
	if o.Separation <= 0 {
		o.Separation = 3
	}
	return o
}

// DetectPeaks finds positive excursions in xs using a robust z-score against
// a trailing median/MAD baseline, then suppresses non-maximal neighbors.
// Peaks are returned ordered by descending score.
func DetectPeaks(xs []float64, opts PeakOptions) []Peak {
	opts = opts.withDefaults()
	if len(xs) == 0 {
		return nil
	}
	var raw []Peak
	// Each trailing window is sorted once: its median is read off the sorted
	// copy, and the MAD selected from the deviations around it.
	sorted := make([]float64, 0, opts.Window)
	dev := make([]float64, 0, opts.Window)
	for i := range xs {
		lo := i - opts.Window
		if lo < 0 {
			lo = 0
		}
		base := xs[lo:i]
		if len(base) < 3 {
			continue
		}
		sorted = append(sorted[:0], base...)
		sort.Float64s(sorted)
		med := quantileSorted(sorted, 0.5)
		dev = dev[:0]
		for _, x := range sorted {
			dev = append(dev, math.Abs(x-med))
		}
		mad := quantileSelect(dev, 0.5)
		scale := 1.4826 * mad // consistent with sigma for normal data
		if scale < 1e-9 {
			// Flat baseline: treat any rise of MinValue as a strong peak.
			if xs[i] > med && xs[i] >= opts.MinValue && xs[i]-med >= 1 {
				raw = append(raw, Peak{Index: i, Value: xs[i], Score: xs[i] - med})
			}
			continue
		}
		score := (xs[i] - med) / scale
		if score >= opts.MinScore && xs[i] >= opts.MinValue {
			raw = append(raw, Peak{Index: i, Value: xs[i], Score: score})
		}
	}
	// Non-maximum suppression within Separation.
	sort.Slice(raw, func(a, b int) bool { return raw[a].Score > raw[b].Score })
	var kept []Peak
	for _, p := range raw {
		suppressed := false
		for _, k := range kept {
			if abs(p.Index-k.Index) < opts.Separation {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, p)
		}
	}
	return kept
}

// TopPeaks returns the k highest-scoring peaks (fewer if the series has
// fewer), ordered by descending score.
func TopPeaks(xs []float64, k int, opts PeakOptions) []Peak {
	peaks := DetectPeaks(xs, opts)
	if len(peaks) > k {
		peaks = peaks[:k]
	}
	return peaks
}

// MAD returns the median absolute deviation from the median.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// MovingAverage returns the centered moving average of xs with the given
// odd window (even windows are rounded up). Edges use truncated windows.
func MovingAverage(xs []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	out := make([]float64, len(xs))
	for i := range xs {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		out[i] = Mean(xs[lo : hi+1])
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
