// Package stats implements the descriptive and inferential statistics used by
// the measurement pipelines: summary statistics, binning, correlation,
// regression, bootstrap confidence intervals, smoothing, and peak detection.
//
// All functions are pure and operate on float64 slices. NaN inputs are the
// caller's responsibility unless a function documents otherwise; empty inputs
// return NaN (for point statistics) or empty results (for vector ones) so
// that missing data propagates visibly instead of silently becoming zero.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance, or NaN if len < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation, or NaN if len < 2.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Median returns the median of xs (average of middle two for even lengths),
// or NaN for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (q in [0,1]) of xs using linear
// interpolation between order statistics (the same convention as numpy's
// default). xs is not modified. Returns NaN for empty input; q is clamped to
// [0, 1]. Order statistics follow sort.Float64s (NaN first) and are found by
// selection, not by sorting.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return quantileSelect(append([]float64(nil), xs...), q)
}

// floatLess is sort.Float64s' order: ascending, NaN before every number.
func floatLess(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

// selectNth reorders xs so that xs[k] is the element a sort.Float64s would
// put there, with no element after it ordered before it and none before it
// ordered after it (quickselect, median-of-three pivots).
func selectNth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if floatLess(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if floatLess(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if floatLess(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for floatLess(xs[i], pivot) {
				i++
			}
			for floatLess(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] ≤ pivot ≤ xs[i..hi], and anything between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// quantileSelect is quantileSorted over xs in sort.Float64s order, reached
// by selection; xs is reordered in place.
func quantileSelect(xs []float64, q float64) float64 {
	q = min(max(q, 0), 1)
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	selectNth(xs, lo)
	if lo == hi {
		return xs[lo]
	}
	// The next order statistic is the least of what selection left after lo.
	next := xs[hi]
	for _, x := range xs[hi+1:] {
		if floatLess(x, next) {
			next = x
		}
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + next*frac
}

// QuantilesOf returns several quantiles in one sort. qs values are clamped to
// [0, 1]; the result is aligned with qs.
func QuantilesOf(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// P95 returns the 95th percentile, the tail statistic the paper's telemetry
// client reports alongside mean and median.
func P95(xs []float64) float64 {
	return Quantile(xs, 0.95)
}

// Min returns the minimum of xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs (0 for empty input).
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Clamp bounds x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Winsorize returns a copy of xs with values below the lo-quantile raised to
// it and values above the hi-quantile lowered to it. Used to tame the
// outlier sessions ("users who stay long after everyone left") that the
// paper's Presence definition guards against.
func Winsorize(xs []float64, loQ, hiQ float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	qs := QuantilesOf(xs, loQ, hiQ)
	lo, hi := qs[0], qs[1]
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = Clamp(x, lo, hi)
	}
	return out
}

// Summary bundles the per-session aggregate trio the telemetry client emits.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	P95    float64
	Min    float64
	Max    float64
	StdDev float64
}

// Summarize computes a Summary in a single pass plus one sort.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{N: 0, Mean: nan, Median: nan, P95: nan, Min: nan, Max: nan, StdDev: nan}
	}
	qs := QuantilesOf(xs, 0.5, 0.95)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: qs[0],
		P95:    qs[1],
		Min:    Min(xs),
		Max:    Max(xs),
		StdDev: StdDev(xs),
	}
}

// Normalize returns xs linearly rescaled to [0, 1]; constant input maps to
// all zeros. Used for the paper's "normalized engagement" axis in Fig. 4.
func Normalize(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	lo, hi := Min(xs), Max(xs)
	out := make([]float64, len(xs))
	if hi == lo {
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}
