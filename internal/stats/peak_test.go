package stats

import (
	"math"
	"sort"
	"testing"

	"usersignals/internal/simrand"
)

func noisySeries(n int, base float64, r *simrand.RNG) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base + r.Normal(0, 1)
	}
	return xs
}

func TestDetectPeaksFindsSpikes(t *testing.T) {
	r := simrand.New(9, 9)
	xs := noisySeries(200, 10, r)
	xs[60] = 40
	xs[120] = 55
	xs[180] = 35
	peaks := DetectPeaks(xs, PeakOptions{})
	if len(peaks) < 3 {
		t.Fatalf("found %d peaks, want >= 3", len(peaks))
	}
	// Strongest three should be at the injected spikes, ordered by score.
	got := map[int]bool{}
	for _, p := range peaks[:3] {
		got[p.Index] = true
	}
	for _, want := range []int{60, 120, 180} {
		if !got[want] {
			t.Fatalf("missing injected peak at %d; peaks: %+v", want, peaks[:3])
		}
	}
	if peaks[0].Index != 120 {
		t.Fatalf("strongest peak index = %d, want 120", peaks[0].Index)
	}
}

func TestDetectPeaksQuietSeries(t *testing.T) {
	r := simrand.New(10, 10)
	xs := noisySeries(300, 10, r)
	peaks := DetectPeaks(xs, PeakOptions{MinScore: 9})
	if len(peaks) != 0 {
		t.Fatalf("quiet series produced %d peaks at MinScore 9: %+v", len(peaks), peaks)
	}
}

func TestDetectPeaksFlatBaseline(t *testing.T) {
	xs := make([]float64, 50)
	xs[30] = 25 // step out of an all-zero baseline (MAD = 0)
	peaks := DetectPeaks(xs, PeakOptions{})
	if len(peaks) != 1 || peaks[0].Index != 30 {
		t.Fatalf("flat-baseline peak = %+v", peaks)
	}
}

func TestDetectPeaksMinValue(t *testing.T) {
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = 0.1
	}
	xs[40] = 2 // large z-score, tiny absolute value
	if peaks := DetectPeaks(xs, PeakOptions{MinValue: 10}); len(peaks) != 0 {
		t.Fatalf("MinValue filter failed: %+v", peaks)
	}
}

func TestDetectPeaksSeparation(t *testing.T) {
	r := simrand.New(11, 11)
	xs := noisySeries(100, 5, r)
	xs[50] = 50
	xs[51] = 48 // shoulder of the same event
	peaks := DetectPeaks(xs, PeakOptions{Separation: 3})
	count := 0
	for _, p := range peaks {
		if p.Index >= 48 && p.Index <= 53 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("adjacent peaks not merged: %+v", peaks)
	}
}

// detectPeaksSorted is DetectPeaks as it was before the window slid: each
// trailing window copied and sorted afresh. It is the reference the sliding
// window must reproduce.
func detectPeaksSorted(xs []float64, opts PeakOptions) []Peak {
	opts = opts.withDefaults()
	if len(xs) == 0 {
		return nil
	}
	var raw []Peak
	sorted := make([]float64, 0, opts.Window)
	dev := make([]float64, 0, opts.Window)
	for i := range xs {
		base := xs[max(0, i-opts.Window):i]
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
		scale := 1.4826 * mad
		if scale < 1e-9 {
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

// TestDetectPeaksSlidingMatchesSorted: the sliding window finds the same
// peaks as sorting every window afresh — indexes, values and scores bit for
// bit — over random series salted with NaN, ±0, ±Inf and runs of
// duplicates, at every window size the detector's callers could pick.
func TestDetectPeaksSlidingMatchesSorted(t *testing.T) {
	r := simrand.New(43, 43)
	specials := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000123), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, 2, 40}
	series := 3000
	if testing.Short() {
		series = 300
	}
	for n := 0; n < series; n++ {
		xs := make([]float64, r.Intn(701))
		salt := r.Float64() * 0.3
		for i := range xs {
			switch u := r.Float64(); {
			case u < salt:
				xs[i] = specials[r.Intn(len(specials))]
			case u < 2*salt && i > 0:
				xs[i] = xs[i-1-r.Intn(min(i, 5))]
			default:
				xs[i] = math.Round(r.Normal(10, 3)*4) / 4
			}
		}
		opts := PeakOptions{Window: 1 + r.Intn(40), MinScore: []float64{0, 1, 4}[r.Intn(3)], MinValue: []float64{0, 5, 20}[r.Intn(3)], Separation: r.Intn(6)}
		got, want := DetectPeaks(xs, opts), detectPeaksSorted(xs, opts)
		if len(got) != len(want) {
			t.Fatalf("series %d (len %d, %+v): %d peaks, want %d", n, len(xs), opts, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Index != w.Index || math.Float64bits(g.Value) != math.Float64bits(w.Value) || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Fatalf("series %d (len %d, %+v): peak %d = %+v, want %+v", n, len(xs), opts, i, g, w)
			}
		}
	}
}

func TestTopPeaks(t *testing.T) {
	r := simrand.New(12, 12)
	xs := noisySeries(200, 10, r)
	for _, i := range []int{40, 80, 120, 160} {
		xs[i] = 60
	}
	top := TopPeaks(xs, 2, PeakOptions{})
	if len(top) != 2 {
		t.Fatalf("TopPeaks returned %d", len(top))
	}
	if empty := TopPeaks(nil, 3, PeakOptions{}); empty != nil {
		t.Fatalf("TopPeaks(nil) = %+v", empty)
	}
}

func TestMAD(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	if got := MAD(xs); got != 1 {
		t.Fatalf("MAD = %v, want 1", got)
	}
	if !math.IsNaN(MAD(nil)) {
		t.Fatal("MAD(nil) should be NaN")
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ma := MovingAverage(xs, 3)
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if !almostEq(ma[i], want[i], 1e-12) {
			t.Fatalf("MovingAverage = %v, want %v", ma, want)
		}
	}
	// Even windows round up; window 1 is identity.
	id := MovingAverage(xs, 1)
	for i := range xs {
		if id[i] != xs[i] {
			t.Fatalf("window-1 MA changed data: %v", id)
		}
	}
	if got := MovingAverage(xs, 0); got[2] != xs[2] {
		t.Fatalf("window-0 fallback = %v", got)
	}
}

func TestBootstrapCICoversTruth(t *testing.T) {
	r := simrand.New(13, 13)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Normal(100, 10)
	}
	ci := BootstrapCI(r, xs, Mean, 0.95, 500)
	if !ci.Contains(100) {
		t.Fatalf("95%% CI %v does not contain true mean 100", ci)
	}
	if ci.Width() <= 0 || ci.Width() > 5 {
		t.Fatalf("CI width %v implausible for n=500 sd=10", ci.Width())
	}
}

func TestBootstrapCIEdgeCases(t *testing.T) {
	r := simrand.New(14, 14)
	ci := BootstrapCI(r, nil, Mean, 0.95, 100)
	if !math.IsNaN(ci.Lo) || !math.IsNaN(ci.Hi) {
		t.Fatalf("empty bootstrap = %+v", ci)
	}
	// Bad conf falls back to 0.95 rather than exploding.
	xs := []float64{1, 2, 3, 4, 5}
	ci = BootstrapCI(r, xs, Mean, 2.5, 200)
	if math.IsNaN(ci.Lo) {
		t.Fatal("bad conf not defaulted")
	}
}

func TestSubsampleStatStability(t *testing.T) {
	r := simrand.New(15, 15)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = r.LogNormalMeanMedian(100, 1.8)
	}
	full := Median(xs)
	for _, frac := range []float64{0.95, 0.90} {
		meds := SubsampleStat(r, xs, frac, Median, 50)
		for _, m := range meds {
			if math.Abs(m-full)/full > 0.10 {
				t.Fatalf("subsample median %v deviates >10%% from full %v at frac %v", m, full, frac)
			}
		}
	}
	if SubsampleStat(r, nil, 0.9, Median, 10) != nil {
		t.Fatal("empty subsample should be nil")
	}
	// Fraction out of range falls back to full sample.
	out := SubsampleStat(r, xs[:10], 7, Median, 3)
	if len(out) != 3 {
		t.Fatalf("rounds = %d", len(out))
	}
}
