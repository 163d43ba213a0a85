package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of single element should be NaN")
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("Median(nil) should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.1, 14},
		{-0.5, 10}, {1.5, 50}, // clamped
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Fatalf("single-element quantile = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantilesOfMatchesQuantile(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		qs := []float64{0.1, 0.5, 0.9}
		multi := QuantilesOf(raw, qs...)
		for i, q := range qs {
			if !almostEq(multi[i], Quantile(raw, q), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileOrderProperty(t *testing.T) {
	// Quantile must be monotone in q and bounded by min/max.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		q25 := Quantile(raw, 0.25)
		q75 := Quantile(raw, 0.75)
		return q25 <= q75 && q25 >= Min(raw) && q75 <= Max(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sortQuantile is the sort-based reference Quantile selects against.
func sortQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// sameQuantile compares a selected quantile with the sorted reference: bit
// for bit, except that NaN matches NaN and −0 matches +0 (the reference's
// own order among equal zeros depends on its sort).
func sameQuantile(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	if got == 0 && want == 0 {
		return true
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// TestQuantileSelectMatchesSort: selection finds the order statistics a
// sort would, over inputs drawn from a small pool so duplicates abound,
// with NaN, ±Inf and both zeros among them, at q on and between order
// statistics; and DetectPeaks' once-sorted windows score like Median and
// MAD of each window.
func TestQuantileSelectMatchesSort(t *testing.T) {
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, 1, 2.5, -3, 7, 1e-300, -1e300}
	rng := rand.New(rand.NewPCG(7, 11))
	qs := []float64{-0.5, 0, 0.1, 0.25, 1.0 / 3, 0.5, 0.75, 0.9, 0.95, 1, 2}
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.IntN(40)
		xs := make([]float64, n)
		for i := range xs {
			if trial%2 == 0 {
				xs[i] = pool[rng.IntN(len(pool))]
			} else {
				xs[i] = math.Round(rng.NormFloat64()*4) / 2 // finite, many ties
			}
		}
		for _, q := range qs {
			if got, want := Quantile(xs, q), sortQuantile(xs, q); !sameQuantile(got, want) {
				t.Fatalf("Quantile(%v, %v) = %v, the sorted reference %v", xs, q, got, want)
			}
		}
	}

	series := make([]float64, 400)
	for i := range series {
		series[i] = math.Round(rng.NormFloat64()*3) + 10
		if i%37 == 0 {
			series[i] += 25
		}
	}
	opts := PeakOptions{Window: 14, MinScore: 3, Separation: 3}
	var want []Peak
	for i := range series {
		base := series[max(0, i-opts.Window):i]
		if len(base) < 3 {
			continue
		}
		med := sortQuantile(base, 0.5)
		dev := make([]float64, len(base))
		for j, x := range base {
			dev[j] = math.Abs(x - med)
		}
		scale := 1.4826 * sortQuantile(dev, 0.5)
		if scale < 1e-9 {
			if series[i] > med && series[i]-med >= 1 {
				want = append(want, Peak{Index: i, Value: series[i], Score: series[i] - med})
			}
		} else if score := (series[i] - med) / scale; score >= opts.MinScore {
			want = append(want, Peak{Index: i, Value: series[i], Score: score})
		}
	}
	got := map[int]Peak{}
	for _, p := range DetectPeaks(series, opts) {
		got[p.Index] = p
	}
	if len(got) == 0 {
		t.Fatal("scenario broken: no peaks")
	}
	for _, w := range want {
		if p, ok := got[w.Index]; ok && math.Float64bits(p.Score) != math.Float64bits(w.Score) {
			t.Errorf("peak at %d scores %v, the sorted reference %v", w.Index, p.Score, w.Score)
		}
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{5, -2, 9, 0}
	if Min(xs) != -2 || Max(xs) != 9 || Sum(xs) != 12 {
		t.Fatalf("Min/Max/Sum wrong: %v %v %v", Min(xs), Max(xs), Sum(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) || Sum(nil) != 0 {
		t.Fatal("empty-input behavior wrong")
	}
}

func TestWinsorize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	w := Winsorize(xs, 0.05, 0.95)
	if Max(w) >= 100 {
		t.Fatalf("outlier not capped: max %v", Max(w))
	}
	if len(w) != len(xs) {
		t.Fatal("length changed")
	}
	if Winsorize(nil, 0.1, 0.9) != nil {
		t.Fatal("empty winsorize should be nil")
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("Summary = %+v", s)
	}
	if !almostEq(s.P95, 4.8, 1e-12) {
		t.Fatalf("P95 = %v", s.P95)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Fatalf("empty Summary = %+v", empty)
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{10, 20, 30}
	n := Normalize(xs)
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEq(n[i], want[i], 1e-12) {
			t.Fatalf("Normalize = %v", n)
		}
	}
	flat := Normalize([]float64{5, 5})
	if flat[0] != 0 || flat[1] != 0 {
		t.Fatalf("constant Normalize = %v", flat)
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		clean := raw[:0:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var o Online
		o.AddAll(clean)
		return almostEq(o.Mean(), Mean(clean), 1e-6*(1+math.Abs(Mean(clean)))) &&
			almostEq(o.Variance(), Variance(clean), 1e-4*(1+Variance(clean))) &&
			o.Min() == Min(clean) && o.Max() == Max(clean) && o.N() == len(clean)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineMerge(t *testing.T) {
	xs := []float64{1, 5, 2, 8, 3, 9, 4, 7}
	var a, b, whole Online
	a.AddAll(xs[:3])
	b.AddAll(xs[3:])
	whole.AddAll(xs)
	a.Merge(b)
	if a.N() != whole.N() || !almostEq(a.Mean(), whole.Mean(), 1e-12) ||
		!almostEq(a.Variance(), whole.Variance(), 1e-9) ||
		a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merged %+v != whole %+v", a, whole)
	}
	// Merging into empty adopts the other.
	var empty Online
	empty.Merge(whole)
	if empty.N() != whole.N() || empty.Mean() != whole.Mean() {
		t.Fatal("merge into empty failed")
	}
	// Merging empty is a no-op.
	before := whole.Mean()
	whole.Merge(Online{})
	if whole.Mean() != before {
		t.Fatal("merging empty changed state")
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() || !math.IsNaN(e.Value()) {
		t.Fatal("fresh EWMA should be uninitialized")
	}
	if got := e.Add(10); got != 10 {
		t.Fatalf("first Add = %v", got)
	}
	if got := e.Add(20); got != 15 {
		t.Fatalf("second Add = %v", got)
	}
	if got := e.Add(15); got != 15 {
		t.Fatalf("third Add = %v", got)
	}
	// Bad alpha falls back to a sane default rather than breaking.
	bad := NewEWMA(-1)
	bad.Add(1)
	if !bad.Initialized() {
		t.Fatal("fallback alpha EWMA broken")
	}
}

func TestEWMAConvergence(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 200; i++ {
		e.Add(42)
	}
	if !almostEq(e.Value(), 42, 1e-9) {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
}

func TestRanksHandleTies(t *testing.T) {
	xs := []float64{10, 20, 20, 30}
	r := Ranks(xs)
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
}

func TestRanksPermutationInvariant(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) {
				return true
			}
		}
		r := Ranks(raw)
		// Sum of ranks must be n(n+1)/2 regardless of ties.
		n := float64(len(raw))
		return almostEq(Sum(r), n*(n+1)/2, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || !almostEq(r, 1, 1e-12) {
		t.Fatalf("perfect correlation: r=%v err=%v", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation: %v", r)
	}
	r, _ = Pearson(xs, []float64{3, 3, 3, 3, 3})
	if !math.IsNaN(r) {
		t.Fatalf("constant series should be NaN, got %v", r)
	}
	if _, err := Pearson(xs, ys[:3]); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // monotone but very non-linear
	}
	rho, err := Spearman(xs, ys)
	if err != nil || !almostEq(rho, 1, 1e-12) {
		t.Fatalf("Spearman of monotone = %v (err %v)", rho, err)
	}
}

func TestKendallTau(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	up := []float64{10, 20, 30, 40}
	down := []float64{9, 7, 5, 3}
	tau, _ := KendallTau(xs, up)
	if !almostEq(tau, 1, 1e-12) {
		t.Fatalf("tau up = %v", tau)
	}
	tau, _ = KendallTau(xs, down)
	if !almostEq(tau, -1, 1e-12) {
		t.Fatalf("tau down = %v", tau)
	}
	if _, err := KendallTau(xs, up[:2]); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestTrendSlope(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	s, err := TrendSlope(xs, ys)
	if err != nil || !almostEq(s, 2, 1e-12) {
		t.Fatalf("slope = %v err=%v", s, err)
	}
	s, _ = TrendSlope([]float64{1, 1}, []float64{2, 3})
	if !math.IsNaN(s) {
		t.Fatalf("degenerate x should be NaN, got %v", s)
	}
}

func TestCorrelationSymmetryProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n < 2 {
			return true
		}
		a, b = a[:n], b[:n]
		for i := 0; i < n; i++ {
			if math.IsNaN(a[i]) || math.IsNaN(b[i]) || math.IsInf(a[i], 0) || math.IsInf(b[i], 0) {
				return true
			}
		}
		r1, _ := Pearson(a, b)
		r2, _ := Pearson(b, a)
		if math.IsNaN(r1) && math.IsNaN(r2) {
			return true
		}
		return almostEq(r1, r2, 1e-9) && r1 >= -1-1e-9 && r1 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

var _ = sort.Float64s // keep sort imported if tests shrink
