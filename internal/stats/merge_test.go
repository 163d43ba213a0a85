package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The merge property: splitting a stream at any point, accumulating the two
// halves independently, and merging must agree with accumulating the whole
// stream in order. This is what licenses shard-and-merge parallelism — if it
// held only approximately, parallel analyses would drift from serial ones.

// quickCfg bounds the generated streams so testing/quick stays fast while
// still exercising empty and single-element halves.
func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := r.Intn(60)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.NormFloat64() * 10
			}
			vals[0] = reflect.ValueOf(xs)
			vals[1] = reflect.ValueOf(r.Intn(n + 1)) // split point in [0, n]
		},
	}
}

func approxEq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

func TestOnlineMergeProperty(t *testing.T) {
	prop := func(xs []float64, split int) bool {
		var whole, left, right Online
		whole.AddAll(xs)
		left.AddAll(xs[:split])
		right.AddAll(xs[split:])
		left.Merge(right)
		return left.N() == whole.N() &&
			approxEq(left.Mean(), whole.Mean()) &&
			approxEq(left.Variance(), whole.Variance()) &&
			approxEq(left.Sum(), whole.Sum()) &&
			approxEq(left.Min(), whole.Min()) &&
			approxEq(left.Max(), whole.Max())
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestHistMergeProperty(t *testing.T) {
	b := NewBinner(-30, 30, 12)
	prop := func(xs []float64, split int) bool {
		whole, left, right := NewHist(b), NewHist(b), NewHist(b)
		for _, x := range xs {
			whole.Add(x)
		}
		for _, x := range xs[:split] {
			left.Add(x)
		}
		for _, x := range xs[split:] {
			right.Add(x)
		}
		if err := left.Merge(right); err != nil {
			return false
		}
		return reflect.DeepEqual(left.Counts, whole.Counts)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestBinAccMergeProperty(t *testing.T) {
	b := NewBinner(-30, 30, 10)
	prop := func(xs []float64, split int) bool {
		// Pair consecutive values as (x, y) observations.
		whole, left, right := NewBinAcc(b), NewBinAcc(b), NewBinAcc(b)
		add := func(a *BinAcc, vs []float64) {
			for i := 0; i+1 < len(vs); i += 2 {
				a.Add(vs[i], vs[i+1])
			}
		}
		if split%2 == 1 {
			split-- // keep pairs intact across the cut
		}
		add(whole, xs)
		add(left, xs[:split])
		add(right, xs[split:])
		if err := left.Merge(right); err != nil {
			return false
		}
		ws, ls := whole.Series(), left.Series()
		if !reflect.DeepEqual(ws.Count, ls.Count) {
			return false
		}
		for i := range ws.Y {
			if !approxEq(ws.Y[i], ls.Y[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestGrid2DAccMergeProperty(t *testing.T) {
	xb := NewBinner(-30, 30, 5)
	yb := NewBinner(-30, 30, 5)
	prop := func(xs []float64, split int) bool {
		whole, left, right := NewGrid2DAcc(xb, yb), NewGrid2DAcc(xb, yb), NewGrid2DAcc(xb, yb)
		add := func(g *Grid2DAcc, vs []float64) {
			for i := 0; i+2 < len(vs); i += 3 {
				g.Add(vs[i], vs[i+1], vs[i+2])
			}
		}
		split -= split % 3 // keep triples intact across the cut
		add(whole, xs)
		add(left, xs[:split])
		add(right, xs[split:])
		if err := left.Merge(right); err != nil {
			return false
		}
		wg, lg := whole.Grid(), left.Grid()
		if !reflect.DeepEqual(wg.Count, lg.Count) {
			return false
		}
		for i := range wg.Mean {
			for j := range wg.Mean[i] {
				if !approxEq(wg.Mean[i][j], lg.Mean[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// TestMergeBinnerMismatchErrors pins the degradation contract: a shard
// accumulated over the wrong binner must surface as a returned error — never
// a panic — and must leave the receiver untouched. Nil merges stay no-ops.
func TestMergeBinnerMismatchErrors(t *testing.T) {
	a, b := NewBinner(0, 10, 5), NewBinner(0, 10, 7)

	ba := NewBinAcc(a)
	ba.Add(1, 2)
	if err := ba.Merge(NewBinAcc(b)); err == nil {
		t.Fatal("BinAcc.Merge accepted a binner mismatch")
	}
	if err := ba.Merge(nil); err != nil {
		t.Fatalf("BinAcc.Merge(nil) = %v", err)
	}
	if s := ba.Series(); s.Count[0] != 1 {
		t.Fatalf("failed merge mutated the receiver: %+v", s)
	}

	ga := NewGrid2DAcc(a, a)
	if err := ga.Merge(NewGrid2DAcc(a, b)); err == nil {
		t.Fatal("Grid2DAcc.Merge accepted a grid mismatch")
	}
	if err := ga.Merge(nil); err != nil {
		t.Fatalf("Grid2DAcc.Merge(nil) = %v", err)
	}

	ha := NewHist(a)
	if err := ha.Merge(NewHist(b)); err == nil {
		t.Fatal("Hist.Merge accepted a binner mismatch")
	}
	if err := ha.Merge(nil); err != nil {
		t.Fatalf("Hist.Merge(nil) = %v", err)
	}
}

// TestBinMeansNMatchesSerial pins the sharded driver's determinism: the
// chunked result must be bit-identical at every worker count (canonical
// chunking runs the same merge sequence regardless of scheduling), and must
// agree with the unchunked serial BinMeans up to floating-point reassociation.
func TestBinMeansNMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 3*2048 + 321 // spans several chunks plus a ragged tail
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64() * 100
		ys[i] = r.NormFloat64()
	}
	b := NewBinner(0, 100, 10)
	want, err := BinMeansN(b, xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, 16} {
		got, err := BinMeansN(b, xs, ys, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: BinMeansN differs bitwise from workers=1", workers)
		}
	}
	serial, err := BinMeans(b, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Count, want.Count) {
		t.Fatal("BinMeansN bin counts differ from BinMeans")
	}
	for i := range serial.Y {
		if !approxEq(serial.Y[i], want.Y[i]) {
			t.Fatalf("bin %d: BinMeansN mean %v vs BinMeans %v", i, want.Y[i], serial.Y[i])
		}
	}
}

// TestGeoHistSeparatesOrdersOfMagnitude: the coordinator's fan-out latency
// shape puts a 0.2 ms revalidation, a 70 ms fetch and a 2 s stall in
// buckets of their own, counts an observation on an edge in the bucket
// above it, and clamps overflow into the top bucket instead of dropping it.
func TestGeoHistSeparatesOrdersOfMagnitude(t *testing.T) {
	h := NewGeoHist(0.125, 2, 17)
	if len(h.Edges) != 17 || h.Edges[0] != 0.125 || h.Edges[16] != 8192 {
		t.Fatalf("edges %v", h.Edges)
	}
	for _, x := range []float64{0, 0.2, 0.25, 70, 2000, 8192, 1e9, math.NaN()} {
		h.Add(x)
	}
	want := make([]int, 17)
	want[0] = 1  // 0
	want[1] = 1  // 0.2 in [0.125, 0.25)
	want[2] = 1  // 0.25 sits on an edge: [0.25, 0.5)
	want[10] = 1 // 70 in [64, 128)
	want[14] = 1 // 2000 in [1024, 2048)
	want[16] = 2 // the last edge and far beyond it: clamped, not dropped
	if !reflect.DeepEqual(h.Counts, want) {
		t.Fatalf("counts %v, want %v", h.Counts, want)
	}
	snap := h.Clone()
	h.Add(1)
	if reflect.DeepEqual(snap.Counts, h.Counts) {
		t.Fatal("Clone shares its counts with the live histogram")
	}
}
