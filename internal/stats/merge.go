package stats

import (
	"fmt"
	"sort"

	"usersignals/internal/parallel"
)

// This file holds the mergeable accumulator forms of the binned aggregates
// in bin.go, plus their sharded parallel drivers. Each accumulator supports
// Merge so analyses can shard records across canonically ordered chunks,
// accumulate per chunk, and fold the chunks back together in chunk order —
// the floating-point result is then a pure function of the input and the
// chunk size, independent of how many goroutines did the work.

// BinAcc accumulates a response variable y within bins of a predictor x;
// the mergeable form of BinMeans. Create with NewBinAcc.
type BinAcc struct {
	B    Binner
	Accs []Online
}

// NewBinAcc returns an empty accumulator over b's bins.
func NewBinAcc(b Binner) *BinAcc {
	return &BinAcc{B: b, Accs: make([]Online, b.NBins)}
}

// Add folds one (x, y) observation in; x outside [Lo, Hi) is ignored.
func (a *BinAcc) Add(x, y float64) {
	if i := a.B.Index(x); i >= 0 {
		a.Accs[i].Add(y)
	}
}

// Merge combines another accumulator over the same binner into this one.
// Merging accumulators over different binners returns an error (a malformed
// shard must degrade the analysis, not crash the process).
func (a *BinAcc) Merge(other *BinAcc) error {
	if other == nil {
		return nil
	}
	if a.B != other.B {
		return fmt.Errorf("stats: BinAcc.Merge binner mismatch: %+v vs %+v", a.B, other.B)
	}
	for i := range a.Accs {
		a.Accs[i].Merge(other.Accs[i])
	}
	return nil
}

// Series snapshots the accumulator as a BinnedSeries.
func (a *BinAcc) Series() BinnedSeries {
	s := BinnedSeries{
		X:     a.B.Centers(),
		Y:     make([]float64, a.B.NBins),
		Count: make([]int, a.B.NBins),
	}
	for i := range a.Accs {
		s.Y[i] = a.Accs[i].Mean()
		s.Count[i] = a.Accs[i].N()
	}
	return s
}

// BinAccState is the exported wire form of a BinAcc: the binner plus each
// bin's Welford state, carried verbatim so a reconstructed accumulator
// merges bit-identically to the original.
type BinAccState struct {
	B    Binner        `json:"b"`
	Accs []OnlineState `json:"accs"`
}

// State exports the accumulator for transport.
func (a *BinAcc) State() BinAccState {
	st := BinAccState{B: a.B, Accs: make([]OnlineState, len(a.Accs))}
	for i := range a.Accs {
		st.Accs[i] = a.Accs[i].State()
	}
	return st
}

// BinAccFromState reconstructs an accumulator from exported state. A state
// whose bin count disagrees with its binner is rejected (a malformed shard
// must degrade the analysis, not crash the process).
func BinAccFromState(st BinAccState) (*BinAcc, error) {
	if len(st.Accs) != st.B.NBins {
		return nil, fmt.Errorf("stats: BinAccFromState: %d accs for %d bins", len(st.Accs), st.B.NBins)
	}
	a := NewBinAcc(st.B)
	for i := range st.Accs {
		a.Accs[i] = FromState(st.Accs[i])
	}
	return a, nil
}

// Grid2DAcc accumulates a response over a 2D predictor grid; the mergeable
// form of BinMeans2D. Create with NewGrid2DAcc.
type Grid2DAcc struct {
	XB, YB Binner
	Accs   [][]Online // [xi][yi]
}

// NewGrid2DAcc returns an empty accumulator over the xb x yb grid.
func NewGrid2DAcc(xb, yb Binner) *Grid2DAcc {
	accs := make([][]Online, xb.NBins)
	for i := range accs {
		accs[i] = make([]Online, yb.NBins)
	}
	return &Grid2DAcc{XB: xb, YB: yb, Accs: accs}
}

// Add folds one (x, y, z) observation in; out-of-range cells are ignored.
func (g *Grid2DAcc) Add(x, y, z float64) {
	xi := g.XB.Index(x)
	yi := g.YB.Index(y)
	if xi >= 0 && yi >= 0 {
		g.Accs[xi][yi].Add(z)
	}
}

// Merge combines another accumulator over the same grid into this one, or
// returns an error on a grid mismatch.
func (g *Grid2DAcc) Merge(other *Grid2DAcc) error {
	if other == nil {
		return nil
	}
	if g.XB != other.XB || g.YB != other.YB {
		return fmt.Errorf("stats: Grid2DAcc.Merge binner mismatch: (%+v,%+v) vs (%+v,%+v)",
			g.XB, g.YB, other.XB, other.YB)
	}
	for i := range g.Accs {
		for j := range g.Accs[i] {
			g.Accs[i][j].Merge(other.Accs[i][j])
		}
	}
	return nil
}

// Grid snapshots the accumulator as a Grid2D.
func (g *Grid2DAcc) Grid() Grid2D {
	out := Grid2D{XBins: g.XB, YBins: g.YB}
	out.Mean = make([][]float64, g.XB.NBins)
	out.Count = make([][]int, g.XB.NBins)
	for i := range g.Accs {
		out.Mean[i] = make([]float64, g.YB.NBins)
		out.Count[i] = make([]int, g.YB.NBins)
		for j := range g.Accs[i] {
			out.Mean[i][j] = g.Accs[i][j].Mean()
			out.Count[i][j] = g.Accs[i][j].N()
		}
	}
	return out
}

// Hist is a mergeable histogram; the accumulator form of Histogram.
type Hist struct {
	B      Binner
	Counts []int
}

// NewHist returns an empty histogram over b's bins.
func NewHist(b Binner) *Hist {
	return &Hist{B: b, Counts: make([]int, b.NBins)}
}

// Add counts one observation; out-of-range values are ignored.
func (h *Hist) Add(x float64) {
	if i := h.B.Index(x); i >= 0 {
		h.Counts[i]++
	}
}

// Merge combines another histogram over the same binner into this one, or
// returns an error on a binner mismatch.
func (h *Hist) Merge(other *Hist) error {
	if other == nil {
		return nil
	}
	if h.B != other.B {
		return fmt.Errorf("stats: Hist.Merge binner mismatch: %+v vs %+v", h.B, other.B)
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	return nil
}

// GeoHist is a histogram over geometric bucket edges, for quantities that
// span orders of magnitude (a 0.2 ms revalidation, a 70 ms fetch and a 2 s
// stall belong in different buckets of one gauge). Bucket i counts
// observations in [Edges[i-1], Edges[i]), bucket 0 from zero; anything at or
// past the last edge is clamped into the top bucket, never dropped.
type GeoHist struct {
	Edges  []float64
	Counts []int
}

// NewGeoHist returns an empty histogram of n buckets whose upper edges
// start at first and grow by ratio.
func NewGeoHist(first, ratio float64, n int) *GeoHist {
	edges := make([]float64, n)
	for i, e := 0, first; i < n; i, e = i+1, e*ratio {
		edges[i] = e
	}
	return &GeoHist{Edges: edges, Counts: make([]int, n)}
}

// Add counts one observation; NaN is ignored.
func (h *GeoHist) Add(x float64) {
	if x != x {
		return
	}
	i := sort.SearchFloat64s(h.Edges, x)
	if i < len(h.Edges) && h.Edges[i] == x {
		i++ // edges are exclusive upper bounds
	}
	h.Counts[min(i, len(h.Counts)-1)]++
}

// Clone returns a copy safe to publish while h keeps counting.
func (h *GeoHist) Clone() GeoHist {
	return GeoHist{Edges: h.Edges, Counts: append([]int(nil), h.Counts...)}
}

// BinMeansN is BinMeans over `workers` goroutines: xs is sharded into
// canonical chunks, each chunk accumulates independently, and the chunks
// merge in chunk order. The result is identical for every worker count.
func BinMeansN(b Binner, xs, ys []float64, workers int) (BinnedSeries, error) {
	if len(xs) != len(ys) {
		return BinnedSeries{}, fmt.Errorf("stats: BinMeans length mismatch: %d xs vs %d ys", len(xs), len(ys))
	}
	shards, err := parallel.Map(workers, parallel.Chunks(len(xs)), func(i int) (*BinAcc, error) {
		lo, hi := parallel.ChunkBounds(i, len(xs))
		acc := NewBinAcc(b)
		for j := lo; j < hi; j++ {
			acc.Add(xs[j], ys[j])
		}
		return acc, nil
	})
	if err != nil {
		return BinnedSeries{}, err
	}
	total := NewBinAcc(b)
	for _, s := range shards {
		if err := total.Merge(s); err != nil {
			return BinnedSeries{}, err
		}
	}
	return total.Series(), nil
}

// BinMeans2DN is BinMeans2D over `workers` goroutines, sharded and merged
// the same way as BinMeansN.
func BinMeans2DN(xb, yb Binner, xs, ys, zs []float64, workers int) (Grid2D, error) {
	if len(xs) != len(ys) || len(xs) != len(zs) {
		return Grid2D{}, fmt.Errorf("stats: BinMeans2D length mismatch: %d/%d/%d", len(xs), len(ys), len(zs))
	}
	shards, err := parallel.Map(workers, parallel.Chunks(len(xs)), func(i int) (*Grid2DAcc, error) {
		lo, hi := parallel.ChunkBounds(i, len(xs))
		acc := NewGrid2DAcc(xb, yb)
		for j := lo; j < hi; j++ {
			acc.Add(xs[j], ys[j], zs[j])
		}
		return acc, nil
	})
	if err != nil {
		return Grid2D{}, err
	}
	total := NewGrid2DAcc(xb, yb)
	for _, s := range shards {
		if err := total.Merge(s); err != nil {
			return Grid2D{}, err
		}
	}
	return total.Grid(), nil
}
