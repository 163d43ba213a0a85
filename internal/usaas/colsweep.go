package usaas

import (
	"math/bits"

	"usersignals/internal/colstore"
	"usersignals/internal/parallel"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
)

// This file holds the columnar counterpart of DoseResponseN over a
// colstore snapshot: the same canonical chunk fold — identical chunk
// boundaries, identical merge order, identical Adds — executed over dense
// columns instead of 248-byte row structs. The store keeps no columnar copy
// of its sessions; colstore is a library the benchmark times against the row
// sweep. The filter arrives as a telemetry.FilterSpec and compiles to a
// per-partition predicate (colstore.Pred) evaluated over dictionary codes,
// bitsets, and float columns. DoseResponseCols returns ok=false when the
// parameterization has no column plan (an invalid metric).

// selWords is the selection-bitset size covering one canonical chunk.
const selWords = (parallel.ChunkSize + 63) / 64

// StudyFilterSpec is StudyFilter in declarative form: the §3.1 cohort plus
// the §3.2 control bands for the varied metric.
func StudyFilterSpec(vary telemetry.Metric) telemetry.FilterSpec {
	spec := telemetry.StudyCohortSpec()
	spec.Bands = telemetry.ControlBandsSpec(vary).Bands
	return spec
}

// DoseResponseCols is DoseResponseN over a colstore snapshot. Byte-identical
// to the row scan at any worker count.
func DoseResponseCols(snap colstore.Snapshot, metric telemetry.Metric, eng telemetry.Engagement, b stats.Binner, spec *telemetry.FilterSpec, workers int) (stats.BinnedSeries, bool, error) {
	mcol, ok1 := colstore.MetricCol(metric)
	ecol, ok2 := colstore.EngagementCol(eng)
	pred, ok3 := snap.Compile(spec)
	if !ok1 || !ok2 || !ok3 {
		return stats.BinnedSeries{}, false, nil
	}
	shards, err := parallel.Map(workers, parallel.Chunks(snap.Len()), func(i int) (*stats.BinAcc, error) {
		lo, hi := parallel.ChunkBounds(i, snap.Len())
		acc := stats.NewBinAcc(b)
		var selArr [selWords]uint64
		snap.Scan(lo, hi, func(pt *colstore.Partition, from, to int) {
			xs, ys := pt.Floats(mcol), pt.Floats(ecol)
			if pred == nil {
				for j := from; j < to; j++ {
					acc.Add(xs[j], ys[j])
				}
				return
			}
			sel := selArr[:(to-from+63)/64]
			pred.Select(pt, from, to, sel)
			for k, w := range sel {
				base := from + k<<6
				for m := w; m != 0; m &= m - 1 {
					j := base + bits.TrailingZeros64(m)
					acc.Add(xs[j], ys[j])
				}
			}
		})
		return acc, nil
	})
	if err != nil {
		return stats.BinnedSeries{}, false, err
	}
	total := stats.NewBinAcc(b)
	for _, s := range shards {
		if err := total.Merge(s); err != nil {
			return stats.BinnedSeries{}, false, err
		}
	}
	return total.Series(), true, nil
}
