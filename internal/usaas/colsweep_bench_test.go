package usaas

import (
	"sync"
	"testing"

	"usersignals/internal/colstore"
	"usersignals/internal/conference"
	"usersignals/internal/parallel"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
)

// colBenchState is the shared benchmark fixture: one generated corpus and
// its colstore copy, once with the tail partition open and once with every
// partition sealed. Built once — generation dominates otherwise.
type colBenchState struct {
	recs   []telemetry.SessionRecord
	open   colstore.Snapshot
	sealed colstore.Snapshot
}

var (
	colBenchOnce sync.Once
	colBench     colBenchState
)

func colBenchSetup(b *testing.B) *colBenchState {
	b.Helper()
	colBenchOnce.Do(func() {
		opts := conference.Defaults(77, 6000)
		opts.SurveyRate = 0.08
		g, err := conference.New(opts)
		if err != nil {
			panic(err)
		}
		recs, err := g.GenerateAll()
		if err != nil {
			panic(err)
		}
		colBench.recs = recs
		open, sealed := colstore.New(), colstore.New()
		if err := open.Append(recs); err != nil {
			panic(err)
		}
		if err := sealed.Append(recs); err != nil {
			panic(err)
		}
		sealed.SealTail()
		colBench.open, colBench.sealed = open.Snapshot(), sealed.Snapshot()
	})
	return &colBench
}

// doseResponseSwitch is the pre-accessor-hoist row sweep: Metric.Of and
// EngagementOf dispatch through their switches on every record. Kept as the
// baseline for the dispatch-hoist benchmark pair.
func doseResponseSwitch(records []telemetry.SessionRecord, metric telemetry.Metric, eng telemetry.Engagement, b stats.Binner, filter telemetry.Filter, workers int) (stats.BinnedSeries, error) {
	shards, err := parallel.Map(workers, parallel.Chunks(len(records)), func(i int) (*stats.BinAcc, error) {
		lo, hi := parallel.ChunkBounds(i, len(records))
		acc := stats.NewBinAcc(b)
		for j := lo; j < hi; j++ {
			r := &records[j]
			if filter != nil && !filter(r) {
				continue
			}
			acc.Add(metric.Of(r.Net), r.EngagementOf(eng))
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

// BenchmarkDoseResponse compares the row sweep (with and without the
// per-record switch dispatch) against the columnar sweep over open and
// sealed partitions, all under the standard Fig. 1 study filter.
func BenchmarkDoseResponse(b *testing.B) {
	st := colBenchSetup(b)
	bn := stats.NewBinner(0, 300, 8)
	spec := StudyFilterSpec(telemetry.LatencyMean)
	filter := spec.Filter()

	b.Run("row-switch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := doseResponseSwitch(st.recs, telemetry.LatencyMean, telemetry.Presence, bn, filter, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DoseResponseN(st.recs, telemetry.LatencyMean, telemetry.Presence, bn, filter, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := DoseResponseCols(st.open, telemetry.LatencyMean, telemetry.Presence, bn, &spec, 1); !ok || err != nil {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("columnar-sealed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := DoseResponseCols(st.sealed, telemetry.LatencyMean, telemetry.Presence, bn, &spec, 1); !ok || err != nil {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("row-switch-unfiltered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := doseResponseSwitch(st.recs, telemetry.LatencyMean, telemetry.Presence, bn, nil, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("row-unfiltered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DoseResponseN(st.recs, telemetry.LatencyMean, telemetry.Presence, bn, nil, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("columnar-unfiltered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := DoseResponseCols(st.sealed, telemetry.LatencyMean, telemetry.Presence, bn, nil, 1); !ok || err != nil {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
}
