package usaas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"usersignals/internal/colstore"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// colsweepSpecs is the filter matrix the identity tests sweep: unfiltered,
// the full study filters, each clause family alone, and a dictionary miss
// (a country no record carries compiles to a match-nothing predicate).
func colsweepSpecs(recs []telemetry.SessionRecord) map[string]*telemetry.FilterSpec {
	study := StudyFilterSpec(telemetry.LatencyMean)
	studyLoss := StudyFilterSpec(telemetry.LossMean)
	country := telemetry.FilterSpec{Country: "US"}
	ispMin := telemetry.FilterSpec{ISP: recs[0].ISP, MinMeetingSize: 4}
	bh := timeline.ESTBusinessHours
	entBH := telemetry.FilterSpec{Enterprise: true, BusinessHours: &bh}
	miss := telemetry.FilterSpec{Country: "Atlantis"}
	return map[string]*telemetry.FilterSpec{
		"none":            nil,
		"study-latency":   &study,
		"study-loss":      &studyLoss,
		"country":         &country,
		"isp-minmeeting":  &ispMin,
		"enterprise-bh":   &entBH,
		"country-missing": &miss,
	}
}

// specFilter turns a spec into the row path's closure form (nil spec = no
// filter), for the row references below.
func specFilter(spec *telemetry.FilterSpec) telemetry.Filter {
	if spec == nil {
		return nil
	}
	return spec.Filter()
}

// TestColumnarSweepsMatchRow is the columnar identity property: the
// columnar dose-response sweep must render byte-identically to its row
// reference over the same records, for every filter spec, at every worker
// count, on both the open colstore and the fully sealed one. A spec with no
// column plan (an invalid band metric) must answer ok=false.
func TestColumnarSweepsMatchRow(t *testing.T) {
	seeds := []uint64{21, 22, 23}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			recs := viewSessions(t, seed, 5000)
			cs := colstore.New()
			for _, batch := range unevenBatches(recs) {
				if err := cs.Append(batch); err != nil {
					t.Fatal(err)
				}
			}

			b := stats.NewBinner(0, 300, 8)
			bad := telemetry.FilterSpec{Bands: []telemetry.MetricBand{{Metric: telemetry.Metric(99), Lo: 0, Hi: 1e12}}}
			check := func(shape string) {
				snap := cs.Snapshot()
				for name, spec := range colsweepSpecs(recs) {
					want, err := DoseResponseN(recs, telemetry.LatencyMean, telemetry.Presence, b, specFilter(spec), 1)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 4, 16} {
						tag := fmt.Sprintf("%s/%s/w%d", shape, name, workers)
						got, ok, err := DoseResponseCols(snap, telemetry.LatencyMean, telemetry.Presence, b, spec, workers)
						if err != nil || !ok {
							t.Fatalf("%s: ok=%v err=%v", tag, ok, err)
						}
						if marshal(t, got) != marshal(t, want) {
							t.Errorf("%s: DoseResponseCols diverges from row path", tag)
						}
					}
				}
				if _, ok, err := DoseResponseCols(snap, telemetry.LatencyMean, telemetry.Presence, b, &bad, 4); ok || err != nil {
					t.Errorf("%s: invalid-band spec compiled: ok=%v err=%v", shape, ok, err)
				}
			}
			check("open")
			cs.SealTail()
			st := cs.Stats()
			if st.SealedPartitions != st.Partitions {
				t.Fatalf("SealTail left %d of %d partitions open", st.Partitions-st.SealedPartitions, st.Partitions)
			}
			check("sealed")
		})
	}
}

// TestColumnarFallsBackToRow: a parameterization without a column plan (an
// invalid band metric) must answer ok=false with no error, so a caller falls
// back to the row scan and gets the row answer; a spec that compiles (the
// study filter) must take the column plan and agree with the row scan.
func TestColumnarFallsBackToRow(t *testing.T) {
	recs := viewSessions(t, 24, 3000)
	b := stats.NewBinner(0, 300, 8)
	cs := colstore.New()
	for _, batch := range unevenBatches(recs) {
		if err := cs.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	sweep := func(spec *telemetry.FilterSpec) (stats.BinnedSeries, bool) {
		got, ok, err := DoseResponseCols(cs.Snapshot(), telemetry.LatencyMean, telemetry.Presence, b, spec, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if got, err = DoseResponseN(recs, telemetry.LatencyMean, telemetry.Presence, b, spec.Filter(), 4); err != nil {
				t.Fatal(err)
			}
		}
		return got, ok
	}

	bad := telemetry.FilterSpec{Bands: []telemetry.MetricBand{{Metric: telemetry.Metric(99), Lo: 0, Hi: 1e12}}}
	want, err := DoseResponseN(recs, telemetry.LatencyMean, telemetry.Presence, b, bad.Filter(), 4)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := sweep(&bad)
	if ok {
		t.Error("invalid-band spec compiled to a column plan")
	}
	if marshal(t, got) != marshal(t, want) {
		t.Error("invalid-band spec did not fall back to an identical row scan")
	}

	study := StudyFilterSpec(telemetry.LatencyMean)
	want, err = DoseResponseN(recs, telemetry.LatencyMean, telemetry.Presence, b, study.Filter(), 4)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = sweep(&study)
	if !ok {
		t.Error("study spec fell back to the row scan")
	}
	if marshal(t, got) != marshal(t, want) {
		t.Error("study spec column plan diverges from row path")
	}
}

// fuzzRecords derives an arbitrary session slice from fuzz bytes: random
// fields including NaN metrics, negative sizes, pre-epoch starts, and
// out-of-order days — the shapes the codec must round-trip.
func fuzzRecords(data []byte) []telemetry.SessionRecord {
	if len(data) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(int64(len(data)) * 2654435761))
	for _, b := range data {
		rng = rand.New(rand.NewSource(rng.Int63() ^ int64(b)))
	}
	n := int(data[0])%300 + 1
	platforms := []string{"meet", "zoom", "teams", "webex"}
	countries := []string{"US", "DE", "IN", "BR"}
	isps := []string{"comcast", "verizon", "t-home", ""}
	recs := make([]telemetry.SessionRecord, n)
	for i := range recs {
		r := &recs[i]
		r.CallID = rng.Uint64()
		r.UserID = rng.Uint64() % 50
		day := int64(rng.Intn(8)) - 2 // out-of-order and pre-epoch days
		r.Start = time.Unix(day*86400+int64(rng.Intn(86400)), int64(rng.Intn(1e9))).UTC()
		r.DurationSec = rng.Float64() * 3600
		r.Platform = platforms[rng.Intn(len(platforms))]
		r.Country = countries[rng.Intn(len(countries))]
		r.ISP = isps[rng.Intn(len(isps))]
		r.MeetingSize = rng.Intn(16) - 2
		r.Enterprise = rng.Intn(2) == 0
		r.LeftEarly = rng.Intn(2) == 0
		r.Rated = rng.Intn(3) == 0
		r.Rating = rng.Intn(7) - 1
		m := func() float64 {
			if rng.Intn(12) == 0 {
				return math.NaN()
			}
			return rng.Float64() * 300
		}
		r.Net = telemetry.NetAggregates{
			LatencyMean: m(), LatencyMedian: m(), LatencyP95: m(),
			LossMean: m(), LossMedian: m(), LossP95: m(),
			JitterMean: m(), JitterMedian: m(), JitterP95: m(),
			BWMean: m(), BWMedian: m(), BWP95: m(),
		}
		r.PresencePct = rng.Float64() * 100
		r.CamOnPct = rng.Float64() * 100
		r.MicOnPct = rng.Float64() * 100
	}
	return recs
}

// fuzzRecordsEqual compares records bitwise: NaN equals NaN, and Start must
// match to the nanosecond in the same location.
func fuzzRecordsEqual(a, b *telemetry.SessionRecord) bool {
	fe := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.CallID == b.CallID && a.UserID == b.UserID &&
		a.Start.Equal(b.Start) && a.Start.Location() == b.Start.Location() &&
		fe(a.DurationSec, b.DurationSec) &&
		a.Platform == b.Platform && a.Country == b.Country && a.ISP == b.ISP &&
		a.MeetingSize == b.MeetingSize && a.Enterprise == b.Enterprise &&
		a.LeftEarly == b.LeftEarly && a.Rated == b.Rated && a.Rating == b.Rating &&
		fe(a.Net.LatencyMean, b.Net.LatencyMean) && fe(a.Net.LatencyMedian, b.Net.LatencyMedian) && fe(a.Net.LatencyP95, b.Net.LatencyP95) &&
		fe(a.Net.LossMean, b.Net.LossMean) && fe(a.Net.LossMedian, b.Net.LossMedian) && fe(a.Net.LossP95, b.Net.LossP95) &&
		fe(a.Net.JitterMean, b.Net.JitterMean) && fe(a.Net.JitterMedian, b.Net.JitterMedian) && fe(a.Net.JitterP95, b.Net.JitterP95) &&
		fe(a.Net.BWMean, b.Net.BWMean) && fe(a.Net.BWMedian, b.Net.BWMedian) && fe(a.Net.BWP95, b.Net.BWP95) &&
		fe(a.PresencePct, b.PresencePct) && fe(a.CamOnPct, b.CamOnPct) && fe(a.MicOnPct, b.MicOnPct)
}

// FuzzColumnarRoundTrip: arbitrary records → columnar encode → seal →
// materialize must reproduce the records bit for bit, and the columnar
// dose-response sweep must match the row sweep over the originals.
func FuzzColumnarRoundTrip(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{200, 7, 7, 7})
	f.Add([]byte("columnar"))
	f.Add([]byte{255, 0, 128, 64, 32, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := fuzzRecords(data)
		if len(recs) == 0 {
			t.Skip()
		}
		cols := colstore.New()
		if err := cols.Append(recs); err != nil {
			t.Fatal(err)
		}
		check := func(shape string) {
			snap := cols.Snapshot()
			if snap.Len() != len(recs) {
				t.Fatalf("%s: snapshot holds %d records, want %d", shape, snap.Len(), len(recs))
			}
			got := snap.AppendRecords(nil)
			for i := range recs {
				if !fuzzRecordsEqual(&recs[i], &got[i]) {
					t.Fatalf("%s: record %d mutated in round trip:\n got %+v\nwant %+v", shape, i, got[i], recs[i])
				}
			}
			study := StudyFilterSpec(telemetry.LatencyMean)
			b := stats.NewBinner(0, 300, 6)
			for _, spec := range []*telemetry.FilterSpec{nil, &study} {
				want, err := DoseResponseN(recs, telemetry.LatencyMean, telemetry.Presence, b, specFilter(spec), 3)
				if err != nil {
					t.Fatal(err)
				}
				gotS, ok, err := DoseResponseCols(snap, telemetry.LatencyMean, telemetry.Presence, b, spec, 3)
				if err != nil || !ok {
					t.Fatalf("%s: columnar dose-response: ok=%v err=%v", shape, ok, err)
				}
				if fmt.Sprintf("%+v", gotS) != fmt.Sprintf("%+v", want) {
					t.Fatalf("%s: dose-response diverges from row path", shape)
				}
			}
		}
		check("open")
		cols.SealTail()
		check("sealed")
	})
}
