package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"usersignals/internal/stats"
)

// The medians and percentiles are stats.Quantile's: linear interpolation
// between order statistics. The benchmark's figures depend on that rule.
func TestPercentileRule(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ q, want float64 }{{0.5, 25}, {0.25, 17.5}, {0.99, 39.7}} {
		if got := stats.Quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	// 1..100: the highest value with ten beyond it is 90, the 90th percentile.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v := tail(xs); v != 90 {
		t.Errorf("tail(1..100) = %v, want 90 (p90)", v)
	}
	if xs[0] != 100 {
		t.Error("tail sorted its argument in place")
	}
	// 1000 samples support p99.
	xs = make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v := tail(xs); v != 990 {
		t.Errorf("tail(1..1000) = %v, want 990 (p99)", v)
	}
	// Eleven samples: exactly one point has ten beyond it, the minimum.
	if v := tail([]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11}); v != 1 {
		t.Errorf("tail of 11 samples = %v, want the minimum", v)
	}
	// Ten or fewer support no tail: fall back to the median.
	if v := tail([]float64{1, 2, 3, 4, 100}); v != 3 {
		t.Errorf("tail of 5 samples = %v, want the median 3", v)
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 3, Name: "b.child", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the root: 50 of 100.
	want := map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer()
	tr.off = true
	ran := false
	tr.do("r", "x", 0, func() { ran = true })
	if !ran || len(tr.spans) != 0 {
		t.Errorf("ran=%v spans=%d, want the call made and no span", ran, len(tr.spans))
	}
	tr.off = false
	root := tr.begin("r", "root", 0)
	tr.do("r", "child", root, func() {})
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("unexpected spans %+v", tr.spans)
	}
}

func TestDiskBytesPerUserByte(t *testing.T) {
	if got := diskBytesPerUserByte(1500, 1000); got != 1.5 {
		t.Errorf("got %v, want 1.5", got)
	}
	if !math.IsNaN(diskBytesPerUserByte(1500, 0)) {
		t.Error("no user bytes should give NaN, not a division by zero")
	}
}

func TestCompareFlagsOnlyBeyondBound(t *testing.T) {
	res := func(batches, ack float64) []*result {
		return []*result{{Workload: "ingest_small", EndToEnd: map[string]sample{
			"ingest_batches_per_s": {Value: batches, Unit: "1/s"},
			"ingest_ack_p50_ms":    {Value: ack, Unit: "ms"},
		}}}
	}
	bound := map[string]float64{}
	for _, m := range endToEnd {
		bound[m.Name] = m.Bound
	}
	// Throughput down by more than its bound, latency up by less than its.
	drop := bound["ingest_batches_per_s"] + 0.05
	rise := bound["ingest_ack_p50_ms"] - 0.05
	rows := compareResults(res(1000, 1), res(1000*(1-drop), 1+rise))
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		switch r.Metric {
		case "ingest_batches_per_s":
			if !r.Beyond || math.Abs(r.Worse-drop) > 1e-9 {
				t.Errorf("throughput row %+v: want worse by %v and flagged", r, drop)
			}
		case "ingest_ack_p50_ms":
			if r.Beyond || math.Abs(r.Worse-rise) > 1e-9 {
				t.Errorf("latency row %+v: want worse by %v and not flagged", r, rise)
			}
		}
	}
	// Several runs a side: medians are compared, and the base's spread is
	// reported.
	var base, next []*result
	for _, v := range []float64{900, 1000, 1100, 1200, 5000} {
		base = append(base, res(v, 1)...)
		next = append(next, res(v*0.97, 1)...)
	}
	rows = compareResults(base, next)
	if r := rows[0]; r.Base != 1100 || math.Abs(r.Worse-0.03) > 1e-9 || math.Abs(r.Spread-200.0/1100) > 1e-9 || r.Beyond {
		t.Errorf("five runs a side: %+v, want base 1100, worse by 0.03, spread 200/1100", r)
	}
	// An improvement is never flagged, however large.
	for _, r := range compareResults(res(1000, 1), res(5000, 0.1)) {
		if r.Beyond || r.Worse >= 0 {
			t.Errorf("improvement flagged: %+v", r)
		}
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	write := func(name string, ack float64) string {
		doc := document{Results: []*result{{Workload: "backfill", EndToEnd: map[string]sample{
			"ingest_ack_p50_ms": {Value: ack, Unit: "ms"},
		}}}}
		buf, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/" + name
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 1), write("b.json", 1.01), write("c.json", 2)
	var out bytes.Buffer
	if err := compareFiles(&out, []string{a + "," + same, same}); err != nil {
		t.Errorf("within bound: %v", err)
	}
	if err := compareFiles(&out, []string{a, slow}); err == nil {
		t.Error("a doubled latency passed the comparison")
	}
	if !strings.Contains(out.String(), "BEYOND BOUND") {
		t.Errorf("no flag in output:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesProgram keeps the contract file at the root and
// the tables in metrics.go and workloads.go from drifting apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(plans) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d plans", len(b.Workloads), len(plans))
	}
	for i, p := range plans {
		if b.Workloads[i].Name != p.Name || b.Workloads[i].Why != p.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, b.Workloads[i].Name, p.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if g := b.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, g, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if g := b.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, g, m)
		}
	}
}

func TestPlansOfferEveryPhase(t *testing.T) {
	for _, p := range plans {
		for _, seconds := range []float64{0.05, 10} {
			s := p.scaled(seconds)
			if s.SmallBatches < 20 || s.BulkRepeats < 1 || s.Cycles < 2 || s.SmallClients < 1 {
				t.Errorf("%s at %gs skips a phase: %+v", p.Name, seconds, s)
			}
		}
	}
	if _, ok := planByName("no_such_workload"); ok {
		t.Error("planByName accepted an unknown workload")
	}
}

// TestSmoke drives every workload, traced, against the real daemon for a
// fraction of a second each: all phases, all output checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs usaasd")
	}
	if err := runSmoke(context.Background()); err != nil {
		t.Fatal(err)
	}
}
