package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"usersignals/internal/stats"
)

// comparison is one (metric, workload) row of -compare.
type comparison struct {
	Metric   string
	Workload string
	Base     float64 // median over the first set of runs
	Value    float64 // median over the second set
	Spread   float64 // the first set's interquartile distance as a share of Base; 0 for fewer than 4 runs
	Worse    float64 // share of Base by which Value is worse; negative when better
	Bound    float64
	Beyond   bool // Worse > Bound
}

// worseBy is the share of base by which value is worse, given which
// direction is better.
func worseBy(base, value float64, better string) float64 {
	if better == "higher" {
		return (base - value) / base
	}
	return (value - base) / base
}

// valuesOf collects, per workload, the values of one end-to-end metric
// over a set of runs, keeping the workloads in first-seen order.
func valuesOf(runs []*result, metric string) (order []string, values map[string][]float64) {
	values = map[string][]float64{}
	for _, r := range runs {
		v, ok := r.EndToEnd[metric]
		if !ok {
			continue
		}
		if _, seen := values[r.Workload]; !seen {
			order = append(order, r.Workload)
		}
		values[r.Workload] = append(values[r.Workload], v.Value)
	}
	return order, values
}

// compareResults pairs the end-to-end metrics of two sets of runs, one row
// per metric and workload present in both, in table order. Each side is
// summarised by its median.
func compareResults(base, next []*result) []comparison {
	var rows []comparison
	for _, m := range endToEnd {
		order, bvals := valuesOf(base, m.Name)
		_, nvals := valuesOf(next, m.Name)
		for _, w := range order {
			bv, nv := stats.Median(bvals[w]), stats.Median(nvals[w])
			if len(nvals[w]) == 0 || bv == 0 {
				continue
			}
			row := comparison{Metric: m.Name, Workload: w, Base: bv, Value: nv, Worse: worseBy(bv, nv, m.Better), Bound: m.Bound}
			if len(bvals[w]) >= 4 {
				row.Spread = (stats.Quantile(bvals[w], 0.75) - stats.Quantile(bvals[w], 0.25)) / bv
			}
			row.Beyond = row.Worse > row.Bound
			rows = append(rows, row)
		}
	}
	return rows
}

// readRuns reads a comma-separated list of -out documents as one set of
// runs.
func readRuns(paths string) ([]*result, error) {
	var runs []*result
	for _, path := range strings.Split(paths, ",") {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var doc document
		if err := json.Unmarshal(buf, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, doc.Results...)
	}
	return runs, nil
}

// compareFiles prints the comparison of two sets of -out documents (each a
// comma-separated list; medians are compared) and fails when any row is
// beyond its bound. A row whose base runs spread wider than the bound is
// marked unresolved: the comparison cannot tell a change from noise there.
func compareFiles(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("-compare takes two sets of result files: base.json[,base2.json...] next.json[,next2.json...]")
	}
	base, err := readRuns(args[0])
	if err != nil {
		return err
	}
	next, err := readRuns(args[1])
	if err != nil {
		return err
	}
	rows := compareResults(base, next)
	if len(rows) == 0 {
		return errors.New("the two sets share no (metric, workload) pair")
	}
	fmt.Fprintf(w, "%-26s %-15s %14s %14s %8s %8s %7s %6s\n", "metric", "workload", "base", "value", "ratio", "worse", "spread", "bound")
	beyond := 0
	for _, r := range rows {
		flag := ""
		switch {
		case r.Beyond:
			flag = "  BEYOND BOUND"
			beyond++
		case r.Spread > r.Bound:
			flag = "  unresolved"
		}
		fmt.Fprintf(w, "%-26s %-15s %14.4f %14.4f %8.3f %+7.1f%% %6.1f%% %5.0f%%%s\n",
			r.Metric, r.Workload, r.Base, r.Value, r.Value/r.Base, 100*r.Worse, 100*r.Spread, 100*r.Bound, flag)
	}
	if beyond > 0 {
		return fmt.Errorf("%d of %d (metric, workload) pairs are worse than their bound", beyond, len(rows))
	}
	return nil
}
