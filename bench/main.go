// Command bench is the repository's benchmark: it builds usaasd from the
// tree, drives the real daemon over loopback HTTP through four workloads,
// checks every answer, and reports ten end-to-end metrics plus a per-layer
// table (see README.md in this directory and BENCHMARK.json at the root).
//
//	go run -C bench . -seed 42 -out results.json     every workload, both tables
//	go run -C bench . --workload backfill --seed 7 --seconds 10 --trace 0
//	go run -C bench . -compare a.json b.json
//	go run -C bench . -smoke
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

const defaultSeed = 42

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print one JSON result line (the driver's mode); empty runs all four")
		seed     = flag.Uint64("seed", defaultSeed, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 10, "seconds of measured work per workload on the reference box; scales the fixed work")
		trace    = flag.Int("trace", 0, "1 adds the in-process traced replay: per-layer metrics and trace.json")
		out      = flag.String("out", "", "write the full result document here (all-workloads mode)")
		compare  = flag.Bool("compare", false, "compare two result documents: bench -compare a.json b.json")
		smoke    = flag.Bool("smoke", false, "every workload for a fraction of a second, checks on, numbers discarded")
	)
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var err error
	switch {
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case *smoke:
		err = runSmoke(ctx)
	case *workload != "":
		err = runOne(ctx, *workload, *seed, *seconds, *trace != 0)
	default:
		err = runAll(ctx, *seed, *seconds, *trace != 0, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// setupsPerRun is how many times an untraced run sets up; setup_s is the
// median. The traced run sets up once: its end-to-end numbers are not
// reported.
const setupsPerRun = 3

// result is one workload's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted_ops"`
	Failed    int               `json:"failed_ops"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]sample `json:"end_to_end"`
	PerLayer  map[string]sample `json:"per_layer,omitempty"`
}

// measure runs one workload. Untraced, it yields the end-to-end metrics;
// traced, it also replays the inputs in-process and yields the per-layer
// table. A run with failed operations still returns its result, with err
// set, so that the caller can print what failed.
func measure(ctx context.Context, h *harness, p plan, seed uint64, size inputSize, seconds float64, traced bool) (*result, error) {
	r := &run{h: h, plan: p.scaled(seconds), seconds: seconds, seed: seed, size: size, ops: &opCounter{}}
	res := &result{Workload: p.Name, Seed: seed, Seconds: seconds}
	err := r.measure(ctx, traced, res)
	if r.topo != nil {
		r.tearDown()
	}
	res.Attempted, res.Failed, res.Failures = r.ops.attempted, r.ops.failed, r.ops.failures
	switch {
	case err != nil:
		return res, err
	case res.Failed > 0:
		return res, fmt.Errorf("%d of %d operations failed: %s", res.Failed, res.Attempted, strings.Join(res.Failures, "; "))
	}
	if missing := missingMetrics(res, traced); len(missing) > 0 {
		return res, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return res, nil
}

// measure fills res with the run's metrics.
func (r *run) measure(ctx context.Context, traced bool, res *result) error {
	setups := setupsPerRun
	if traced {
		setups = 1
	}
	err := r.execute(ctx, setups)
	res.EndToEnd = r.e2e
	if err != nil || !traced {
		return err
	}
	res.PerLayer = r.scrape
	spans, err := r.traceLayers(ctx, res.PerLayer)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	return writeTrace(r.h, r.plan.Name, spans)
}

// missingMetrics lists the metrics of BENCHMARK.json that res lacks.
func missingMetrics(res *result, traced bool) []string {
	var missing []string
	for _, m := range endToEnd {
		if _, ok := res.EndToEnd[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	if traced {
		for _, m := range perLayer {
			if _, ok := res.PerLayer[m.Name]; !ok {
				missing = append(missing, m.Name)
			}
		}
	}
	return missing
}

// driverLine is the contract's last line of standard output.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]sample `json:"metrics"`
}

// runOne is the driver's mode: one workload, one JSON line. It exits
// non-zero without a result line when anything failed.
func runOne(ctx context.Context, name string, seed uint64, seconds float64, traced bool) error {
	p, ok := planByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	h, err := newHarness(ctx)
	if err != nil {
		return err
	}
	defer h.Close()
	res, err := measure(ctx, h, p, seed, fullSize, seconds, traced)
	if err != nil {
		return err
	}
	metrics := res.EndToEnd
	if traced {
		metrics = res.PerLayer
	}
	line := driverLine{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]sample{}}
	for name, s := range metrics {
		s.N = 0 // the driver's schema has value and unit only
		line.Metrics[name] = s
	}
	return json.NewEncoder(os.Stdout).Encode(line)
}

// document is what -out writes and -compare reads.
type document struct {
	Environment environment `json:"environment"`
	Seed        uint64      `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Results     []*result   `json:"results"`
}

// runAll runs every workload and prints both tables.
func runAll(ctx context.Context, seed uint64, seconds float64, traced bool, out string) error {
	h, err := newHarness(ctx)
	if err != nil {
		return err
	}
	defer h.Close()
	doc := document{Environment: describeEnvironment(h), Seed: seed, Seconds: seconds}
	var failed []string
	for _, p := range plans {
		fmt.Printf("== %s (seed %d, %g s)\n", p.Name, seed, seconds)
		res, err := measure(ctx, h, p, seed, fullSize, seconds, false)
		if err == nil && traced {
			var tres *result
			if tres, err = measure(ctx, h, p, seed, fullSize, seconds, true); tres != nil {
				res.PerLayer = tres.PerLayer
			}
		}
		if res != nil {
			printResult(res)
			doc.Results = append(doc.Results, res)
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fmt.Printf("FAILED: %v\n", err)
			failed = append(failed, p.Name)
		}
	}
	if out != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("results written to %s\n", out)
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

func printResult(res *result) {
	fmt.Printf("  operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, m := range endToEnd {
		if s, ok := res.EndToEnd[m.Name]; ok {
			fmt.Printf("  %-34s %14.4f %-6s n=%d\n", m.Name, s.Value, s.Unit, s.N)
		}
	}
	if len(res.PerLayer) == 0 {
		return
	}
	fmt.Println("  -- per layer")
	for _, m := range perLayer {
		if s, ok := res.PerLayer[m.Name]; ok {
			fmt.Printf("  %-46s %14.4f %-6s n=%d\n", m.Name, s.Value, s.Unit, s.N)
		}
	}
}

// runSmoke runs every workload, traced, on small inputs and half a second
// of work: it exercises every phase and every output check and throws the
// numbers away.
func runSmoke(ctx context.Context) error {
	h, err := newHarness(ctx)
	if err != nil {
		return err
	}
	defer h.Close()
	var errs []error
	for _, p := range plans {
		t0 := time.Now()
		if _, err := measure(ctx, h, p, defaultSeed, smokeSize, 0.5, true); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.Name, err))
			continue
		}
		fmt.Printf("smoke: %s passed in %.1fs\n", p.Name, time.Since(t0).Seconds())
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	fmt.Println("smoke: all workloads and checks passed")
	return nil
}
