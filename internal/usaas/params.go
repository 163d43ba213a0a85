package usaas

import (
	"cmp"
	"fmt"
	"math"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// This file is the read surface's one parameter table. Every query parameter
// a read plan (read.go) or a /v1/partials section (partials.go) reads is one
// row of readParams: name, kind, the value an absent or empty parameter
// takes, and for a number the inclusive range it must lie in (NaN and the
// infinities lie outside every range). Plans and sections name the rows they
// read and parseParams reads them, so a node, a coordinator (before it asks
// any shard) and a shard refuse the same values with the same 400.

// paramKind is what a parameter's value spells.
type paramKind int

const (
	intParam        paramKind = iota // a decimal integer within the row's range
	numberParam                      // a decimal number within the row's range
	textParam                        // any text
	metricParam                      // a telemetry.Metric name
	engagementParam                  // a telemetry.Engagement name
)

// readParam is one row of the parameter table.
type readParam struct {
	name     string
	kind     paramKind
	def      string                 // the value of an absent or empty parameter, spelt as in a query
	min, max float64                // the inclusive range of an int or a number
	rule     func(a readArgs) error // checks the value against a row every list names before this one
}

const (
	maxBins                               = 1000     // each bin costs accumulators and series
	maxDeploymentExtra, maxDeploymentDays = 64, 3660 // the deployment advice costs launches² × days
	maxDay                                = 36525    // a century either side of the timeline's 2021 epoch
)

// readParams is the parameter table.
var readParams = []readParam{
	{name: "metric", kind: metricParam},
	{name: "engagement", kind: engagementParam},
	{name: "lo", kind: numberParam, def: "0", min: -math.MaxFloat64, max: math.MaxFloat64},
	{name: "hi", kind: numberParam, def: "300", min: -math.MaxFloat64, max: math.MaxFloat64, rule: func(a readArgs) error {
		lo, hi := arg[float64](a, "lo"), arg[float64](a, "hi")
		if hi <= lo || math.IsInf(hi-lo, 0) {
			return fmt.Errorf("%v is not above lo=%v by a finite span", hi, lo)
		}
		return nil
	}},
	{name: "bins", kind: intParam, def: "10", min: 1, max: maxBins},
	{name: "isp", kind: textParam},
	{name: "k", kind: intParam, def: "3", min: 1, max: 50},
	{name: "threshold", kind: intParam, def: "0", min: 0, max: 1e6},
	{name: "min_drop", kind: numberParam, def: "0.08", min: 0, max: 1},
	{name: "from", kind: intParam, def: strconv.Itoa(int(timeline.Date(2022, time.June, 1))), min: -maxDay, max: maxDay},
	{name: "horizon", kind: intParam, def: strconv.Itoa(int(timeline.Date(2022, time.December, 1))), min: -maxDay, max: maxDay, rule: func(a readArgs) error {
		if days := arg[int](a, "horizon") - arg[int](a, "from"); days <= 0 || days > maxDeploymentDays {
			return fmt.Errorf("%d days after from, want 1 to %d", days, maxDeploymentDays)
		}
		return nil
	}},
	{name: "max", kind: intParam, def: "8", min: 0, max: maxDeploymentExtra},
	{name: "sats", kind: intParam, def: "50", min: 1, max: 1000},
	{name: "target", kind: numberParam, def: "0", min: 0, max: 1},
	{name: "format", kind: textParam},
}

// The lists of rows more than one plan, section or client call reads.
var (
	doseParams       = []string{"metric!", "engagement!", "lo", "hi", "bins", "isp"}
	engagementParams = []string{"engagement!"}
	ispParams        = []string{"isp!"}
	deploymentParams = []string{"from", "horizon", "max", "sats", "target"}
)

// paramOf is the row of a use: a row's name, suffixed "!" where an absent
// or empty value is refused instead of defaulted.
func paramOf(use string) (p *readParam, required bool) {
	name, required := strings.CutSuffix(use, "!")
	return &readParams[slices.IndexFunc(readParams, func(p readParam) bool { return p.name == name })], required
}

// readArgs are the values of the rows a plan or section reads, by name: an
// int, a float64, a string, a telemetry.Metric or a telemetry.Engagement,
// by the row's kind.
type readArgs map[string]any

// arg is a's value of the named row.
func arg[T any](a readArgs, name string) T { return a[name].(T) }

// parseParams reads the rows uses names from q, in order, checking each
// row's rule once the row is read. The first error names its parameter; it
// is what a plan or a shard answers 400 with.
func parseParams(q url.Values, uses []string) (readArgs, error) {
	a := make(readArgs, len(uses))
	var err error
	for _, use := range uses {
		p, required := paramOf(use)
		if q.Get(p.name) == "" && required {
			return nil, fmt.Errorf("query parameter %q required", p.name)
		}
		if a[p.name], err = p.parse(cmp.Or(q.Get(p.name), p.def)); err == nil && p.rule != nil {
			err = p.rule(a)
		}
		if err != nil {
			return nil, fmt.Errorf("query parameter %q: %w", p.name, err)
		}
	}
	return a, nil
}

// parse reads one value of the row's kind.
func (p *readParam) parse(v string) (any, error) {
	switch p.kind {
	case metricParam:
		return telemetry.ParseMetric(v)
	case engagementParam:
		return telemetry.ParseEngagement(v)
	case textParam:
		return v, nil
	case intParam:
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("invalid integer %q", v)
		}
		return n, p.within(float64(n))
	}
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return nil, fmt.Errorf("invalid number %q", v)
	}
	return x, p.within(x)
}

// within refuses x outside the row's range.
func (p *readParam) within(x float64) error {
	if x >= p.min && x <= p.max {
		return nil
	}
	return fmt.Errorf("%v is not within %v to %v", x, p.min, p.max)
}

// query is the canonical encoding of a's values of the rows uses names:
// each spelt so that its row parses it back exactly, an empty text left
// out. A plan's sections carry it, so the query a coordinator sends a shard,
// and the key it holds the answer under, depend only on the values.
func (a readArgs) query(uses []string) url.Values {
	q := url.Values{}
	for _, use := range uses {
		p, _ := paramOf(use)
		if v, ok := a[p.name]; ok && v != "" {
			q.Set(p.name, fmt.Sprint(v))
		}
	}
	return q
}
