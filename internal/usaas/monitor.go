package usaas

import (
	"encoding/json"
	"math"

	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// This file turns §3.3's observation — "user engagement could be considered
// as early and more readily available indication of call quality" — into a
// monitoring system: daily engagement aggregates, an incident detector over
// them, and the survey-based strawman that shows *why* engagement is the
// better signal (at production survey rates there simply are not enough
// ratings per day to see an incident).

// DayEngagement is one day of aggregated engagement telemetry.
type DayEngagement struct {
	Day      timeline.Day
	Sessions int
	Presence float64 // mean presence %
	CamOn    float64
	MicOn    float64
	// Ratings and MOS summarize whatever explicit feedback the day has;
	// MOS is NaN when no session was surveyed.
	Ratings int
	MOS     float64
}

// dayEngagementWire is the JSON form: MOS is nullable because NaN (no
// ratings that day) has no JSON representation.
type dayEngagementWire struct {
	Day      timeline.Day `json:"day"`
	Sessions int          `json:"sessions"`
	Presence float64      `json:"presence"`
	CamOn    float64      `json:"cam_on"`
	MicOn    float64      `json:"mic_on"`
	Ratings  int          `json:"ratings"`
	MOS      *float64     `json:"mos,omitempty"`
}

// MarshalJSON encodes a missing MOS (NaN) as null.
func (d DayEngagement) MarshalJSON() ([]byte, error) {
	w := dayEngagementWire{
		Day: d.Day, Sessions: d.Sessions,
		Presence: d.Presence, CamOn: d.CamOn, MicOn: d.MicOn,
		Ratings: d.Ratings,
	}
	if !math.IsNaN(d.MOS) {
		mos := d.MOS
		w.MOS = &mos
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes null/absent MOS back to NaN.
func (d *DayEngagement) UnmarshalJSON(data []byte) error {
	var w dayEngagementWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*d = DayEngagement{
		Day: w.Day, Sessions: w.Sessions,
		Presence: w.Presence, CamOn: w.CamOn, MicOn: w.MicOn,
		Ratings: w.Ratings, MOS: math.NaN(),
	}
	if w.MOS != nil {
		d.MOS = *w.MOS
	}
	return nil
}

// Of reads one engagement metric from the aggregate.
func (d DayEngagement) Of(eng telemetry.Engagement) float64 {
	switch eng {
	case telemetry.Presence:
		return d.Presence
	case telemetry.CamOn:
		return d.CamOn
	case telemetry.MicOn:
		return d.MicOn
	default:
		return math.NaN()
	}
}

// dayAcc accumulates one calendar day's engagement telemetry. It is also
// the unit of the store's incrementally maintained daily view (views.go).
type dayAcc struct {
	pres, cam, mic stats.Online
	ratings        []int
}

// add folds one session into the day.
func (a *dayAcc) add(r *telemetry.SessionRecord) {
	a.pres.Add(r.PresencePct)
	a.cam.Add(r.CamOnPct)
	a.mic.Add(r.MicOnPct)
	if r.Rated {
		a.ratings = append(a.ratings, r.Rating)
	}
}

// dayEngagementFrom snapshots the given days' accumulators, in the order
// given. Read-only on the accumulators.
func dayEngagementFrom(byDay map[timeline.Day]*dayAcc, days []timeline.Day) []DayEngagement {
	out := make([]DayEngagement, 0, len(days))
	for _, d := range days {
		a := byDay[d]
		de := DayEngagement{
			Day:      d,
			Sessions: a.pres.N(),
			Presence: a.pres.Mean(),
			CamOn:    a.cam.Mean(),
			MicOn:    a.mic.Mean(),
			Ratings:  len(a.ratings),
			MOS:      math.NaN(),
		}
		if mos, ok := telemetry.MOS(a.ratings); ok {
			de.MOS = mos
		}
		out = append(out, de)
	}
	return out
}

// DailyEngagement aggregates sessions by calendar day (UTC), sorted.
// Days without sessions are absent.
func DailyEngagement(records []telemetry.SessionRecord, filter telemetry.Filter) []DayEngagement {
	byDay := map[timeline.Day]*dayAcc{}
	for i := range records {
		r := &records[i]
		if filter != nil && !filter(r) {
			continue
		}
		d := timeline.DayOf(r.Start)
		a := byDay[d]
		if a == nil {
			a = &dayAcc{}
			byDay[d] = a
		}
		a.add(r)
	}
	return dayEngagementFrom(byDay, changedDays(byDay, nil, 0))
}

// Incident is a detected span of degraded experience.
type Incident struct {
	Start, End timeline.Day
	// Drop is the worst relative drop versus the trailing baseline.
	Drop float64
}

// Contains reports whether the day falls inside the incident.
func (in Incident) Contains(d timeline.Day) bool { return d >= in.Start && d <= in.End }

// IncidentOptions tunes DetectIncidents.
type IncidentOptions struct {
	// Baseline is the trailing window length in days (default 14).
	Baseline int
	// MinDrop is the minimum relative drop versus the baseline median to
	// flag a day (default 0.08).
	MinDrop float64
	// MinSessions skips days with fewer sessions (default 10).
	MinSessions int
}

func (o IncidentOptions) withDefaults() IncidentOptions {
	if o.Baseline <= 0 {
		o.Baseline = 14
	}
	if o.MinDrop <= 0 {
		o.MinDrop = 0.08
	}
	if o.MinSessions <= 0 {
		o.MinSessions = 10
	}
	return o
}

// DetectIncidents flags days whose value (per the extract function) falls
// MinDrop below the trailing-baseline median, merging consecutive flagged
// days into incidents. Baseline days that were themselves flagged are
// excluded from subsequent baselines so long incidents don't poison their
// own reference.
func DetectIncidents(days []DayEngagement, extract func(DayEngagement) float64, opts IncidentOptions) []Incident {
	opts = opts.withDefaults()
	flagged := make([]bool, len(days))
	drops := make([]float64, len(days))
	for i := range days {
		if days[i].Sessions < opts.MinSessions {
			continue
		}
		v := extract(days[i])
		if math.IsNaN(v) {
			continue
		}
		var base []float64
		for j := i - 1; j >= 0 && len(base) < opts.Baseline; j-- {
			if flagged[j] || days[j].Sessions < opts.MinSessions {
				continue
			}
			bv := extract(days[j])
			if !math.IsNaN(bv) {
				base = append(base, bv)
			}
		}
		if len(base) < 5 {
			continue
		}
		med := stats.Median(base)
		if med <= 0 {
			continue
		}
		drop := (med - v) / med
		if drop >= opts.MinDrop {
			flagged[i] = true
			drops[i] = drop
		}
	}
	// Merge runs of flagged days (allowing single-day gaps, since a noisy
	// mid-incident day shouldn't split one incident into two).
	var out []Incident
	i := 0
	for i < len(days) {
		if !flagged[i] {
			i++
			continue
		}
		j := i
		worst := drops[i]
		for j+1 < len(days) {
			next := j + 1
			if flagged[next] {
				j = next
				if drops[next] > worst {
					worst = drops[next]
				}
				continue
			}
			if next+1 < len(days) && flagged[next+1] && days[next+1].Day-days[j].Day <= 2 {
				j = next + 1
				if drops[j] > worst {
					worst = drops[j]
				}
				continue
			}
			break
		}
		out = append(out, Incident{Start: days[i].Day, End: days[j].Day, Drop: worst})
		i = j + 1
	}
	return out
}

// EngagementIncidents runs the detector on one engagement metric.
func EngagementIncidents(days []DayEngagement, eng telemetry.Engagement, opts IncidentOptions) []Incident {
	return DetectIncidents(days, func(d DayEngagement) float64 { return d.Of(eng) }, opts)
}

// MOSIncidents runs the same detector on daily mean MOS — the survey-only
// strawman. At realistic survey rates most days have no ratings at all, so
// this monitor is structurally blind; the comparison quantifies the
// paper's coverage argument.
func MOSIncidents(days []DayEngagement, opts IncidentOptions) []Incident {
	return DetectIncidents(days, func(d DayEngagement) float64 {
		if d.Ratings == 0 {
			return math.NaN()
		}
		return d.MOS
	}, opts)
}

// IncidentRecall reports the fraction of truth days covered by detected
// incidents, and the number of detected days outside the truth window
// (false-positive days).
func IncidentRecall(incidents []Incident, truth timeline.Range) (recall float64, falseDays int) {
	if truth.Len() <= 0 {
		return math.NaN(), 0
	}
	covered := 0
	truth.Days(func(d timeline.Day) {
		for _, in := range incidents {
			if in.Contains(d) {
				covered++
				return
			}
		}
	})
	for _, in := range incidents {
		for d := in.Start; d <= in.End; d++ {
			if !truth.Contains(d) {
				falseDays++
			}
		}
	}
	return float64(covered) / float64(truth.Len()), falseDays
}
