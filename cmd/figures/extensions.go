package main

// The §6 extension experiments: confounder quantification, the engagement
// incident monitor vs the survey strawman, and longitudinal conditioning.

import (
	"fmt"
	"sort"
	"strconv"

	"usersignals/internal/conference"
	"usersignals/internal/netsim"
	"usersignals/internal/telemetry"
	"usersignals/internal/textplot"
	"usersignals/internal/timeline"
	"usersignals/internal/usaas"
)

func runConfounders(c *runCtx) (string, error) {
	opts := conference.Defaults(901, c.size(3000))
	g, err := conference.New(opts)
	if err != nil {
		return "", err
	}
	recs, err := g.GenerateAll()
	if err != nil {
		return "", err
	}
	var rows [][]string
	var summary []string
	for _, eng := range telemetry.Engagements() {
		effects, err := usaas.ConfounderReport(recs, eng)
		if err != nil {
			return "", err
		}
		for _, e := range effects {
			levels := make([]string, 0, len(e.Levels))
			for level := range e.Levels {
				levels = append(levels, level)
			}
			sort.Strings(levels)
			for _, level := range levels {
				rows = append(rows, []string{eng.String(), e.Confounder, level, f2s(e.Levels[level])})
			}
			summary = append(summary, fmt.Sprintf("%s/%s spread %.0f%%", eng, e.Confounder, 100*e.Spread))
		}
	}
	if err := c.writeCSV("ext-confounders.csv",
		[]string{"engagement", "confounder", "level", "mean_engagement_pct"}, rows); err != nil {
		return "", err
	}
	return joinStrings(summary, "; "), nil
}

func runIncident(c *runCtx) (string, error) {
	truth := timeline.Range{
		From: timeline.Date(2022, 2, 7),
		To:   timeline.Date(2022, 2, 13),
	}
	opts := conference.Defaults(404, c.size(2600))
	opts.Window = timeline.Range{From: timeline.Date(2022, 1, 10), To: timeline.Date(2022, 3, 10)}
	bad := netsim.ControlBands()
	bad.LatencyMs = [2]float64{220, 320}
	bad.LossPct = [2]float64{2, 4}
	opts.DegradedWindow = truth
	opts.DegradedPaths = &bad
	g, err := conference.New(opts)
	if err != nil {
		return "", err
	}
	recs, err := g.GenerateAll()
	if err != nil {
		return "", err
	}
	days := usaas.DailyEngagement(recs, nil)
	var rows [][]string
	xs := make([]float64, len(days))
	ys := make([]float64, len(days))
	for i, d := range days {
		xs[i] = float64(d.Day)
		ys[i] = d.Presence
		rows = append(rows, []string{d.Day.String(), strconv.Itoa(d.Sessions),
			f2s(d.Presence), strconv.Itoa(d.Ratings)})
	}
	if err := c.writeCSV("ext-incident-daily.csv",
		[]string{"day", "sessions", "mean_presence", "ratings"}, rows); err != nil {
		return "", err
	}
	fmt.Print(textplot.Chart{
		Title:  "Extension: daily mean Presence with an injected incident (Feb 7-13)",
		Series: []textplot.Series{{Name: "presence", X: xs, Y: ys}},
	}.Render())
	engIncidents := usaas.EngagementIncidents(days, telemetry.Presence, usaas.IncidentOptions{})
	mosIncidents := usaas.MOSIncidents(days, usaas.IncidentOptions{MinSessions: 1})
	engRecall, engFalse := usaas.IncidentRecall(engIncidents, truth)
	mosRecall, _ := usaas.IncidentRecall(mosIncidents, truth)
	return fmt.Sprintf("engagement monitor recall %.0f%% (%d false days); survey monitor recall %.0f%%",
		100*engRecall, engFalse, 100*mosRecall), nil
}

func runLongitudinal(c *runCtx) (string, error) {
	good := netsim.AccessProfile{Name: "good", LatencyMedianMs: 20, LatencySpread: 1.2,
		JitterMedianMs: 1.5, JitterSpread: 1.3, CapacityMedianMbps: 3.5, CapacitySpread: 1.1}
	awful := netsim.AccessProfile{Name: "awful", LatencyMedianMs: 260, LatencySpread: 1.15,
		JitterMedianMs: 4, JitterSpread: 1.3, CapacityMedianMbps: 3.5, CapacitySpread: 1.1,
		LossyProb: 1, LossScalePct: 1.2}
	opts := conference.Defaults(606, c.size(2500))
	opts.Paths = &netsim.Mixture{Profiles: []netsim.AccessProfile{good, awful}, Weights: []float64{0.5, 0.5}}
	opts.UserPool = 600
	opts.UserConditioningAlpha = 0.8
	opts.ConditioningWeight = 0.9
	g, err := conference.New(opts)
	if err != nil {
		return "", err
	}
	recs, err := g.GenerateAll()
	if err != nil {
		return "", err
	}
	lc := usaas.AnalyzeLongitudinalConditioning(recs)
	rows := [][]string{
		{"bad_after_bad", f2s(lc.PresenceBadAfterBad), strconv.Itoa(lc.NBadAfterBad)},
		{"bad_after_good", f2s(lc.PresenceBadAfterGood), strconv.Itoa(lc.NBadAfterGood)},
	}
	if err := c.writeCSV("ext-longitudinal.csv",
		[]string{"history", "mean_presence", "sessions"}, rows); err != nil {
		return "", err
	}
	fmt.Print(textplot.Bars{
		Title:  "Extension: presence in bad sessions by user history",
		Labels: []string{"after bad session", "after good session"},
		Values: []float64{lc.PresenceBadAfterBad, lc.PresenceBadAfterGood},
	}.Render())
	return fmt.Sprintf("conditioning effect +%.1f presence points (bad-after-bad %.1f vs bad-after-good %.1f)",
		lc.Effect(), lc.PresenceBadAfterBad, lc.PresenceBadAfterGood), nil
}

func joinStrings(ss []string, sep string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += sep
		}
		out += s
	}
	return out
}
