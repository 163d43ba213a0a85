package usaas

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"usersignals/internal/timeline"
)

// nonFiniteDoseBounds are dose binnings strconv parses but no binning can
// use, each with the parameter its refusal must name.
var nonFiniteDoseBounds = [][2]string{
	{"lo=NaN", "lo"},
	{"hi=NaN", "hi"},
	{"lo=-Inf&hi=Inf", "lo"},
	{"lo=0&hi=Inf", "hi"},
	{"lo=-1e308&hi=1e308", "hi"},
}

// TestMalformedQueryParamsRejected: a malformed numeric query parameter
// must answer 400 naming the offending key, never silently fall back to
// the default. Absent and empty parameters still default.
func TestMalformedQueryParamsRejected(t *testing.T) {
	store := &Store{}
	ts := httptest.NewServer(NewServer(store, ServerOptions{ResultCacheSize: -1}).Handler())
	defer ts.Close()

	cases := []struct {
		path string
		key  string // must be named in the error body
	}{
		{"/v1/insights/incidents?engagement=presence&min_drop=xyz", "min_drop"},
		{"/v1/insights/engagement?metric=latency-mean-ms&engagement=presence&bins=abc", "bins"},
		{"/v1/insights/engagement?metric=latency-mean-ms&engagement=presence&lo=1..5", "lo"},
		{"/v1/insights/engagement?metric=latency-mean-ms&engagement=presence&hi=fast", "hi"},
		{"/v1/insights/mos?bins=many", "bins"},
		{"/v1/insights/peaks?k=abc", "k"},
		{"/v1/insights/outages?threshold=low", "threshold"},
		{"/v1/advice/deployment?horizon=soon", "horizon"},
		{"/v1/advice/deployment?sats=1e", "sats"},
		{"/v1/advice/deployment?max=none", "max"},
		// In range for the parser, out of range for the endpoint: each would
		// allocate or compute in proportion to the value.
		{"/v1/insights/mos?bins=0", "bins"},
		{"/v1/insights/mos?bins=-3", "bins"},
		{"/v1/insights/mos?bins=1001", "bins"},
		{"/v1/advice/deployment?max=65", "max"},
		{fmt.Sprintf("/v1/advice/deployment?horizon=%d", timeline.Date(2022, time.June, 1)+maxDeploymentDays+1), "horizon"},
		{fmt.Sprintf("/v1/advice/deployment?from=100&horizon=%d", 100+maxDeploymentDays+1), "horizon"},
	}
	// Parseable but not finite dose bounds, on the node's endpoint and on a
	// shard's /v1/partials dose section (one parse serves both).
	for _, bounds := range nonFiniteDoseBounds {
		for _, path := range []string{"/v1/insights/engagement?", "/v1/partials?sections=dose&"} {
			cases = append(cases, struct {
				path string
				key  string
			}{path + "metric=latency-mean-ms&engagement=presence&" + bounds[0], bounds[1]})
		}
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			resp, err := ts.Client().Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body: %s", resp.StatusCode, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("non-JSON error body %q: %v", body, err)
			}
			if !strings.Contains(e.Error, `"`+tc.key+`"`) {
				t.Fatalf("error %q does not name parameter %q", e.Error, tc.key)
			}
		})
	}

	// A refused dose query registers no view.
	store.sessMu.RLock()
	views := len(store.views.eng)
	store.sessMu.RUnlock()
	if views != 0 {
		t.Fatalf("refused queries registered %d dose views", views)
	}

	// Absent or empty parameters keep defaulting: these must not 400.
	for _, path := range []string{
		"/v1/insights/engagement?metric=latency-mean-ms&engagement=presence",
		"/v1/insights/engagement?metric=latency-mean-ms&engagement=presence&bins=",
		"/v1/insights/peaks?k=5",
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusBadRequest {
			t.Fatalf("%s answered 400; defaults must still apply", path)
		}
	}
}

// TestUnencodableAnswerIs500: an answer JSON cannot carry (here a NaN that
// a record fed through the Go API puts in a day's mean) is a 500 naming the
// encoding failure — never a 200 with an empty body, and never cached —
// while every answer that encodes keeps json.Encoder's bytes.
func TestUnencodableAnswerIs500(t *testing.T) {
	recs, _ := crashDataset(t, 5)
	recs[3].PresencePct = math.NaN()
	store := &Store{}
	if _, _, err := store.AddSessionsBatch("nan", recs); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store, ServerOptions{}).Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/insights/incidents?engagement=presence", "/v1/partials?sections=daily", "/v1/report"} {
		for try := 0; try < 2; try++ { // the second ask would hit a stored answer
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var e apiError
			if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(body, &e) != nil ||
				!strings.Contains(e.Error, "encoding the answer") || !strings.Contains(e.Error, "NaN") {
				t.Fatalf("%s (ask %d): %d %q, want a 500 naming the NaN", path, try+1, resp.StatusCode, body)
			}
		}
	}
	// A body that encodes is json.Encoder's: the encoding and one newline.
	rec := httptest.NewRecorder()
	v := map[string]any{"html": "<&>", "f": 1e21, "s": []int{1}}
	WriteJSON(rec, http.StatusOK, v)
	var want strings.Builder
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || rec.Body.String() != want.String() {
		t.Fatalf("WriteJSON wrote %d %q, json.Encoder %q", rec.Code, rec.Body.String(), want.String())
	}
}
