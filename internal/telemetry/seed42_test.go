package telemetry_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"usersignals/internal/conference"
	"usersignals/internal/telemetry"
)

// TestParseJSONSeed42Sessions encodes every session of the seed-42 dataset
// the benchmark sends (conference.Defaults(42, 1000)) as NDJSON and
// requires ParseJSON to decode each line to encoding/json's record, every
// float bit for bit.
func TestParseJSONSeed42Sessions(t *testing.T) {
	g, err := conference.New(conference.Defaults(42, 1000))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := g.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := telemetry.AppendNDJSON(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(wire, []byte{'\n'}), []byte{'\n'})
	if len(lines) != len(recs) || len(recs) < 5000 {
		t.Fatalf("%d lines for %d sessions", len(lines), len(recs))
	}
	for i, line := range lines {
		var got, want telemetry.SessionRecord
		if err := telemetry.ParseJSON(line, &got); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("session %d: encoding/json: %v", i, err)
		}
		// Distinct float64s (-0 and 0 included) never share a shortest
		// spelling, so equal encodings mean equal bits.
		genc, gerr := telemetry.AppendJSON(nil, &got)
		wenc, werr := telemetry.AppendJSON(nil, &want)
		if gerr != nil || werr != nil || !bytes.Equal(genc, wenc) {
			t.Fatalf("session %d:\n got %s (%v)\nwant %s (%v)", i, genc, gerr, wenc, werr)
		}
	}
}
