package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"usersignals/internal/simrand"
)

// randomRecord produces a deterministic pseudo-random record exercising the
// codec's edge cases: huge/tiny floats (scientific notation), negative
// values, strings needing escapes, zero ratings (omitempty), and sub-second
// timestamps.
func randomRecord(rng *simrand.RNG) SessionRecord {
	platforms := []string{"windows-pc", "mac", "android", `quo"ted`, "tab\tsep", "emoji☎", "<html&>", "ctrl\x01", ""}
	countries := []string{"US", "DE", "BR", "JP", "line\nbreak"}
	isps := []string{"cablecorp", "starlink", "dsl-net", "провайдер", "back\\slash"}
	f := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return -rng.Range(0, 100)
		case 2:
			return rng.Range(0, 1) * 1e-9 // forces 'e' notation
		case 3:
			return rng.Range(1, 10) * 1e22 // forces 'e' notation
		case 4:
			return math.Floor(rng.Range(0, 500))
		default:
			return rng.Range(0, 500)
		}
	}
	r := SessionRecord{
		CallID:      rng.Uint64(),
		UserID:      rng.Uint64(),
		Platform:    platforms[rng.Intn(len(platforms))],
		MeetingSize: rng.Intn(50),
		Start:       time.Date(2000+rng.Intn(30), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60), rng.Intn(1_000_000_000), time.UTC),
		DurationSec: f(),
		Net: NetAggregates{
			LatencyMean: f(), LatencyMedian: f(), LatencyP95: f(),
			LossMean: f(), LossMedian: f(), LossP95: f(),
			JitterMean: f(), JitterMedian: f(), JitterP95: f(),
			BWMean: f(), BWMedian: f(), BWP95: f(),
		},
		PresencePct: f(), CamOnPct: f(), MicOnPct: f(),
		LeftEarly: rng.Bool(0.3), Rated: rng.Bool(0.5),
		Country:    countries[rng.Intn(len(countries))],
		Enterprise: rng.Bool(0.5),
		ISP:        isps[rng.Intn(len(isps))],
	}
	if r.Rated && rng.Bool(0.8) {
		r.Rating = 1 + rng.Intn(5)
	}
	if rng.Bool(0.1) {
		r.Start = r.Start.In(time.FixedZone("", -5*3600))
	}
	return r
}

// recordsEqual compares records, treating Start via time.Time.Equal plus
// identical rendering (DeepEqual on time.Time is unreliable across location
// pointer internals).
func recordsEqual(a, b *SessionRecord) bool {
	if !a.Start.Equal(b.Start) || a.Start.Format(time.RFC3339Nano) != b.Start.Format(time.RFC3339Nano) {
		return false
	}
	ac, bc := *a, *b
	ac.Start, bc.Start = time.Time{}, time.Time{}
	return ac == bc
}

// TestAppendJSONMatchesStdlib is the core byte-compatibility contract: the
// hand-rolled encoder must produce exactly json.Marshal's bytes.
func TestAppendJSONMatchesStdlib(t *testing.T) {
	rng := simrand.Root(7).Derive("codec-test").RNG()
	recs := make([]SessionRecord, 0, 500)
	recs = append(recs, sampleRecord(), SessionRecord{})
	for i := 0; i < 498; i++ {
		recs = append(recs, randomRecord(rng))
	}
	for i := range recs {
		want, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatalf("record %d: stdlib: %v", i, err)
		}
		got, err := AppendJSON(nil, &recs[i])
		if err != nil {
			t.Fatalf("record %d: AppendJSON: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d encoding differs:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestParseJSONDecodesStdlibOutput checks the decoder consumes stdlib
// encodings exactly, including unknown-field skipping and null handling.
func TestParseJSONDecodesStdlibOutput(t *testing.T) {
	rng := simrand.Root(11).Derive("codec-decode").RNG()
	for i := 0; i < 300; i++ {
		want := randomRecord(rng)
		enc, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		var got SessionRecord
		if err := ParseJSON(enc, &got); err != nil {
			t.Fatalf("record %d: ParseJSON(%s): %v", i, enc, err)
		}
		if !recordsEqual(&got, &want) {
			t.Fatalf("record %d: decode mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
	// Hand-picked shapes the generator can't hit.
	cases := []string{
		`{}`,
		` { } `,
		`{"call_id":1,"unknown":{"deep":[1,2,{"x":null}]},"user_id":2}`,
		`{"platform":null,"net":null,"rating":null,"start":null,"rated":null}`,
		`{"net":{},"isp":"a"}`,
		`{"net":{"LatencyMean":1.5,"Junk":[true,false]},"rating":3}`,
		"{\n\t\"call_id\": 7 ,\n \"isp\" : \"x\"\n}",
		`{"platform":"\u0041\u00e9\ud83d\ude00"}`,
		`{"duration_sec":1e2,"presence_pct":-0.5}`,
	}
	for _, c := range cases {
		var mine, std SessionRecord
		if err := ParseJSON([]byte(c), &mine); err != nil {
			t.Fatalf("ParseJSON(%q): %v", c, err)
		}
		if err := json.Unmarshal([]byte(c), &std); err != nil {
			t.Fatalf("stdlib rejects case %q: %v", c, err)
		}
		if !recordsEqual(&mine, &std) {
			t.Fatalf("case %q: mine %+v, stdlib %+v", c, mine, std)
		}
	}
}

// TestParseJSONRejectsGarbage pins the decoder's error behavior on inputs
// the ingest path must refuse.
func TestParseJSONRejectsGarbage(t *testing.T) {
	bad := []string{
		``, `null`, `[]`, `42`, `{`, `{"call_id"}`, `{"call_id":}`,
		`{"call_id":1,}`, `{"call_id":1}{"call_id":2}`, `{"call_id":1} x`,
		`{"call_id":-1}`, `{"call_id":1.5}`, `{"rating":"5"}`, `{"rated":1}`,
		`{"duration_sec":1e999}`, `{"start":"not-a-time"}`, `{"platform":"unterminated`,
		`{"platform":"bad\qescape"}`, `{"platform":"ctrl` + "\x01" + `"}`,
		`{"platform":"\u12"}`, `{"net":[1]}` /* wrong shape */, `{"duration_sec":true}`,
	}
	var rec SessionRecord
	for _, c := range bad {
		if err := ParseJSON([]byte(c), &rec); err == nil {
			t.Errorf("ParseJSON(%q) accepted garbage", c)
		}
	}
}

// TestAppendJSONRejectsNonFinite mirrors json.Marshal's refusal of NaN/Inf
// and out-of-range timestamps.
func TestAppendJSONRejectsNonFinite(t *testing.T) {
	r := sampleRecord()
	r.DurationSec = math.NaN()
	if _, err := AppendJSON(nil, &r); err == nil {
		t.Error("NaN accepted")
	}
	r = sampleRecord()
	r.Net.BWP95 = math.Inf(1)
	if _, err := AppendJSON(nil, &r); err == nil {
		t.Error("+Inf accepted")
	}
	r = sampleRecord()
	r.Start = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := AppendJSON(nil, &r); err == nil {
		t.Error("year 10000 accepted")
	}
}

// TestAppendNDJSONMatchesEncoder checks the batch helper against the
// json.Encoder framing the JSONL writer used to produce.
func TestAppendNDJSONMatchesEncoder(t *testing.T) {
	rng := simrand.Root(23).Derive("ndjson").RNG()
	recs := make([]SessionRecord, 40)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := AppendNDJSON(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("NDJSON framing differs:\n got %q\nwant %q", got, want.Bytes())
	}
}

// TestReadJSONLInterning checks that repeated cohort strings decode to
// shared backing storage (the ingest memory win) without affecting values.
func TestReadJSONLInterning(t *testing.T) {
	rng := simrand.Root(29).Derive("intern").RNG()
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	var want []SessionRecord
	for i := 0; i < 100; i++ {
		r := randomRecord(rng)
		want = append(want, r)
		if err := w.Write(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []SessionRecord
	if err := ReadJSONL(&buf, func(r *SessionRecord) error {
		got = append(got, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, wrote %d", len(got), len(want))
	}
	for i := range got {
		if !recordsEqual(&got[i], &want[i]) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// objectKeys returns every object key in line, at any depth, unescaped as
// encoding/json reads them.
func objectKeys(line string) []string {
	dec := json.NewDecoder(strings.NewReader(line))
	var keys []string
	var inObject []bool // per open container
	expectKey := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return keys
		}
		switch v := tok.(type) {
		case json.Delim:
			switch v {
			case '{', '[':
				inObject = append(inObject, v == '{')
				expectKey = v == '{'
				continue
			default:
				inObject = inObject[:len(inObject)-1]
			}
		case string:
			if expectKey {
				keys = append(keys, v)
				expectKey = false
				continue
			}
		}
		// A value ended: inside an object, a key comes next.
		expectKey = len(inObject) > 0 && inObject[len(inObject)-1]
	}
}

// foldsToField reports whether line has a key that is not a field name but
// that encoding/json's case-insensitive match takes for one; the codec
// matches names exactly, so it reads such a line differently by design.
func foldsToField(line string) bool {
	canonical := sampleRecord()
	canonical.Rating = 1
	enc, err := json.Marshal(&canonical)
	if err != nil {
		panic(err)
	}
	fields := objectKeys(string(enc))
	for _, k := range objectKeys(line) {
		for _, f := range fields {
			if k != f && strings.EqualFold(k, f) {
				return true
			}
		}
	}
	return false
}

// FuzzSessionRecordCodec cross-checks the codec against encoding/json: any
// object our parser accepts must re-encode to exactly the stdlib encoding
// of the same record, stdlib encodings must round-trip, and any line
// json.Unmarshal accepts (with field names as the encoder writes them)
// must decode to json.Unmarshal's record. The last property is the one
// that sees a float decoded one ulp off: such a value re-encodes and
// re-decodes to itself.
func FuzzSessionRecordCodec(f *testing.F) {
	rng := simrand.Root(31).Derive("fuzz-seed").RNG()
	for i := 0; i < 20; i++ {
		r := randomRecord(rng)
		enc, err := json.Marshal(&r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(enc))
	}
	f.Add(`{}`)
	f.Add(`{"platform":"\ud800"}`)          // lone high surrogate
	f.Add(`{"platform":"\ud800\ud800"}`)    // invalid surrogate pair
	f.Add(`{"platform":"\ud83d\ude00<&>"}`) // valid pair + HTML chars
	f.Add(`{"isp":"\u2028\u2029"}`)         // JS line separators
	f.Add(`{"net":{"BWMean":1e-7}}`)        // exponent compression
	f.Add(`{"rating":0}`)                   // omitempty boundary
	f.Add(`{"start":"2022-01-02T03:04:05.000000001+01:30"}`)
	f.Add(`{"duration_sec":9007199254740993,"net":{"BWP95":2.2250738585072011e-308}}`) // halfway, subnormal
	f.Add(`{"presence_pct":12345678901234567890.5e-3,"cam_on_pct":1e23}`)              // > 19 digits
	f.Add(`{"mic_on_pct":01.5,"presence_pct":+1,"cam_on_pct":.5}`)                     // lax spellings
	f.Add(`{"Rated":true,"NET":{"bwp95":1}}`)                                          // folded names
	f.Fuzz(func(t *testing.T, line string) {
		var rec, std SessionRecord
		err := ParseJSON([]byte(line), &rec)
		// Property 0: what encoding/json accepts, under the encoder's field
		// names, the codec decodes to the same record.
		if json.Unmarshal([]byte(line), &std) == nil && !foldsToField(line) {
			if err != nil {
				t.Fatalf("ParseJSON(%q) rejects what json.Unmarshal accepts: %v", line, err)
			}
			if !recordsEqual(&rec, &std) {
				t.Fatalf("ParseJSON(%q):\n got %+v\nwant %+v", line, rec, std)
			}
		}
		if err != nil {
			return // rejected input: out of scope
		}
		// Property 1: re-encoding an accepted record must match stdlib
		// byte for byte (parsed JSON can never contain NaN/Inf and parsed
		// RFC 3339 years are 4-digit, so encoding cannot fail).
		want, err := json.Marshal(&rec)
		if err != nil {
			t.Fatalf("stdlib re-encode failed for %q → %+v: %v", line, rec, err)
		}
		got, err := AppendJSON(nil, &rec)
		if err != nil {
			t.Fatalf("AppendJSON failed for %q → %+v: %v", line, rec, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode mismatch for %q:\n got %s\nwant %s", line, got, want)
		}
		// Property 2: the canonical encoding round-trips through both
		// decoders to the same record.
		var again SessionRecord
		std = SessionRecord{}
		if err := ParseJSON(got, &again); err != nil {
			t.Fatalf("re-decode of %s: %v", got, err)
		}
		if !recordsEqual(&again, &rec) {
			t.Fatalf("round-trip drift:\n got %+v\nwant %+v", again, rec)
		}
		if err := json.Unmarshal(got, &std); err != nil {
			t.Fatalf("stdlib rejects our encoding %s: %v", got, err)
		}
		if !recordsEqual(&std, &rec) {
			t.Fatalf("stdlib disagrees on %s:\n got %+v\nwant %+v", got, std, rec)
		}
	})
}

// TestJSONLWriterMatchesOldEncoder pins the writer's framing against the
// json.Encoder implementation it replaced.
func TestJSONLWriterMatchesOldEncoder(t *testing.T) {
	recs := []SessionRecord{sampleRecord(), {}, {Platform: "a<b>&c", Rating: 2, Rated: true}}
	var got, want bytes.Buffer
	w := NewJSONLWriter(&got)
	enc := json.NewEncoder(&want)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("JSONL output changed:\n got %q\nwant %q", got.String(), want.String())
	}
}

// TestReadJSONLStillRejectsOversizedLines keeps the 4 MiB line cap the
// failure tests rely on.
func TestReadJSONLStillRejectsOversizedLines(t *testing.T) {
	line := `{"platform":"` + strings.Repeat("x", 5*1024*1024) + `"}`
	err := ReadJSONL(strings.NewReader(line), func(*SessionRecord) error { return nil })
	if err == nil {
		t.Fatal("oversized line accepted")
	}
}
