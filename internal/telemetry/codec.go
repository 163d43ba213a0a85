package telemetry

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"usersignals/internal/jsonscan"
)

// This file is the hand-rolled SessionRecord codec for the ingest/upload hot
// path. The wire format is exactly what encoding/json produces for the
// struct — same field order, same float formatting, same HTML-escaped
// strings — so mixed fleets of old and new readers/writers interoperate
// byte for byte. AppendJSON avoids the reflection and interface boxing of
// json.Marshal; ParseJSON replaces the scanner+reflect decode with a direct
// parse over the shared jsonscan reader, which borrows tokens from the
// input instead of allocating them and reads floats on an exact fast path.

const hexDigits = "0123456789abcdef"

// AppendJSON appends the record encoded as one JSON object to dst and
// returns the extended buffer. The output is byte-identical to
// json.Marshal(r). Like the standard library it rejects NaN/Inf values and
// timestamps outside year [0, 9999].
func AppendJSON(dst []byte, r *SessionRecord) ([]byte, error) {
	var err error
	dst = append(dst, `{"call_id":`...)
	dst = strconv.AppendUint(dst, r.CallID, 10)
	dst = append(dst, `,"user_id":`...)
	dst = strconv.AppendUint(dst, r.UserID, 10)
	dst = append(dst, `,"platform":`...)
	dst = appendJSONString(dst, r.Platform)
	dst = append(dst, `,"meeting_size":`...)
	dst = strconv.AppendInt(dst, int64(r.MeetingSize), 10)
	dst = append(dst, `,"start":`...)
	if dst, err = appendJSONTime(dst, r.Start); err != nil {
		return dst, err
	}
	dst = append(dst, `,"duration_sec":`...)
	if dst, err = appendJSONFloat(dst, r.DurationSec); err != nil {
		return dst, err
	}
	netFields := [...]struct {
		key string
		val float64
	}{
		{`"LatencyMean":`, r.Net.LatencyMean},
		{`,"LatencyMedian":`, r.Net.LatencyMedian},
		{`,"LatencyP95":`, r.Net.LatencyP95},
		{`,"LossMean":`, r.Net.LossMean},
		{`,"LossMedian":`, r.Net.LossMedian},
		{`,"LossP95":`, r.Net.LossP95},
		{`,"JitterMean":`, r.Net.JitterMean},
		{`,"JitterMedian":`, r.Net.JitterMedian},
		{`,"JitterP95":`, r.Net.JitterP95},
		{`,"BWMean":`, r.Net.BWMean},
		{`,"BWMedian":`, r.Net.BWMedian},
		{`,"BWP95":`, r.Net.BWP95},
	}
	dst = append(dst, `,"net":{`...)
	for _, f := range netFields {
		dst = append(dst, f.key...)
		if dst, err = appendJSONFloat(dst, f.val); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `},"presence_pct":`...)
	if dst, err = appendJSONFloat(dst, r.PresencePct); err != nil {
		return dst, err
	}
	dst = append(dst, `,"cam_on_pct":`...)
	if dst, err = appendJSONFloat(dst, r.CamOnPct); err != nil {
		return dst, err
	}
	dst = append(dst, `,"mic_on_pct":`...)
	if dst, err = appendJSONFloat(dst, r.MicOnPct); err != nil {
		return dst, err
	}
	dst = append(dst, `,"left_early":`...)
	dst = strconv.AppendBool(dst, r.LeftEarly)
	dst = append(dst, `,"rated":`...)
	dst = strconv.AppendBool(dst, r.Rated)
	if r.Rating != 0 { // mirrors the struct tag's omitempty
		dst = append(dst, `,"rating":`...)
		dst = strconv.AppendInt(dst, int64(r.Rating), 10)
	}
	dst = append(dst, `,"country":`...)
	dst = appendJSONString(dst, r.Country)
	dst = append(dst, `,"enterprise":`...)
	dst = strconv.AppendBool(dst, r.Enterprise)
	dst = append(dst, `,"isp":`...)
	dst = appendJSONString(dst, r.ISP)
	return append(dst, '}'), nil
}

// AppendNDJSON appends the records as JSON Lines (one record per
// newline-terminated line).
func AppendNDJSON(dst []byte, recs []SessionRecord) ([]byte, error) {
	var err error
	for i := range recs {
		if dst, err = AppendJSON(dst, &recs[i]); err != nil {
			return dst, err
		}
		dst = append(dst, '\n')
	}
	return dst, nil
}

// appendJSONFloat mirrors encoding/json's float formatter: shortest
// round-trip form, 'f' notation except for very large/small magnitudes,
// with the exponent's leading zero stripped.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("telemetry: unsupported float value %v", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Convert e-09 to e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendJSONTime mirrors time.Time.MarshalJSON: quoted strict RFC 3339 with
// nanoseconds, rejecting the timestamps the standard library rejects.
func appendJSONTime(dst []byte, t time.Time) ([]byte, error) {
	if y := t.Year(); y < 0 || y >= 10000 {
		return dst, errors.New("telemetry: timestamp year outside of range [0,9999]")
	}
	if _, off := t.Zone(); off%60 != 0 {
		return dst, errors.New("telemetry: timestamp has sub-minute UTC offset")
	}
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"'), nil
}

// appendJSONString mirrors encoding/json's default (HTML-escaping) string
// encoder byte for byte.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control characters, plus <, >, & (HTML escaping).
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `�`...)
			i += size
			start = i
			continue
		}
		if c == ' ' || c == ' ' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonSafe reports whether b needs no escaping under HTML-escaped JSON.
func jsonSafe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// ParseJSON decodes one JSON object into r, zeroing it first. It accepts
// everything json.Unmarshal produces for a SessionRecord (unknown fields
// are skipped, null leaves a field zero) and is slightly laxer on exotic
// number spellings and the \' escape. Unlike json.Unmarshal it matches
// field names case-sensitively, which is all the canonical encoder ever
// emits.
func ParseJSON(data []byte, r *SessionRecord) error {
	return parseRecordJSON(data, r, nil)
}

// parseRecordJSON is the shared decode core; intern, when non-nil,
// deduplicates field strings (platform/country/isp) across records. It
// reads data in place (jsonscan.New): r keeps only copies.
func parseRecordJSON(data []byte, r *SessionRecord, intern map[string]string) error {
	p := recordParser{Scanner: jsonscan.NewLenient(data), intern: intern}
	*r = SessionRecord{}
	p.SkipSpace()
	if err := p.Object(func(key string) error { return p.recordField(r, key) }); err != nil {
		return err
	}
	if !p.AtEnd() {
		return p.SyntaxErr("trailing data after JSON value")
	}
	return nil
}

// recordParser types a SessionRecord's fields over the shared scanner.
type recordParser struct {
	jsonscan.Scanner
	intern map[string]string
}

// recordField dispatches one top-level key to its field parser.
func (p *recordParser) recordField(r *SessionRecord, key string) error {
	switch key {
	case "call_id":
		return p.parseUint(&r.CallID)
	case "user_id":
		return p.parseUint(&r.UserID)
	case "platform":
		return p.parseStringField(&r.Platform)
	case "meeting_size":
		return p.parseInt(&r.MeetingSize)
	case "start":
		return p.parseTime(&r.Start)
	case "duration_sec":
		return p.parseFloat(&r.DurationSec)
	case "net":
		if p.TryNull() {
			return nil
		}
		return p.Object(func(key string) error { return p.netField(&r.Net, key) })
	case "presence_pct":
		return p.parseFloat(&r.PresencePct)
	case "cam_on_pct":
		return p.parseFloat(&r.CamOnPct)
	case "mic_on_pct":
		return p.parseFloat(&r.MicOnPct)
	case "left_early":
		return p.parseBool(&r.LeftEarly)
	case "rated":
		return p.parseBool(&r.Rated)
	case "rating":
		return p.parseInt(&r.Rating)
	case "country":
		return p.parseStringField(&r.Country)
	case "enterprise":
		return p.parseBool(&r.Enterprise)
	case "isp":
		return p.parseStringField(&r.ISP)
	default:
		return p.SkipValue()
	}
}

// netField decodes one key of the nested aggregates object. The struct has
// no JSON tags, so the canonical keys are the Go field names.
func (p *recordParser) netField(n *NetAggregates, key string) error {
	var dst *float64
	switch key {
	case "LatencyMean":
		dst = &n.LatencyMean
	case "LatencyMedian":
		dst = &n.LatencyMedian
	case "LatencyP95":
		dst = &n.LatencyP95
	case "LossMean":
		dst = &n.LossMean
	case "LossMedian":
		dst = &n.LossMedian
	case "LossP95":
		dst = &n.LossP95
	case "JitterMean":
		dst = &n.JitterMean
	case "JitterMedian":
		dst = &n.JitterMedian
	case "JitterP95":
		dst = &n.JitterP95
	case "BWMean":
		dst = &n.BWMean
	case "BWMedian":
		dst = &n.BWMedian
	case "BWP95":
		dst = &n.BWP95
	default:
		return p.SkipValue()
	}
	return p.parseFloat(dst)
}

func (p *recordParser) parseUint(dst *uint64) error {
	tok, err := p.NumberToken()
	if err != nil || tok == "" {
		return err
	}
	v, err := strconv.ParseUint(tok, 10, 64)
	if err != nil {
		return fmt.Errorf("telemetry: invalid unsigned number %q", tok)
	}
	*dst = v
	return nil
}

func (p *recordParser) parseInt(dst *int) error {
	tok, err := p.NumberToken()
	if err != nil || tok == "" {
		return err
	}
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return fmt.Errorf("telemetry: invalid integer %q", tok)
	}
	*dst = int(v)
	return nil
}

// parseFloat takes the scanner's exact fast path, and falls back to the
// whole token through strconv for every spelling the fast path declines —
// so what is accepted, and each value's bits, are strconv's.
func (p *recordParser) parseFloat(dst *float64) error {
	if v, ok := p.Float(); ok {
		*dst = v
		return nil
	}
	tok, err := p.NumberToken()
	if err != nil || tok == "" {
		return err
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil || math.IsInf(v, 0) {
		return fmt.Errorf("telemetry: invalid number %q", tok)
	}
	*dst = v
	return nil
}

func (p *recordParser) parseBool(dst *bool) error {
	if p.TryNull() {
		return nil
	}
	v, err := p.Bool()
	if err == nil {
		*dst = v
	}
	return err
}

func (p *recordParser) parseTime(dst *time.Time) error {
	if p.TryNull() {
		return nil
	}
	s, err := p.String()
	if err != nil {
		return err
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		// The error keeps the text it failed on: give it a copy of s,
		// which is a view of the input.
		s = strings.Clone(s)
		_, err = time.Parse(time.RFC3339, s)
		return fmt.Errorf("telemetry: invalid timestamp %q: %w", s, err)
	}
	*dst = t
	return nil
}

// parseStringField decodes a string into dst, interning the result when the
// parser has an intern table (ingest sees the same few platform/country/ISP
// values millions of times).
func (p *recordParser) parseStringField(dst *string) error {
	if p.TryNull() {
		return nil
	}
	s, err := p.String()
	if err != nil {
		return err
	}
	if p.intern != nil {
		if v, ok := p.intern[s]; ok {
			*dst = v
			return nil
		}
	}
	// Clone so the record never pins the whole input line.
	v := strings.Clone(s)
	if p.intern != nil && len(p.intern) < 4096 {
		p.intern[v] = v
	}
	*dst = v
	return nil
}
