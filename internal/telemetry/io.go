package telemetry

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// The dataset formats are streaming: writers emit one record at a time and
// readers deliver records through a callback, so multi-gigabyte datasets
// never need to fit in memory. CSV is the interchange format (header below);
// JSON Lines carries the full nested record.

var csvHeader = []string{
	"call_id", "user_id", "platform", "meeting_size", "start", "duration_sec",
	"lat_mean", "lat_median", "lat_p95",
	"loss_mean", "loss_median", "loss_p95",
	"jitter_mean", "jitter_median", "jitter_p95",
	"bw_mean", "bw_median", "bw_p95",
	"presence_pct", "cam_on_pct", "mic_on_pct", "left_early",
	"rated", "rating", "country", "enterprise", "isp",
}

// CSVWriter streams session records as CSV.
type CSVWriter struct {
	w           *csv.Writer
	wroteHeader bool
}

// NewCSVWriter returns a writer targeting w.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: csv.NewWriter(w)}
}

// Write emits one record (and the header before the first record).
func (cw *CSVWriter) Write(r *SessionRecord) error {
	if !cw.wroteHeader {
		if err := cw.w.Write(csvHeader); err != nil {
			return fmt.Errorf("telemetry: writing CSV header: %w", err)
		}
		cw.wroteHeader = true
	}
	row := []string{
		strconv.FormatUint(r.CallID, 10),
		strconv.FormatUint(r.UserID, 10),
		r.Platform,
		strconv.Itoa(r.MeetingSize),
		r.Start.UTC().Format(time.RFC3339),
		fmtF(r.DurationSec),
		fmtF(r.Net.LatencyMean), fmtF(r.Net.LatencyMedian), fmtF(r.Net.LatencyP95),
		fmtF(r.Net.LossMean), fmtF(r.Net.LossMedian), fmtF(r.Net.LossP95),
		fmtF(r.Net.JitterMean), fmtF(r.Net.JitterMedian), fmtF(r.Net.JitterP95),
		fmtF(r.Net.BWMean), fmtF(r.Net.BWMedian), fmtF(r.Net.BWP95),
		fmtF(r.PresencePct), fmtF(r.CamOnPct), fmtF(r.MicOnPct),
		strconv.FormatBool(r.LeftEarly),
		strconv.FormatBool(r.Rated),
		strconv.Itoa(r.Rating),
		r.Country,
		strconv.FormatBool(r.Enterprise),
		r.ISP,
	}
	if err := cw.w.Write(row); err != nil {
		return fmt.Errorf("telemetry: writing CSV row: %w", err)
	}
	return nil
}

// Flush flushes buffered rows and reports any write error.
func (cw *CSVWriter) Flush() error {
	cw.w.Flush()
	if err := cw.w.Error(); err != nil {
		return fmt.Errorf("telemetry: flushing CSV: %w", err)
	}
	return nil
}

func fmtF(f float64) string { return strconv.FormatFloat(f, 'g', 8, 64) }

// ReadCSV streams records from r, invoking fn for each. The record passed
// to fn is reused between calls; copy it if it must outlive the callback.
// A non-nil error from fn aborts the read and is returned.
func ReadCSV(r io.Reader, fn func(*SessionRecord) error) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil // empty dataset
	}
	if err != nil {
		return fmt.Errorf("telemetry: reading CSV header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return fmt.Errorf("telemetry: CSV header has %d columns, want %d", len(header), len(csvHeader))
	}
	var rec SessionRecord
	line := 1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("telemetry: reading CSV: %w", err)
		}
		line++
		if err := parseRow(row, &rec); err != nil {
			return fmt.Errorf("telemetry: CSV line %d: %w", line, err)
		}
		if err := fn(&rec); err != nil {
			return err
		}
	}
}

func parseRow(row []string, rec *SessionRecord) error {
	if len(row) != len(csvHeader) {
		return fmt.Errorf("row has %d columns, want %d", len(row), len(csvHeader))
	}
	var err error
	fail := func(col string, e error) error { return fmt.Errorf("column %s: %w", col, e) }

	if rec.CallID, err = strconv.ParseUint(row[0], 10, 64); err != nil {
		return fail("call_id", err)
	}
	if rec.UserID, err = strconv.ParseUint(row[1], 10, 64); err != nil {
		return fail("user_id", err)
	}
	rec.Platform = row[2]
	if rec.MeetingSize, err = strconv.Atoi(row[3]); err != nil {
		return fail("meeting_size", err)
	}
	if rec.Start, err = time.Parse(time.RFC3339, row[4]); err != nil {
		return fail("start", err)
	}
	floats := []struct {
		idx  int
		name string
		dst  *float64
	}{
		{5, "duration_sec", &rec.DurationSec},
		{6, "lat_mean", &rec.Net.LatencyMean}, {7, "lat_median", &rec.Net.LatencyMedian}, {8, "lat_p95", &rec.Net.LatencyP95},
		{9, "loss_mean", &rec.Net.LossMean}, {10, "loss_median", &rec.Net.LossMedian}, {11, "loss_p95", &rec.Net.LossP95},
		{12, "jitter_mean", &rec.Net.JitterMean}, {13, "jitter_median", &rec.Net.JitterMedian}, {14, "jitter_p95", &rec.Net.JitterP95},
		{15, "bw_mean", &rec.Net.BWMean}, {16, "bw_median", &rec.Net.BWMedian}, {17, "bw_p95", &rec.Net.BWP95},
		{18, "presence_pct", &rec.PresencePct}, {19, "cam_on_pct", &rec.CamOnPct}, {20, "mic_on_pct", &rec.MicOnPct},
	}
	for _, f := range floats {
		if *f.dst, err = strconv.ParseFloat(row[f.idx], 64); err != nil {
			return fail(f.name, err)
		}
	}
	if rec.LeftEarly, err = strconv.ParseBool(row[21]); err != nil {
		return fail("left_early", err)
	}
	if rec.Rated, err = strconv.ParseBool(row[22]); err != nil {
		return fail("rated", err)
	}
	if rec.Rating, err = strconv.Atoi(row[23]); err != nil {
		return fail("rating", err)
	}
	rec.Country = row[24]
	if rec.Enterprise, err = strconv.ParseBool(row[25]); err != nil {
		return fail("enterprise", err)
	}
	rec.ISP = row[26]
	return nil
}

// JSONLWriter streams records as JSON Lines using the hand-rolled codec in
// codec.go; the output is byte-identical to what json.Encoder produced.
type JSONLWriter struct {
	bw  *bufio.Writer
	buf []byte
}

// NewJSONLWriter returns a writer targeting w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{bw: bufio.NewWriter(w)}
}

// Write emits one record as a JSON line.
func (jw *JSONLWriter) Write(r *SessionRecord) error {
	b, err := AppendJSON(jw.buf[:0], r)
	if err != nil {
		return fmt.Errorf("telemetry: encoding JSONL: %w", err)
	}
	b = append(b, '\n')
	jw.buf = b
	if _, err := jw.bw.Write(b); err != nil {
		return fmt.Errorf("telemetry: encoding JSONL: %w", err)
	}
	return nil
}

// Flush flushes buffered output.
func (jw *JSONLWriter) Flush() error {
	if err := jw.bw.Flush(); err != nil {
		return fmt.Errorf("telemetry: flushing JSONL: %w", err)
	}
	return nil
}

// scanBufPool recycles the scanner buffers behind ReadJSONL so concurrent
// ingest requests don't each allocate a fresh 64 KiB window.
var scanBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64*1024)
		return &b
	},
}

// ReadJSONL streams records from r, invoking fn for each. As with ReadCSV
// the record is reused between calls. Lines up to 4 MiB are accepted.
func ReadJSONL(r io.Reader, fn func(*SessionRecord) error) error {
	sc := bufio.NewScanner(r)
	bufp := scanBufPool.Get().(*[]byte)
	defer scanBufPool.Put(bufp)
	sc.Buffer(*bufp, 4*1024*1024)
	intern := make(map[string]string)
	var rec SessionRecord
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := parseRecordJSON(sc.Bytes(), &rec, intern); err != nil {
			return fmt.Errorf("telemetry: JSONL line %d: %w", line, err)
		}
		if err := fn(&rec); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("telemetry: reading JSONL: %w", err)
	}
	return nil
}

// CollectCSV reads all records matching filter into memory. Convenience for
// tests and small analyses; large pipelines should stream with ReadCSV.
func CollectCSV(r io.Reader, filter Filter) ([]SessionRecord, error) {
	var out []SessionRecord
	err := ReadCSV(r, func(rec *SessionRecord) error {
		if filter == nil || filter(rec) {
			out = append(out, *rec)
		}
		return nil
	})
	return out, err
}
