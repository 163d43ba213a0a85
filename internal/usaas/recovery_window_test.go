package usaas

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"usersignals/internal/durable"
	"usersignals/internal/ocr"
	"usersignals/internal/social"
	"usersignals/internal/telemetry"
)

// windowFeed is the delivery the decode-window tests journal: ten-session
// batches interleaved with post batches delivered out of day order (one of
// them carries a post already delivered under another batch ID). Beside
// the generated posts ride a few whose text the encoder must escape.
func windowFeed(t *testing.T) []ingestBatch {
	t.Helper()
	recs, posts := crashDataset(t, 23)
	posts = append(posts, escapedPosts(posts)...)
	postBatches := permuteBatches(arrivalBatches(posts, "p"), 3)
	var feed []ingestBatch
	for i, n := 0, 0; i < len(recs) || n < len(postBatches); n++ {
		if i < len(recs) {
			hi := min(i+10, len(recs))
			feed = append(feed, ingestBatch{id: fmt.Sprintf("s-%d", n), sessions: recs[i:hi]})
			i = hi
		}
		if n < len(postBatches) {
			feed = append(feed, postBatches[n])
		}
	}
	return feed
}

// escapedPosts are posts with replies and a screenshot whose text is
// non-ASCII or needs escapes on the wire (quotes, backslashes, HTML
// characters, control characters, U+2028), which the generator never
// writes. They take fresh IDs on a day in the middle of posts.
func escapedPosts(posts []social.Post) []social.Post {
	var maxID uint64
	for i := range posts {
		maxID = max(maxID, posts[i].ID)
	}
	texts := []string{`she said "slow" \ again`, "<b>R&D</b> > 50%", "line\nbreak\ttab\x01ctl", "sep\u2028ara\u2029tor", "naïve 日本 😀 ☎"}
	out := make([]social.Post, len(texts))
	for i, s := range texts {
		out[i] = social.Post{
			ID: maxID + uint64(i) + 1, Day: posts[len(posts)/2].Day,
			Author: "u/" + s, Title: s, Body: s + " — starlink down again", Upvotes: i, Comments: 2, Country: "US",
			Replies:    []social.Comment{{Author: "r", Text: s}, {Author: s, Text: "same here"}},
			Screenshot: &ocr.Screenshot{Lines: []string{s, "Download 42.0 Mbps"}},
		}
	}
	return out
}

// TestRecoveryDecodeWindowMatchesSerial: recovery parses the log tail in a
// window of decoders sized by GOMAXPROCS but applies in sequence order, so
// the store it rebuilds must not depend on the window. A data directory
// holding a snapshot plus a multi-segment tail of interleaved session and
// post batches recovers to the same /v1/report bytes, the same read
// endpoints and the same RecoveryStats under GOMAXPROCS 1, 2 and 8, and
// to what the store fed the batches live served.
func TestRecoveryDecodeWindowMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	feed := windowFeed(t)
	isp := feed[0].sessions[0].ISP
	dir := t.TempDir()
	opts := DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff, SegmentBytes: 32 << 10}
	live, err := OpenDurableStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	half := len(feed) / 2
	for i, b := range feed {
		if i == half {
			if err := live.snapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
		applyBatch(t, live.Store, b)
	}
	// A duplicate delivery: acknowledged from the dedup table and not
	// journaled.
	applyBatch(t, live.Store, feed[half+3])
	wantReport := reportHTTPBytes(t, live.Store)
	wantBodies := endpointBodies(t, live.Store, ServerOptions{}, isp)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	// The log never holds a batch twice, but replay must dedup one as the
	// serial replay did: append a copy of a tail record at the log's end.
	var again durable.Record
	if _, err := durable.Replay(dir, uint64(half+3), func(_ uint64, rec durable.Record) error {
		if again.Payload == nil {
			again = rec
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	w, err := durable.OpenWAL(dir, uint64(half), durable.Options{SegmentBytes: opts.SegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(again); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	tail := len(feed) - half + 1
	if window := 2 * 8; tail <= window {
		t.Fatalf("tail of %d records fits a window of %d: the full-window path goes untested", tail, window)
	}
	var first *RecoveryStats
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		d, err := OpenDurableStore(opts)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		stats := d.Recovery
		stats.Elapsed = 0
		if !stats.SnapshotFound || stats.SnapshotSeq != uint64(half) || stats.ReplayedBatches != tail {
			t.Fatalf("GOMAXPROCS %d: recovery took another path: %+v", procs, stats)
		}
		if first == nil {
			first = &stats
		} else if stats != *first {
			t.Errorf("GOMAXPROCS %d: RecoveryStats %+v, want %+v", procs, stats, *first)
		}
		if got := reportHTTPBytes(t, d.Store); !bytes.Equal(got, wantReport) {
			t.Errorf("GOMAXPROCS %d: recovered /v1/report differs from the live store's", procs)
		}
		assertSameBodies(t, fmt.Sprintf("GOMAXPROCS %d", procs), endpointBodies(t, d.Store, ServerOptions{}, isp), wantBodies, isp)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryStopsAtFirstBadRecord: parsing runs out of order, but errors
// are reported in order. With malformed records at log sequences k and
// k+2, recovery fails naming k; with malformed snapshot sessions at
// indexes i < j, it fails naming i — whichever decoder or worker finished
// first. Either way no parsing goroutine outlives the failed open.
func TestRecoveryStopsAtFirstBadRecord(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	recs, posts := crashDataset(t, 5)
	sessWire, err := telemetry.AppendNDJSON(nil, recs[:20])
	if err != nil {
		t.Fatal(err)
	}
	var postWire bytes.Buffer
	if err := social.WritePostsJSONL(&postWire, posts[:20]); err != nil {
		t.Fatal(err)
	}

	const k = 4
	logDir := t.TempDir()
	w, err := durable.OpenWAL(logDir, 0, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		rec := durable.Record{Type: recSessions, BatchID: fmt.Sprintf("b%d", i), Payload: sessWire}
		if i%2 == 1 {
			rec.Type, rec.Payload = recPosts, postWire.Bytes()
		}
		switch i {
		case k:
			rec.Payload = []byte("{\"id\": not json}\n")
		case k + 2:
			rec.Type, rec.Payload = recPosts, []byte("[1, 2]\n")
		}
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	const i, j, n = 30, 70, 100
	snapDir := t.TempDir()
	body := []byte(fmt.Sprintf(`{"format":%d,"seq":1,"sessions":%d,"posts":0,"batches":0}`+"\n", snapFormat, n))
	for at := 0; at < n; at++ {
		if at == i || at == j {
			body = append(body, "not json\n"...)
			continue
		}
		if body, err = telemetry.AppendJSON(body, &recs[at]); err != nil {
			t.Fatal(err)
		}
		body = append(body, '\n')
	}
	if err := durable.WriteSnapshot(snapDir, 1, func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct{ dir, want string }{
			{logDir, fmt.Sprintf("usaas: replaying log record %d: ", k)},
			{snapDir, fmt.Sprintf("usaas: decoding snapshot at seq 1: parsing session %d: ", i)},
		} {
			base := runtime.NumGoroutine()
			d, err := OpenDurableStore(DurabilityOptions{Dir: tc.dir, Fsync: durable.FsyncOff})
			if err == nil {
				d.Close()
				t.Fatalf("GOMAXPROCS %d: %s recovered despite malformed records", procs, tc.dir)
			}
			if !strings.HasPrefix(err.Error(), tc.want) {
				t.Errorf("GOMAXPROCS %d: error %q, want it to start %q", procs, err, tc.want)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(deadline) {
					t.Fatalf("GOMAXPROCS %d: %d goroutines after the failed open, %d before", procs, runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestSnapshotNegativeCountsRefused: a snapshot header's section counts
// size the parse, so a negative one is refused as a decoding error — not
// a makeslice panic, and not an empty section that shifts every later
// line into the wrong one.
func TestSnapshotNegativeCountsRefused(t *testing.T) {
	for _, counts := range []string{`"sessions":-1,"posts":0,"batches":0`, `"sessions":0,"posts":-2,"batches":0`, `"sessions":0,"posts":0,"batches":-3`} {
		dir := t.TempDir()
		body := fmt.Sprintf(`{"format":%d,"seq":1,%s}`+"\n", snapFormat, counts)
		if err := durable.WriteSnapshot(dir, 1, func(w io.Writer) error {
			_, err := io.WriteString(w, body)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff})
		if err == nil {
			d.Close()
			t.Fatalf("%s: recovered", counts)
		}
		if !strings.Contains(err.Error(), "snapshot header claims") {
			t.Errorf("%s: error %q does not name the header", counts, err)
		}
	}
}
