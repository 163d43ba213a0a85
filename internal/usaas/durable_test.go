package usaas

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"usersignals/internal/conference"
	"usersignals/internal/durable"
	"usersignals/internal/leo"
	"usersignals/internal/social"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// crashDataset generates a small per-seed signal mix. Posts are round-
// tripped through their wire form first (as HTTP ingest would deliver
// them), so the reference store and the recovered store see byte-equal
// inputs — the durable log stores exactly the wire form.
func crashDataset(t testing.TB, seed uint64) ([]telemetry.SessionRecord, []social.Post) {
	t.Helper()
	g, err := conference.New(conference.Defaults(seed, 160))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := g.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) > 400 {
		recs = recs[:400]
	}
	cfg := social.DefaultConfig(seed)
	cfg.Window = timeline.Range{From: timeline.Date(2022, 1, 1), To: timeline.Date(2022, 2, 28)}
	cfg.Outages = leo.AllOutages(seed, cfg.Window, 1.5)
	corpus, err := social.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	posts := corpus.Posts
	if len(posts) > 300 {
		posts = posts[:300]
	}
	var buf bytes.Buffer
	if err := social.WritePostsJSONL(&buf, posts); err != nil {
		t.Fatal(err)
	}
	clean, err := social.CollectPostsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs, clean
}

// ingestBatch is one idempotent delivery: either sessions or posts.
type ingestBatch struct {
	id       string
	sessions []telemetry.SessionRecord
	posts    []social.Post
}

// raggedBatches slices the dataset into deterministic uneven batches,
// alternating session and post deliveries.
func raggedBatches(recs []telemetry.SessionRecord, posts []social.Post, seed uint64) []ingestBatch {
	var out []ingestBatch
	i, j, n := 0, 0, 0
	for i < len(recs) || j < len(posts) {
		cut := 23 + int((seed*31+uint64(n)*17)%61)
		if i < len(recs) {
			hi := min(i+cut, len(recs))
			out = append(out, ingestBatch{id: fmt.Sprintf("s%d-%d", seed, n), sessions: recs[i:hi]})
			i = hi
			n++
		}
		if j < len(posts) {
			hi := min(j+cut, len(posts))
			out = append(out, ingestBatch{id: fmt.Sprintf("p%d-%d", seed, n), posts: posts[j:hi]})
			j = hi
			n++
		}
	}
	return out
}

func applyBatch(t testing.TB, s *Store, b ingestBatch) {
	t.Helper()
	var err error
	if b.sessions != nil {
		_, _, err = s.AddSessionsBatch(b.id, b.sessions)
	} else {
		_, _, err = s.AddPostsBatch(b.id, b.posts)
	}
	if err != nil {
		t.Fatalf("batch %s: %v", b.id, err)
	}
}

// reportBytes renders the full operator report as the /v1/report handler
// would marshal it — the byte-identity oracle for recovery.
func reportBytes(t testing.TB, store *Store) []byte {
	t.Helper()
	srv := NewServer(store, ServerOptions{ResultCacheSize: -1})
	rep := BuildReport(store, srv.opts.Analyzer, srv.opts)
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func onlySegment(t testing.TB, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (err=%v)", segs, err)
	}
	return segs[0]
}

// TestCrashRecoveryEveryOffset is the golden durability test: build a WAL
// from ragged idempotent batches, truncate it at every frame boundary and
// at points inside every frame, and require recovery to (a) never panic
// or error and (b) produce a store whose /v1/report is byte-identical to
// replaying only the surviving complete batches into a fresh in-memory
// store. Short mode runs one seed with fewer mid-frame cuts.
func TestCrashRecoveryEveryOffset(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			recs, posts := crashDataset(t, seed)
			batches := raggedBatches(recs, posts, seed)
			dir := t.TempDir()
			d, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff})
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range batches {
				applyBatch(t, d.Store, b)
				if i == 2 {
					applyBatch(t, d.Store, batches[0]) // duplicate delivery: no new frame
				}
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(onlySegment(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			bounds := durable.FrameBoundaries(data)
			if len(bounds) != len(batches) {
				t.Fatalf("log holds %d frames for %d accepted batches (dedup leaked into the WAL?)", len(bounds), len(batches))
			}

			// Reference reports per survivor count, built lazily: fresh
			// in-memory store fed the first k batches directly.
			expected := map[int][]byte{}
			expect := func(k int) []byte {
				if b, ok := expected[k]; ok {
					return b
				}
				ref := &Store{}
				for _, b := range batches[:k] {
					applyBatch(t, ref, b)
				}
				rb := reportBytes(t, ref)
				expected[k] = rb
				return rb
			}

			var cuts []int64
			prev := int64(0)
			for _, b := range bounds {
				cuts = append(cuts, b)
				if mid := (prev + b) / 2; mid > prev {
					cuts = append(cuts, mid)
				}
				if !testing.Short() {
					cuts = append(cuts, prev+1, b-1) // torn header, torn last byte
				}
				prev = b
			}
			cuts = append(cuts, 0)

			for _, cut := range cuts {
				sub := t.TempDir()
				if err := os.WriteFile(filepath.Join(sub, filepath.Base(onlySegment(t, dir))), data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				d2, err := OpenDurableStore(DurabilityOptions{Dir: sub, Fsync: durable.FsyncOff})
				if err != nil {
					t.Fatalf("cut %d: recovery failed: %v", cut, err)
				}
				k := 0
				atBoundary := cut == 0
				for _, b := range bounds {
					if b <= cut {
						k++
					}
					if b == cut {
						atBoundary = true
					}
				}
				if d2.Recovery.TornTail == atBoundary {
					t.Fatalf("cut %d: torn=%v at frame boundary=%v", cut, d2.Recovery.TornTail, atBoundary)
				}
				if d2.Recovery.ReplayedBatches != k {
					t.Fatalf("cut %d: replayed %d batches, want %d", cut, d2.Recovery.ReplayedBatches, k)
				}
				if got := reportBytes(t, d2.Store); !bytes.Equal(got, expect(k)) {
					t.Fatalf("cut %d (%d surviving batches): recovered report differs from reference", cut, k)
				}
				if err := d2.Close(); err != nil {
					t.Fatalf("cut %d: close: %v", cut, err)
				}
			}
		})
	}
}

// TestRecoverySnapshotAndTail covers the snapshot fast path: recovery
// loads the newest snapshot, replays only the tail, still survives a torn
// tail frame, and still honors pre-snapshot idempotency keys.
func TestRecoverySnapshotAndTail(t *testing.T) {
	recs, posts := crashDataset(t, 7)
	batches := raggedBatches(recs, posts, 7)
	half := len(batches) / 2
	dir := t.TempDir()
	d, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:half] {
		applyBatch(t, d.Store, b)
	}
	if err := d.snapshotNow(); err != nil {
		t.Fatal(err)
	}
	if got := d.LastSnapshotSeq(); got != uint64(half) {
		t.Fatalf("snapshot covers seq %d, want %d", got, half)
	}
	for _, b := range batches[half:] {
		applyBatch(t, d.Store, b)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	full := reportBytes(t, d.Store)

	// Clean recovery: snapshot + full tail replay, byte-identical.
	d2, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Recovery.SnapshotFound || d2.Recovery.SnapshotSeq != uint64(half) {
		t.Fatalf("recovery stats: %+v", d2.Recovery)
	}
	if d2.Recovery.ReplayedBatches != len(batches)-half {
		t.Fatalf("replayed %d, want %d", d2.Recovery.ReplayedBatches, len(batches)-half)
	}
	if got := reportBytes(t, d2.Store); !bytes.Equal(got, full) {
		t.Fatal("snapshot+tail recovery diverged from live store")
	}
	// A pre-snapshot batch replayed after recovery must still dedup to
	// its original acknowledgement.
	resp, dup, err := d2.Store.AddSessionsBatch(batches[0].id, batches[0].sessions)
	if err != nil || !dup || !resp.Duplicate {
		t.Fatalf("pre-snapshot batch not deduped after recovery: dup=%v err=%v", dup, err)
	}
	d2.Close()

	// Torn tail past the snapshot: truncate mid-way into the first frame
	// after the snapshot boundary — recovery = snapshot + zero tail.
	data, err := os.ReadFile(onlySegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	bounds := durable.FrameBoundaries(data)
	cut := bounds[half] - 2 // inside frame half (0-indexed): it is torn away
	sub := t.TempDir()
	if err := os.WriteFile(filepath.Join(sub, filepath.Base(onlySegment(t, dir))), data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	// The snapshot must come along for the recovery to use it.
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v", snaps)
	}
	sb, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, filepath.Base(snaps[0])), sb, 0o644); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenDurableStore(DurabilityOptions{Dir: sub, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if !d3.Recovery.SnapshotFound || !d3.Recovery.TornTail || d3.Recovery.ReplayedBatches != 0 {
		t.Fatalf("torn-tail-after-snapshot stats: %+v", d3.Recovery)
	}
	ref := &Store{}
	for _, b := range batches[:half] {
		applyBatch(t, ref, b)
	}
	if got := reportBytes(t, d3.Store); !bytes.Equal(got, reportBytes(t, ref)) {
		t.Fatal("snapshot-only recovery diverged from reference")
	}
	d3.Close()

	// Arrival order as an input: post batches in K delivery orders, a
	// snapshot taken mid-way. All 19 paths must be identical live, after
	// snapshot+tail recovery, and on a plain store fed the same posts as
	// one corpus-ordered batch.
	isp := recs[0].ISP
	postBatches := arrivalBatches(posts, "arrive")
	inOrder := &Store{}
	inOrder.AddSessions(recs)
	inOrder.AddPosts(inOrderPosts(postBatches))
	want := endpointBodies(t, inOrder, ServerOptions{}, isp)
	for perm := uint64(1); perm <= arrivalPermutations; perm++ {
		dopts := DurabilityOptions{Dir: t.TempDir(), Fsync: durable.FsyncOff}
		live, err := OpenDurableStore(dopts)
		if err != nil {
			t.Fatal(err)
		}
		delivered := permuteBatches(postBatches, perm)
		applyBatch(t, live.Store, ingestBatch{id: "sessions", sessions: recs})
		for i, b := range delivered {
			if i == len(delivered)/2 {
				if err := live.snapshotNow(); err != nil {
					t.Fatal(err)
				}
			}
			applyBatch(t, live.Store, b)
		}
		label := fmt.Sprintf("arrival permutation %d", perm)
		assertSameBodies(t, label+", live", endpointBodies(t, live.Store, ServerOptions{}, isp), want, isp)
		if err := live.Sync(); err != nil {
			t.Fatal(err)
		}
		recovered, err := OpenDurableStore(dopts)
		if err != nil {
			t.Fatal(err)
		}
		if !recovered.Recovery.SnapshotFound || recovered.Recovery.ReplayedBatches == 0 {
			t.Fatalf("%s: recovery did not take the snapshot+tail path: %+v", label, recovered.Recovery)
		}
		assertSameBodies(t, label+", recovered", endpointBodies(t, recovered.Store, ServerOptions{}, isp), want, isp)
		recovered.Close()
		live.Close()
	}
}

// TestSnapshotCompaction verifies the snapshotter truncates history: a
// snapshot at the log head lets every closed segment be removed, and the
// next recovery replays nothing.
func TestSnapshotCompaction(t *testing.T) {
	recs, posts := crashDataset(t, 9)
	batches := raggedBatches(recs, posts, 9)
	dir := t.TempDir()
	d, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		applyBatch(t, d.Store, b)
	}
	before, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(before) < 2 {
		t.Fatalf("want segment rotation, got %d segments", len(before))
	}
	if err := d.snapshotNow(); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(after) >= len(before) {
		t.Fatalf("compaction kept %d of %d segments", len(after), len(before))
	}
	if d.LastSnapshotSeq() != d.WALSeq() {
		t.Fatalf("snapshot at %d, log at %d", d.LastSnapshotSeq(), d.WALSeq())
	}
	live := reportBytes(t, d.Store)
	d.Close()

	d2, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Recovery.SnapshotFound || d2.Recovery.ReplayedBatches != 0 {
		t.Fatalf("post-compaction recovery stats: %+v", d2.Recovery)
	}
	if got := reportBytes(t, d2.Store); !bytes.Equal(got, live) {
		t.Fatal("post-compaction recovery diverged")
	}
	d2.Close()
}

// TestConcurrentIngestRecoveryEquivalence: N goroutines ingest ragged
// batches (with cross-goroutine duplicate deliveries) while the
// background snapshotter runs; a store recovered from the resulting disk
// state must agree with the live store on Counts(), /v1/stats, and the
// full report — the WAL records the actual interleaving, so recovery
// reproduces whatever order this run committed.
func TestConcurrentIngestRecoveryEquivalence(t *testing.T) {
	recs, posts := crashDataset(t, 11)
	batches := raggedBatches(recs, posts, 11)
	dir := t.TempDir()
	d, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff, SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	shared := batches[0] // every worker delivers this one; dedup admits one
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			applyBatch(t, d.Store, shared)
			for i := 1 + w; i < len(batches); i += workers {
				applyBatch(t, d.Store, batches[i])
				if i%3 == 0 {
					applyBatch(t, d.Store, batches[i]) // immediate duplicate
				}
			}
		}(w)
	}
	wg.Wait()
	if err := d.Close(); err != nil { // drains: final snapshot + fsync
		t.Fatal(err)
	}
	liveSessions, livePosts := d.Counts()
	wantSessions, wantPosts := len(recs), len(posts)
	if liveSessions != wantSessions || livePosts != wantPosts {
		t.Fatalf("live store %d/%d, want %d/%d (dedup failed?)", liveSessions, livePosts, wantSessions, wantPosts)
	}
	liveReport := reportBytes(t, d.Store)
	liveStats := statsBody(t, d.Store)

	rec, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	gotSessions, gotPosts := rec.Counts()
	if gotSessions != liveSessions || gotPosts != livePosts {
		t.Fatalf("recovered %d/%d, live %d/%d", gotSessions, gotPosts, liveSessions, livePosts)
	}
	if got := statsBody(t, rec.Store); !bytes.Equal(got, liveStats) {
		t.Fatalf("/v1/stats diverged: %s vs %s", got, liveStats)
	}
	if got := reportBytes(t, rec.Store); !bytes.Equal(got, liveReport) {
		t.Fatal("recovered report diverged from live store")
	}
}

// TestHTTPIngestDurability drives the wire-capture path: NDJSON bodies
// POSTed over HTTP are journaled verbatim (no re-encode), duplicates by
// batch ID produce no frames, and recovery from the resulting log is
// byte-identical to the live server's report.
func TestHTTPIngestDurability(t *testing.T) {
	recs, posts := crashDataset(t, 5)
	recs, posts = recs[:90], posts[:60]
	dir := t.TempDir()
	d, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(d.Store, ServerOptions{ResultCacheSize: -1}).Handler())
	defer srv.Close()

	post := func(path, batchID string, body []byte) *http.Response {
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		req.Header.Set(BatchIDHeader, batchID)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	sessWire, err := telemetry.AppendNDJSON(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	var postWire bytes.Buffer
	if err := social.WritePostsJSONL(&postWire, posts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // second round = duplicate deliveries
		if resp := post("/v1/sessions", "http-s1", sessWire); resp.StatusCode != 200 {
			t.Fatalf("sessions ingest: %d", resp.StatusCode)
		}
		if resp := post("/v1/posts", "http-p1", postWire.Bytes()); resp.StatusCode != 200 {
			t.Fatalf("posts ingest: %d", resp.StatusCode)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(onlySegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(durable.FrameBoundaries(data)); got != 2 {
		t.Fatalf("log holds %d frames, want 2 (duplicates must not be journaled)", got)
	}
	// The journaled payload is the wire body itself, not a re-encode.
	if !bytes.Contains(data, sessWire[:200]) {
		t.Fatal("session frame does not contain the wire body verbatim")
	}

	rec, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	ls, lp := d.Counts()
	rs, rp := rec.Counts()
	if rs != ls || rp != lp || rs != len(recs) || rp != len(posts) {
		t.Fatalf("recovered %d/%d, live %d/%d, ingested %d/%d", rs, rp, ls, lp, len(recs), len(posts))
	}
	if !bytes.Equal(reportBytes(t, rec.Store), reportBytes(t, d.Store)) {
		t.Fatal("recovery from HTTP-journaled log diverged")
	}
	d.Close()
}

// statsBody fetches /v1/stats over HTTP.
func statsBody(t testing.TB, store *Store) []byte {
	t.Helper()
	srv := httptest.NewServer(NewServer(store, ServerOptions{ResultCacheSize: -1}).Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("stats: %d %v", resp.StatusCode, err)
	}
	return b
}

// TestDurableFsyncModes smoke-tests each policy end to end.
func TestDurableFsyncModes(t *testing.T) {
	recs, _ := crashDataset(t, 13)
	for _, mode := range []durable.FsyncPolicy{durable.FsyncPerBatch, durable.FsyncInterval, durable.FsyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: mode, SnapshotEvery: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				lo, hi := i*len(recs)/6, (i+1)*len(recs)/6
				if _, _, err := d.AddSessionsBatch(fmt.Sprintf("m-%d", i), recs[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: mode})
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := d2.Counts(); got != len(recs)/6*6+len(recs)%6 {
				s, _ := d.Counts()
				t.Fatalf("recovered %d sessions, live had %d", got, s)
			}
			if got := reportBytes(t, d2.Store); !bytes.Equal(got, reportBytes(t, d.Store)) {
				t.Fatal("recovery diverged")
			}
			d2.Close()
		})
	}
}

// TestOpenDurableStoreFreshDir: a data dir that does not exist yet must
// be created, not rejected — recovery lists snapshots and log segments
// before the WAL open creates the directory, and both listings must
// treat a missing directory as simply empty.
func TestOpenDurableStoreFreshDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	d, err := OpenDurableStore(DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatalf("open on fresh dir: %v", err)
	}
	if _, _, err := d.AddSessionsBatch("b-1", []telemetry.SessionRecord{{CallID: 1, UserID: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurableStore(DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got, _ := d2.Counts(); got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
}

// TestCrashInCompactionWindow covers the two crash points inside
// snapshotNow's window: after the snapshot file is durable but before any
// covered segment is deleted, and after only some covered segments are
// deleted. Both must recover byte-identically — the snapshot wins and the
// stale segments are ignored — and the next snapshot pass converges the
// directory back to its compact form.
func TestCrashInCompactionWindow(t *testing.T) {
	recs, posts := crashDataset(t, 9)
	batches := raggedBatches(recs, posts, 9)
	dir := t.TempDir()
	opts := DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff, SegmentBytes: 4 << 10}
	d, err := OpenDurableStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		applyBatch(t, d.Store, b)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, d.Store)

	// First half of snapshotNow: write the snapshot. Crash before Compact —
	// every covered segment is still on disk next to the snapshot.
	st, seq := d.captureState()
	if err := durable.WriteSnapshot(dir, seq, func(w io.Writer) error {
		return encodeSnapshot(w, seq, st)
	}); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want several segments in the compaction window, got %v (err=%v)", segs, err)
	}
	sort.Strings(segs)

	d2, err := OpenDurableStore(opts)
	if err != nil {
		t.Fatalf("recovery with snapshot + uncompacted segments: %v", err)
	}
	if !d2.Recovery.SnapshotFound || d2.Recovery.SnapshotSeq != seq {
		t.Fatalf("recovery ignored the snapshot: %+v", d2.Recovery)
	}
	if d2.Recovery.ReplayedBatches != 0 {
		t.Fatalf("replayed %d batches the snapshot already covers", d2.Recovery.ReplayedBatches)
	}
	if got := reportBytes(t, d2.Store); !bytes.Equal(got, want) {
		t.Fatal("report differs after crash between snapshot write and compaction")
	}

	// Second crash point: compaction got through part of the covered range
	// before dying. Recovery must not mind the missing prefix.
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenDurableStore(opts)
	if err != nil {
		t.Fatalf("recovery with partially compacted segments: %v", err)
	}
	if got := reportBytes(t, d3.Store); !bytes.Equal(got, want) {
		t.Fatal("report differs after crash mid-compaction")
	}

	// Convergence: the next snapshot pass re-runs the whole window and
	// leaves a compact directory — one snapshot, no fully covered segments.
	extraRecs, _ := crashDataset(t, 10)
	applyBatch(t, d3.Store, ingestBatch{id: "window-extra", sessions: extraRecs[:20]})
	if err := d3.snapshotNow(); err != nil {
		t.Fatalf("re-compaction: %v", err)
	}
	leftSegs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(leftSegs) != 1 {
		t.Fatalf("re-compaction left %d segments, want 1 (active): %v", len(leftSegs), leftSegs)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("re-compaction left %d snapshots, want 1: %v", len(snaps), snaps)
	}
	want3 := reportBytes(t, d3.Store)
	if err := d3.Close(); err != nil {
		t.Fatal(err)
	}
	d4, err := OpenDurableStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d4.Close()
	if d4.Recovery.ReplayedBatches != 0 || !d4.Recovery.SnapshotFound {
		t.Fatalf("post-convergence recovery: %+v", d4.Recovery)
	}
	if got := reportBytes(t, d4.Store); !bytes.Equal(got, want3) {
		t.Fatal("report differs after converged re-compaction")
	}
}

// reportHTTPBytes fetches /v1/report over HTTP, literally.
func reportHTTPBytes(t testing.TB, store *Store) []byte {
	t.Helper()
	srv := httptest.NewServer(NewServer(store, ServerOptions{ResultCacheSize: -1}).Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("report: %d %v", resp.StatusCode, err)
	}
	return body
}

// readBodies renders every read endpoint of goldenReads on a node over the
// store, result cache off.
func readBodies(t testing.TB, store *Store, isp string) []string {
	t.Helper()
	h := NewServer(store, ServerOptions{ResultCacheSize: -1}).Handler()
	var out []string
	for _, rd := range goldenReads(isp) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, rd[1], nil))
		out = append(out, fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes()))
	}
	return out
}

// TestReportIdenticalAfterRecovery: a durable store recovered from disk
// must serve the same report bytes as (a) its own pre-crash self and (b) a
// plain store fed the same batches once — and so must every other read
// endpoint, though the live store folded its views (read halfway, so they
// were registered then) at ingest and the recovered one rebuilds them.
func TestReportIdenticalAfterRecovery(t *testing.T) {
	recs, posts := crashDataset(t, 34)
	isp := recs[0].ISP
	batches := raggedBatches(recs, posts, 34)
	dir := t.TempDir()
	d, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff, SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		applyBatch(t, d.Store, b)
		if i == len(batches)/2 {
			readBodies(t, d.Store, isp)
		}
	}
	liveReads := readBodies(t, d.Store, isp)
	live := reportHTTPBytes(t, d.Store)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !bytes.Equal(reportHTTPBytes(t, rec.Store), live) {
		t.Fatal("recovered report differs from pre-crash report")
	}

	once := &Store{}
	for _, b := range batches {
		applyBatch(t, once, b)
	}
	if !bytes.Equal(reportHTTPBytes(t, once), live) {
		t.Fatal("recovered report differs from a store fed the batches once")
	}
	for name, got := range map[string][]string{"recovered": readBodies(t, rec.Store, isp), "fed once": readBodies(t, once, isp)} {
		for i, rd := range goldenReads(isp) {
			if got[i] != liveReads[i] {
				t.Errorf("%s: %s differs from the live store\n got: %.300s\nwant: %.300s", name, rd[1], got[i], liveReads[i])
			}
		}
	}
}
