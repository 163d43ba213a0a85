package usaas

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"usersignals/internal/durable"
)

// inflightBatch pairs one async delivery's commit ticket with its apply job.
type inflightBatch struct {
	id  string
	tk  *durable.Ticket
	job *applyJob
}

// ingestAsyncJob sequences one batch without waiting for its apply or fsync.
func ingestAsyncJob(t testing.TB, s *Store, b ingestBatch) inflightBatch {
	t.Helper()
	var (
		tk  *durable.Ticket
		job *applyJob
		err error
	)
	if b.sessions != nil {
		_, _, tk, job, err = s.addSessionsBatchAsync(b.id, b.sessions, nil, false)
	} else {
		_, _, tk, job, err = s.addPostsBatchAsync(b.id, b.posts, nil, false)
	}
	if err != nil {
		t.Fatalf("batch %s: %v", b.id, err)
	}
	return inflightBatch{id: b.id, tk: tk, job: job}
}

// pipelineOptions is the durable configuration the pipeline tests run under:
// group commit with a short linger, segment rotation left at the default.
func pipelineOptions(dir string, workers int) DurabilityOptions {
	return DurabilityOptions{
		Dir:           dir,
		Fsync:         durable.FsyncPerBatch,
		GroupCommit:   true,
		MaxGroupDelay: time.Millisecond,
		ApplyWorkers:  workers,
	}
}

// TestApplyPipelineReportByteIdentity is the tentpole contract: the same
// batch sequence — duplicates included — pushed through the apply pipeline
// at any worker count must produce a /v1/report byte-identical to serial
// inline apply. Batches are sequenced in order but their applies race on
// the worker pool with many jobs in flight at once.
func TestApplyPipelineReportByteIdentity(t *testing.T) {
	const seed = 21
	recs, posts := crashDataset(t, seed)
	batches := raggedBatches(recs, posts, seed)

	// Serial oracle: a plain in-memory store, batch by batch.
	ref := &Store{}
	for _, b := range batches {
		applyBatch(t, ref, b)
	}
	want := reportBytes(t, ref)

	for _, workers := range []int{0, 1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d, err := OpenDurableStore(pipelineOptions(t.TempDir(), workers))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			inflight := make([]inflightBatch, 0, len(batches))
			for i, b := range batches {
				inflight = append(inflight, ingestAsyncJob(t, d.Store, b))
				// Re-deliver every fifth batch immediately, while its apply
				// may still be queued: must dedup without a new job.
				if i%5 == 2 {
					var dup bool
					var derr error
					if b.sessions != nil {
						_, dup, _, _, derr = d.Store.addSessionsBatchAsync(b.id, b.sessions, nil, false)
					} else {
						_, dup, _, _, derr = d.Store.addPostsBatchAsync(b.id, b.posts, nil, false)
					}
					if derr != nil || !dup {
						t.Fatalf("redelivery of %s: dup=%v err=%v", b.id, dup, derr)
					}
				}
			}
			for _, f := range inflight {
				if f.job != nil {
					<-f.job.done
				}
				if err := d.Store.finishIngest(f.id, f.tk); err != nil {
					t.Fatalf("batch %s: %v", f.id, err)
				}
			}
			if got := reportBytes(t, d.Store); !bytes.Equal(got, want) {
				t.Fatalf("report bytes diverge from serial apply at %d workers", workers)
			}
		})
	}

	// Arrival order as an input: the same sessions in generator order, the
	// same multiset of post batches in K delivery orders, through the
	// pipeline at every width — all 19 paths must equal a plain store fed
	// the posts as one corpus-ordered batch.
	isp := recs[0].ISP
	postBatches := arrivalBatches(posts, "arrive")
	inOrder := &Store{}
	inOrder.AddSessions(recs)
	inOrder.AddPosts(inOrderPosts(postBatches))
	wantBodies := endpointBodies(t, inOrder, ServerOptions{}, isp)
	for perm := uint64(1); perm <= arrivalPermutations; perm++ {
		workers := []int{0, 1, 4, 16}[perm]
		d, err := OpenDurableStore(pipelineOptions(t.TempDir(), workers))
		if err != nil {
			t.Fatal(err)
		}
		inflight := []inflightBatch{ingestAsyncJob(t, d.Store, ingestBatch{id: "sessions", sessions: recs})}
		for _, b := range permuteBatches(postBatches, perm) {
			inflight = append(inflight, ingestAsyncJob(t, d.Store, b))
		}
		for _, f := range inflight {
			<-f.job.done
			if err := d.Store.finishIngest(f.id, f.tk); err != nil {
				t.Fatalf("batch %s: %v", f.id, err)
			}
		}
		label := fmt.Sprintf("arrival permutation %d at %d workers", perm, workers)
		assertSameBodies(t, label, endpointBodies(t, d.Store, ServerOptions{}, isp), wantBodies, isp)
		d.Close()
	}
}

// TestCrashRecoveryMidApplyQueue: acknowledgement is gated on the fsync, not
// on the apply — so a crash may hit while acked batches still sit in the
// apply queue. The WAL alone must rebuild the full store: recovery of a log
// copied at that instant yields a report byte-identical to serial ingest of
// every acked batch.
func TestCrashRecoveryMidApplyQueue(t *testing.T) {
	const seed = 22
	recs, posts := crashDataset(t, seed)
	batches := raggedBatches(recs, posts, seed)

	ref := &Store{}
	for _, b := range batches {
		applyBatch(t, ref, b)
	}
	want := reportBytes(t, ref)

	dir := t.TempDir()
	d, err := OpenDurableStore(pipelineOptions(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Slow the appliers so the queue is observably behind the log.
	d.Store.applyDelay.Store(int64(2 * time.Millisecond))
	inflight := make([]inflightBatch, 0, len(batches))
	for _, b := range batches {
		inflight = append(inflight, ingestAsyncJob(t, d.Store, b))
	}
	// Wait out only the commit tickets: every batch is acknowledged and
	// durable, while applies drain behind the delay.
	for _, f := range inflight {
		if err := d.Store.finishIngest(f.id, f.tk); err != nil {
			t.Fatalf("batch %s: %v", f.id, err)
		}
	}

	// "Crash": copy the log as it is right now, before the queue drains.
	crashDir := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("globbing segments: %v (%d found)", err, len(segs))
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pendingApplies := 0
	for _, f := range inflight {
		if f.job != nil && !resolvedJob(f.job) {
			pendingApplies++
		}
	}
	t.Logf("copied %d segments with %d/%d applies still pending", len(segs), pendingApplies, len(inflight))

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurableStore(pipelineOptions(crashDir, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovery.ReplayedBatches != len(batches) {
		t.Fatalf("recovered %d batches, acked %d", r.Recovery.ReplayedBatches, len(batches))
	}
	if got := reportBytes(t, r.Store); !bytes.Equal(got, want) {
		t.Fatal("report after crash-mid-apply-queue recovery diverges from serial ingest")
	}
}

func resolvedJob(j *applyJob) bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// TestConcurrentDuplicateDeliveries races N deliveries of the SAME batch ID
// against each other and the apply queue: exactly one must be applied and
// journaled, and every loser must receive the winner's acknowledgement.
func TestConcurrentDuplicateDeliveries(t *testing.T) {
	const racers = 8
	recs, _ := crashDataset(t, 23)
	batch := recs[:40]

	dir := t.TempDir()
	d, err := OpenDurableStore(pipelineOptions(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	d.Store.applyDelay.Store(int64(5 * time.Millisecond)) // hold the queue open across the race
	acks := make([]IngestResponse, racers)
	dups := make([]bool, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, dup, err := d.Store.AddSessionsBatch("race-1", batch)
			if err != nil {
				t.Errorf("racer %d: %v", i, err)
				return
			}
			acks[i], dups[i] = resp, dup
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	accepted := 0
	for i := 0; i < racers; i++ {
		if !dups[i] {
			accepted++
		}
		if acks[i].Accepted != len(batch) || acks[i].TotalSessions != len(batch) {
			t.Fatalf("racer %d ack %+v: want accepted=%d total_sessions=%d", i, acks[i], len(batch), len(batch))
		}
		if dups[i] != acks[i].Duplicate {
			t.Fatalf("racer %d: dup=%v but ack.Duplicate=%v", i, dups[i], acks[i].Duplicate)
		}
	}
	if accepted != 1 {
		t.Fatalf("%d racers were accepted as originals, want exactly 1", accepted)
	}
	if sess, _ := d.Store.Counts(); sess != len(batch) {
		t.Fatalf("store holds %d sessions, want one application of %d", sess, len(batch))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The WAL must hold exactly one frame: duplicates are never journaled.
	r, err := OpenDurableStore(pipelineOptions(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovery.ReplayedBatches != 1 {
		t.Fatalf("WAL replayed %d batches, want exactly 1", r.Recovery.ReplayedBatches)
	}
}

// TestPostReadsDuringSustainedIngest: reads of the post shard — the social view
// the handlers serve from, and the Corpus() materialisation — neither block
// nor livelock while post batches land continuously, and each covers every
// post acknowledged before it began. (A read is one shard-lock copy; the
// rebuild loop and singleflight this test was written against are gone.)
func TestPostReadsDuringSustainedIngest(t *testing.T) {
	_, posts := crashDataset(t, 24)
	if len(posts) < 40 {
		t.Fatalf("dataset too small: %d posts", len(posts))
	}
	s := &Store{}
	if err := s.AddPosts(posts[:10]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var acked atomic.Int64
	acked.Store(10)
	var ingestErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Continuous small-batch post ingest, out of order as often as not:
		// every batch bumps postGen and many fold a day again.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b := posts[10+(i*7)%(len(posts)-20):][:2]
			if err := s.AddPosts(b); err != nil {
				ingestErr = err
				return
			}
			acked.Add(2)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	deadline := time.After(60 * time.Second)
	for i := 0; i < 12; i++ {
		floor := int(acked.Load())
		got := make(chan [2]int, 1)
		go func() {
			v, c := s.social(), s.Corpus()
			got <- [2]int{v.posts, c.Len()}
		}()
		select {
		case n := <-got:
			if n[0] < floor || n[1] < n[0] {
				t.Fatalf("reads cover %d (view) and %d (corpus) posts; %d were acknowledged before they began", n[0], n[1], floor)
			}
		case <-deadline:
			t.Fatal("post-shard reads failed to terminate under sustained post ingest")
		}
	}
	close(stop)
	wg.Wait()
	if ingestErr != nil {
		t.Fatal(ingestErr)
	}
}

// TestPostReadsConcurrentWithIngest: concurrent readers of the post shard
// beside ingest all terminate, see a consistent shard (the view's post count
// is the sum of its days'), and never see it shrink.
func TestPostReadsConcurrentWithIngest(t *testing.T) {
	_, posts := crashDataset(t, 25)
	s := &Store{}
	if err := s.AddPosts(posts[:20]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := 0
			for i := 0; i < 10; i++ {
				if g == 0 && 20+2*i < len(posts) {
					if err := s.AddPosts(posts[20+2*i:][:1]); err != nil {
						t.Error(err)
						return
					}
				}
				v := s.social()
				sum := 0
				for _, a := range v.days {
					sum += a.Posts
				}
				if sum != v.posts || v.posts < seen {
					t.Errorf("view holds %d posts, its days %d, an earlier view %d", v.posts, sum, seen)
					return
				}
				seen = v.posts
				if c := s.Corpus(); c.Len() < seen {
					t.Errorf("corpus holds %d posts after a view of %d", c.Len(), seen)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent post-shard readers failed to terminate")
	}
}

// TestRotationUnderGroupCommit forces segment rotation every few frames
// while the group-commit scheduler is live: rotation must neither stall the
// sequencer on an inline fsync nor lose durability for frames in retired
// segments, and recovery over the many-segment log must rebuild the store
// byte-identically.
func TestRotationUnderGroupCommit(t *testing.T) {
	const seed = 26
	recs, posts := crashDataset(t, seed)
	batches := raggedBatches(recs, posts, seed)

	ref := &Store{}
	for _, b := range batches {
		applyBatch(t, ref, b)
	}
	want := reportBytes(t, ref)

	dir := t.TempDir()
	opts := pipelineOptions(dir, 2)
	opts.SegmentBytes = 16 * 1024 // rotate every few frames
	d, err := OpenDurableStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	inflight := make([]inflightBatch, 0, len(batches))
	for _, b := range batches {
		inflight = append(inflight, ingestAsyncJob(t, d.Store, b))
	}
	for _, f := range inflight {
		if f.job != nil {
			<-f.job.done
		}
		if err := d.Store.finishIngest(f.id, f.tk); err != nil {
			t.Fatalf("batch %s: %v", f.id, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments; rotation pressure did not materialize", len(segs))
	}

	r, err := OpenDurableStore(pipelineOptions(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovery.ReplayedBatches != len(batches) {
		t.Fatalf("recovered %d batches across %d segments, want %d", r.Recovery.ReplayedBatches, len(segs), len(batches))
	}
	if got := reportBytes(t, r.Store); !bytes.Equal(got, want) {
		t.Fatal("report after multi-segment group-commit recovery diverges")
	}
}

// TestGroupCommitLingerBound: with steady concurrent arrivals, no ticket may
// wait much past MaxGroupDelay — the linger deadline anchors at the oldest
// pending frame's enqueue, so later arrivals must NOT extend an open group's
// wait (the old wake-anchored timer restarted the full delay on every
// arrival, and sustained ingest pushed tail waits to multiples of it).
func TestGroupCommitLingerBound(t *testing.T) {
	const maxDelay = 100 * time.Millisecond
	recs, _ := crashDataset(t, 27)
	d, err := OpenDurableStore(DurabilityOptions{
		Dir:           t.TempDir(),
		Fsync:         durable.FsyncPerBatch,
		GroupCommit:   true,
		MaxGroupDelay: maxDelay,
		MaxGroupBytes: 1 << 30, // never seal on size: the timer is under test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var mu sync.Mutex
	var worst time.Duration
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				id := fmt.Sprintf("linger-%d-%d", c, i)
				start := time.Now()
				if _, _, err := d.Store.AddSessionsBatch(id, recs[:8]); err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
				el := time.Since(start)
				mu.Lock()
				if el > worst {
					worst = el
				}
				mu.Unlock()
				time.Sleep(maxDelay / 4) // steady arrivals into open groups
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Bound: enqueue-anchored linger + one fsync + scheduler slack. The old
	// restart-on-wake behavior exceeds this with arrivals every delay/4.
	limit := 3 * maxDelay
	if worst > limit {
		t.Fatalf("worst ticket wait %v exceeds %v (maxDelay %v): linger restarting on arrivals", worst, limit, maxDelay)
	}
	t.Logf("worst ticket wait %v (maxDelay %v)", worst, maxDelay)
}

// TestReadYourAckedWrites: a read issued after an acknowledged ingest must
// see that ingest, at any worker count — the fence contract.
func TestReadYourAckedWrites(t *testing.T) {
	recs, posts := crashDataset(t, 28)
	d, err := OpenDurableStore(pipelineOptions(t.TempDir(), 8))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Store.applyDelay.Store(int64(time.Millisecond))
	wantSessions, wantPosts := 0, 0
	for i := 0; i < 10; i++ {
		lo := i * 20
		if _, _, err := d.Store.AddSessionsBatch(fmt.Sprintf("ryw-s%d", i), recs[lo:lo+20]); err != nil {
			t.Fatal(err)
		}
		wantSessions += 20
		if _, _, err := d.Store.AddPostsBatch(fmt.Sprintf("ryw-p%d", i), posts[i*5:(i+1)*5]); err != nil {
			t.Fatal(err)
		}
		wantPosts += 5
		sess, ps := d.Store.Counts()
		if sess != wantSessions || ps != wantPosts {
			t.Fatalf("after ack %d: Counts() = (%d, %d), want (%d, %d)", i, sess, ps, wantSessions, wantPosts)
		}
	}
}
