package durable

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

// walBytes concatenates every segment in order — the byte-identity oracle.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
	}
	return buf.Bytes()
}

func groupOpts(extra func(*Options)) Options {
	o := Options{Fsync: FsyncPerBatch, GroupCommit: true}
	if extra != nil {
		extra(&o)
	}
	return o
}

// TestGroupCommitBytesIdenticalToSerial pipelines appends through the
// scheduler (AppendAsync, waiting only at the end) and requires the log
// bytes to equal a serial fsync-per-batch log of the same records. Group
// commit may only change the fsync schedule, never the bytes — PR-5 crash
// recovery and PR-7 replication both hang off that invariant.
func TestGroupCommitBytesIdenticalToSerial(t *testing.T) {
	const n = 200
	serialDir := t.TempDir()
	sw, err := OpenWAL(serialDir, 0, Options{Fsync: FsyncPerBatch, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustAppend(t, sw, rec(i))
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	groupDir := t.TempDir()
	gw, err := OpenWAL(groupDir, 0, groupOpts(func(o *Options) { o.SegmentBytes = 4096 }))
	if err != nil {
		t.Fatal(err)
	}
	tickets := make([]*Ticket, 0, n)
	for i := 0; i < n; i++ {
		seq, tk, err := gw.AppendAsync(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(walBytes(t, serialDir), walBytes(t, groupDir)) {
		t.Fatal("group-commit log bytes differ from serial appends")
	}
	got, info := collect(t, groupDir, 0)
	if len(got) != n || info.Torn {
		t.Fatalf("replayed %d torn=%v", len(got), info.Torn)
	}
}

// TestGroupCommitConcurrentAppends hammers AppendAsync from many goroutines
// (run under -race in CI): every ticket must resolve nil, every record must
// replay exactly once, and the scheduler must actually have amortized —
// fewer fsync groups than batches.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, groupOpts(func(o *Options) { o.SegmentBytes = 8192 }))
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perW    = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*perW)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				r := Record{Type: 1, BatchID: fmt.Sprintf("w%02d-%04d", g, i), Payload: bytes.Repeat([]byte{byte(g)}, 64)}
				_, tk, err := w.AppendAsync(r)
				if err != nil {
					errs <- err
					return
				}
				if err := tk.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m, ok := w.CommitMetrics()
	if !ok {
		t.Fatal("CommitMetrics not available with scheduler attached")
	}
	if m.Batches != workers*perW {
		t.Fatalf("metrics counted %d batches, want %d", m.Batches, workers*perW)
	}
	if m.Groups == 0 || m.Groups > m.Batches {
		t.Fatalf("groups=%d batches=%d", m.Groups, m.Batches)
	}
	var histTotal uint64
	for _, c := range m.GroupSizeHist {
		histTotal += c
	}
	if histTotal != m.Groups {
		t.Fatalf("histogram sums to %d, want %d groups", histTotal, m.Groups)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, info := collect(t, dir, 0)
	if len(got) != workers*perW || info.Torn {
		t.Fatalf("replayed %d torn=%v", len(got), info.Torn)
	}
	seen := make(map[string]bool, len(got))
	for _, r := range got {
		if seen[r.BatchID] {
			t.Fatalf("batch %s replayed twice", r.BatchID)
		}
		seen[r.BatchID] = true
	}
}

// TestGroupCommitLingerForms a real multi-frame group: with a generous
// MaxGroupDelay, appends issued while the scheduler lingers commit as one
// group, and the max-bytes threshold seals a group early.
func TestGroupCommitLingerFormsGroups(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, groupOpts(func(o *Options) {
		o.MaxGroupDelay = 200 * time.Millisecond
		o.MaxGroupBytes = 1 << 20
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 5
	tickets := make([]*Ticket, 0, n)
	for i := 0; i < n; i++ {
		_, tk, err := w.AppendAsync(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := w.CommitMetrics()
	if m.Batches != n {
		t.Fatalf("batches=%d want %d", m.Batches, n)
	}
	if m.Groups >= n {
		t.Fatalf("lingering scheduler formed %d groups for %d batches; wanted amortization", m.Groups, n)
	}
	if m.MaxGroup < 2 {
		t.Fatalf("max group %d, want >= 2", m.MaxGroup)
	}
}

// TestGroupCommitMaxBytesSealsEarly: a tiny MaxGroupBytes must seal the
// group as soon as one frame lands, even though MaxGroupDelay is far
// longer than the test is willing to wait.
func TestGroupCommitMaxBytesSealsEarly(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, groupOpts(func(o *Options) {
		o.MaxGroupDelay = time.Hour
		o.MaxGroupBytes = 1 // any frame exceeds this
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	_, tk, err := w.AppendAsync(rec(0))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("ticket did not resolve: max-bytes seal did not fire")
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestTicketWaitersShareOneResult: every goroutine waiting on one ticket
// gets the same result of the covering fsync — nil when it succeeds, the one
// error when it fails — and Resolved flips only when the group resolves. A
// long MaxGroupDelay holds the group open until a frame that crosses
// MaxGroupBytes seals it, so the test decides when the fsync runs.
func TestTicketWaitersShareOneResult(t *testing.T) {
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("fsync_fails=%v", fail), func(t *testing.T) {
			w, err := OpenWAL(t.TempDir(), 0, groupOpts(func(o *Options) {
				o.MaxGroupDelay = time.Hour
				o.MaxGroupBytes = 4096
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			seal := Record{Type: 1, BatchID: "seal", Payload: bytes.Repeat([]byte{7}, 8192)}
			// Prime the active segment; the frame alone seals its group.
			if _, err := w.Append(seal); err != nil {
				t.Fatal(err)
			}
			if fail {
				// A pipe takes the writes and fails the fsync (see
				// TestGroupCommitPoisonedAfterFsyncFailure).
				pr, pw, err := os.Pipe()
				if err != nil {
					t.Fatal(err)
				}
				defer pr.Close()
				defer pw.Close()
				w.mu.Lock()
				good := w.f
				w.f = pw
				w.mu.Unlock()
				defer func() {
					w.mu.Lock()
					w.f = good
					w.mu.Unlock()
				}()
			}

			_, tk, err := w.AppendAsync(rec(1))
			if err != nil {
				t.Fatal(err)
			}
			const waiters = 8
			results := make(chan error, waiters)
			for i := 0; i < waiters; i++ {
				go func() { results <- tk.Wait() }()
			}
			if tk.Resolved() {
				t.Fatal("ticket resolved while its group was still open")
			}
			_, sealed, err := w.AppendAsync(seal)
			if err != nil {
				t.Fatal(err)
			}
			want := sealed.Wait()
			if fail != (want != nil) {
				t.Fatalf("covering fsync result %v, want a failure: %v", want, fail)
			}
			for i := 0; i < waiters; i++ {
				if got := <-results; got != want {
					t.Errorf("waiter %d got %v, the group's fsync gave %v", i, got, want)
				}
			}
			if !tk.Resolved() {
				t.Error("ticket not resolved after its waiters returned")
			}
		})
	}
}

// TestGroupCommitCloseFlushesPending: tickets outstanding at Close must
// resolve (durably) rather than hang or be dropped.
func TestGroupCommitCloseFlushesPending(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, groupOpts(func(o *Options) {
		o.MaxGroupDelay = time.Hour // scheduler would linger ~forever
		o.MaxGroupBytes = 1 << 30
	}))
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		_, tk, err := w.AppendAsync(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	done := make(chan error, 1)
	go func() { done <- w.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung with pending commit group")
	}
	for i, tk := range tickets {
		if !tk.Resolved() {
			t.Fatalf("ticket %d unresolved after Close", i)
		}
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	got, _ := collect(t, dir, 0)
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
}

// TestGroupCommitRotationUnderLoad drives concurrent appends across many
// segment rotations: retired handles must be released, not closed under a
// scheduler fsync, and every record must survive.
func TestGroupCommitRotationUnderLoad(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, groupOpts(func(o *Options) { o.SegmentBytes = 512 }))
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 4
		perW    = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				r := Record{Type: 1, BatchID: fmt.Sprintf("r%02d-%04d", g, i), Payload: bytes.Repeat([]byte{0xAB}, 90)}
				_, tk, err := w.AppendAsync(r)
				if err != nil {
					errs <- err
					return
				}
				if err := tk.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	got, info := collect(t, dir, 0)
	if len(got) != workers*perW || info.Torn {
		t.Fatalf("replayed %d torn=%v", len(got), info.Torn)
	}
}

// TestGroupCommitPoisonedAfterFsyncFailure: a failed group fsync must fail
// every ticket in the group and reject subsequent appends — never
// acknowledge a batch the log cannot promise to persist.
func TestGroupCommitPoisonedAfterFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, groupOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Prime the log so the active segment exists, then sabotage the handle:
	// a pipe accepts writes but fails fsync (EINVAL), so the frame write
	// succeeds and the failure surfaces exactly where group commit must
	// catch it — at the covering fsync.
	if _, err := w.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()
	w.mu.Lock()
	good := w.f
	w.f = pw
	w.mu.Unlock()

	_, tk, err := w.AppendAsync(rec(1))
	if err != nil {
		t.Fatalf("append to pipe failed at write, not fsync: %v", err)
	}
	if werr := tk.Wait(); werr == nil {
		t.Fatal("ticket resolved nil despite failing fsync")
	}
	// Scheduler is now poisoned; further appends must be rejected.
	if _, _, err := w.AppendAsync(rec(2)); err == nil {
		t.Fatal("append accepted on poisoned group-commit log")
	}
	// Restore the real handle so Close can run cleanly.
	w.mu.Lock()
	w.f = good
	w.mu.Unlock()
}

// TestAppendAsyncResolvedUnderNonBatchPolicies: without the scheduler the
// ticket is pre-resolved, so callers can append-then-Wait unconditionally.
func TestAppendAsyncResolvedUnderNonBatchPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncInterval, FsyncOff, FsyncPerBatch} {
		dir := t.TempDir()
		// GroupCommit is requested but must only attach under FsyncPerBatch.
		w, err := OpenWAL(dir, 0, Options{Fsync: p, GroupCommit: p != FsyncPerBatch})
		if err != nil {
			t.Fatal(err)
		}
		_, tk, err := w.AppendAsync(rec(0))
		if err != nil {
			t.Fatal(err)
		}
		if !tk.Resolved() {
			t.Fatalf("policy %v: ticket not pre-resolved without scheduler", p)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupCommitReopenAfterClose: a group-commit WAL must recover like any
// other — close, reopen with the scheduler, keep appending.
func TestGroupCommitReopenAfterClose(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, groupOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, w, rec(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, 0, groupOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.Seq(); got != 5 {
		t.Fatalf("reopened seq %d, want 5", got)
	}
	for i := 5; i < 10; i++ {
		mustAppend(t, w2, rec(i))
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, dir, 0)
	if len(got) != 10 {
		t.Fatalf("replayed %d, want 10", len(got))
	}
}

func TestSizeBucket(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5, 32: 5, 33: 6, 1000: 6}
	for n, want := range cases {
		if got := sizeBucket(n); got != want {
			t.Errorf("sizeBucket(%d) = %d, want %d", n, got, want)
		}
	}
}
