package usaas

import (
	"sync"
	"time"

	"usersignals/internal/social"
	"usersignals/internal/telemetry"
)

// This file is the apply side of the parse→journal→apply ingest pipeline.
//
// Sequencing (addSessionsBatchAsync / addPostsBatchAsync, under ingestMu)
// performs only the serialized work: the dedup check, the WAL frame write,
// and the acknowledgement bookkeeping. Applying the batch to the in-memory
// state — the row append and the materialized-view folds — is packaged
// into an applyJob and executed OUTSIDE the sequencing lock, either inline
// on the ingesting goroutine (no pipeline attached: plain stores, tests,
// recovery replay) or by a bounded worker pool (StartApplyPipeline /
// DurabilityOptions.ApplyWorkers), so concurrent HTTP handlers overlap
// parsing, the group-commit fsync wait, and the apply work instead of
// convoying on one store mutex.
//
// Byte-identity is preserved by construction: jobs of the same kind form a
// turn chain (each job waits for the previous same-kind job's done channel
// before touching the store), so apply order always equals WAL append order
// per kind — exactly the order crash-recovery replay applies the same
// frames in. Session state and post state share no folds, so cross-kind
// ordering is free to float; acknowledgement totals, which DO couple the
// kinds, are computed at sequence time from predicted counters (seqSessions
// / seqPosts) and therefore match what a fully serial apply would have
// acked, byte for byte.
type applyJob struct {
	kind  byte // recSessions or recPosts
	recs  []telemetry.SessionRecord
	posts []social.Post
	// prev is the done channel of the previously sequenced job of the same
	// kind (nil for the first): the per-kind turn chain.
	prev <-chan struct{}
	// done is closed once the job is applied; fences, sync ingest callers,
	// and the next same-kind job wait on it.
	done chan struct{}
	// pooled marks record slices owned by the handler slice pool; the
	// applier returns them after the fold (every fold copies values out).
	pooled bool
}

// applyPipeline is the bounded worker pool. Jobs are enqueued in sequence
// order under ingestMu (so queue order = sequence order, and a detach can
// never race a send with the channel close); a full queue blocks sequencing
// — backpressure, not unbounded memory.
type applyPipeline struct {
	queue chan *applyJob
	wg    sync.WaitGroup
}

func newApplyPipeline(s *Store, workers int) *applyPipeline {
	depth := 4 * workers
	if depth < 16 {
		depth = 16
	}
	p := &applyPipeline{queue: make(chan *applyJob, depth)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range p.queue {
				s.runJob(job)
			}
		}()
	}
	return p
}

// StartApplyPipeline attaches a worker pool of the given size to the store;
// subsequent ingest applies batches asynchronously (acknowledgement still
// waits for the covering fsync; visibility is gated on apply, which readers
// wait out via the fences below). workers <= 0 or a pipeline already
// attached is a no-op. Byte-identity does not depend on the worker count.
func (s *Store) StartApplyPipeline(workers int) {
	if workers <= 0 {
		return
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.pipe == nil {
		s.pipe = newApplyPipeline(s, workers)
	}
}

// StopApplyPipeline detaches the worker pool, drains every queued job, and
// joins the workers. Ingest sequenced after the detach applies inline.
func (s *Store) StopApplyPipeline() {
	s.ingestMu.Lock()
	p := s.pipe
	s.pipe = nil
	s.ingestMu.Unlock()
	if p == nil {
		return
	}
	close(p.queue)
	p.wg.Wait()
}

// runJob waits its turn in the per-kind chain, folds the batch into the
// store under that kind's shard lock, recycles pooled buffers, and releases
// the jobs (and fences) waiting behind it. Called exactly once per job.
func (s *Store) runJob(job *applyJob) {
	// Reading the posts (OCR, tokenising, scoring) is the expensive part of
	// post ingest and needs neither the shard lock nor the job's turn: do
	// it first, while the batch's fsync and the jobs ahead are in flight.
	// Only accepted batches become jobs, so a duplicate costs none of it.
	var staged stagedPosts
	if job.kind == recPosts {
		staged = s.stagePosts(job.posts)
	}
	if job.prev != nil {
		<-job.prev
	}
	if d := time.Duration(s.applyDelay.Load()); d > 0 {
		time.Sleep(d) // test hook: hold the apply queue open
	}
	switch job.kind {
	case recSessions:
		s.applySessions(job.recs)
		if job.pooled {
			putSessionSlice(job.recs)
		}
	case recPosts:
		s.applyPosts(job.posts, staged)
		if job.pooled {
			putPostSlice(job.posts)
		}
	}
	close(job.done)
}

// applySessions folds a sequenced session batch into the row store and the
// session views. Jobs arrive here in sequence order (turn chain), so the
// fold stream is identical to serial ingest; recovery restores a snapshot's
// sessions through the same call.
// The chunked row store (rows.go) makes the append copy only the batch:
// published rows are never reallocated, zeroed, or moved again.
func (s *Store) applySessions(recs []telemetry.SessionRecord) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.sessions.append(recs)
	if len(recs) > 0 {
		s.sessGen++
		s.views.foldSessions(recs, s.sessGen)
	}
}

// fenceSessions blocks until every session batch sequenced before the call
// has been applied. Read accessors fence before taking the shard lock so
// the store keeps read-your-acked-writes semantics with the apply queue in
// flight: an ingest acknowledged (or even just sequenced) before a read is
// visible to that read. The wait is bounded by the queue depth — jobs
// sequenced after the fence snapshot do not extend it.
func (s *Store) fenceSessions() {
	if ch, ok := s.sessFence.Load().(chan struct{}); ok && ch != nil {
		<-ch
	}
}

// fencePosts is fenceSessions for the post shard.
func (s *Store) fencePosts() {
	if ch, ok := s.postFence.Load().(chan struct{}); ok && ch != nil {
		<-ch
	}
}

// appendGrown is append with explicit doubling, used for the post shard's
// stem arena (sessions moved to chunked blocks in rows.go). For slices past a few
// hundred elements Go's builtin grows by only ~1.25x, which on a
// multi-gigabyte ingest run reallocates, zeroes, and copies the backing
// array far more often than doubling does (alloc+zero+copy traffic is
// cap·f/(f−1) + cap/(f−1): ~9·len at f=1.25 vs ~3·len at f=2) — that
// zeroing was ~18% of the ingest CPU profile. Growth happens under the
// shard lock, but only on the doubling boundary.
func appendGrown[T any](dst []T, src []T) []T {
	need := len(dst) + len(src)
	if need > cap(dst) {
		newCap := 2 * cap(dst)
		if newCap < 1024 {
			newCap = 1024
		}
		for newCap < need {
			newCap *= 2
		}
		grown := make([]T, len(dst), newCap)
		copy(grown, dst)
		dst = grown
	}
	return append(dst, src...)
}

// Handler-side slice pools: the NDJSON parse appends into a pooled slice,
// ownership passes to the applyJob, and the applier recycles it after the
// fold (every fold path copies record values out, so nothing references the
// backing array afterwards). On a duplicate or a journal error ownership
// never transfers and the handler releases the slice itself.
var sessionSlices = sync.Pool{New: func() any { return make([]telemetry.SessionRecord, 0, 256) }}

var postSlices = sync.Pool{New: func() any { return make([]social.Post, 0, 128) }}

func getSessionSlice() []telemetry.SessionRecord {
	return sessionSlices.Get().([]telemetry.SessionRecord)[:0]
}

func putSessionSlice(s []telemetry.SessionRecord) {
	if cap(s) > 0 {
		sessionSlices.Put(s[:0])
	}
}

func getPostSlice() []social.Post {
	return postSlices.Get().([]social.Post)[:0]
}

func putPostSlice(s []social.Post) {
	if cap(s) > 0 {
		postSlices.Put(s[:0])
	}
}
