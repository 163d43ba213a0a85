package usaas

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"usersignals/internal/durable"
	"usersignals/internal/social"
	"usersignals/internal/telemetry"
)

// This file ties the in-memory Store to internal/durable: every accepted
// ingest batch is appended to a write-ahead log before it is applied, a
// background snapshotter captures the full store state at generation
// boundaries, and recovery rebuilds the store by loading the newest valid
// snapshot and replaying the log tail through the normal batch-ingest
// path. Because replay uses AddSessionsBatch/AddPostsBatch — the same
// code live ingest runs — the dedup table, materialized views, and
// result-cache generations come back exactly as an uninterrupted run
// would have produced them: /v1/report after recovery is byte-identical.

// WAL record types: the two batch families the store ingests.
const (
	recSessions byte = 1
	recPosts    byte = 2
)

// batchJournal is the Store's hook into the durability layer; implemented
// by DurableStore. Called with the store's sequencing lock (ingestMu) held,
// before the batch is applied — the append order the log records is by
// construction the order the apply pipeline folds batches in.
// wire, when non-nil, is the batch's JSONL body exactly as received and
// is logged verbatim; otherwise the records are re-encoded.
//
// The returned ticket resolves once the fsync covering the appended frame
// completes: with group commit the append returns as soon as the frame is
// written (so the store lock is released while the fsync is in flight, and
// concurrent batches coalesce into one group), and the caller must Wait on
// the ticket before acknowledging the batch. Under the other policies the
// ticket is already resolved at return.
type batchJournal interface {
	logSessions(batchID string, recs []telemetry.SessionRecord, wire []byte) (*durable.Ticket, error)
	logPosts(batchID string, posts []social.Post, wire []byte) (*durable.Ticket, error)
}

// DurabilityOptions configures a durable store.
type DurabilityOptions struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// Fsync is the WAL stable-storage policy (default per-batch).
	Fsync durable.FsyncPolicy
	// FsyncInterval is the background sync cadence under FsyncInterval
	// (default 1s).
	FsyncInterval time.Duration
	// SnapshotEvery writes a snapshot after that many accepted batches
	// and compacts log segments the snapshot covers. 0 disables automatic
	// and shutdown snapshots — the store then recovers by full log replay.
	SnapshotEvery int
	// SegmentBytes rolls WAL segments at this size (default 8 MiB).
	SegmentBytes int64
	// GroupCommit coalesces concurrent fsync-per-batch appends into one
	// fsync per commit group (durable/commit.go); acknowledgement still
	// waits for the covering fsync, so the durability contract is
	// unchanged. No effect under the interval/off policies.
	GroupCommit bool
	// MaxGroupBytes and MaxGroupDelay tune the commit scheduler; zero
	// values take the durable package defaults (4 MiB, no linger).
	MaxGroupBytes int64
	MaxGroupDelay time.Duration
	// ApplyWorkers sizes the apply pipeline: batches are journaled and
	// acknowledged under the sequencing lock but folded into the in-memory
	// state by this many workers (pipeline.go). 0 applies inline on the
	// ingesting goroutine — the PR-8 behavior. Report bytes are identical
	// at any setting; recovery replay always applies inline.
	ApplyWorkers int
	// Logf, when set, receives background-snapshotter diagnostics (the
	// snapshot path has no request to answer errors on). Defaults to
	// discarding them; Close still reports the final snapshot's error.
	Logf func(format string, args ...any)
	// DisableColumnar skips rebuilding the columnar mirror during recovery
	// and keeps it off afterwards; analyses use the row path. The mirror is
	// not persisted — it is derived state, rebuilt from the recovered rows
	// (snapshot restore appends the whole prefix; log replay extends it
	// batch by batch) — so disabling it trades query speed for a cheaper
	// recovery and a smaller resident set.
	DisableColumnar bool
}

// RecoveryStats reports what opening a durable store found on disk.
type RecoveryStats struct {
	// SnapshotSeq is the log position the loaded snapshot covered (0 when
	// none was found).
	SnapshotSeq uint64
	// SnapshotFound reports whether a valid snapshot was loaded.
	SnapshotFound bool
	// SnapshotSessions and SnapshotPosts count records restored from it.
	SnapshotSessions int
	SnapshotPosts    int
	// ReplayedBatches counts log records replayed past the snapshot.
	ReplayedBatches int
	// TornTail reports that the log ended in a torn or truncated frame,
	// which was discarded (TornBytes of it).
	TornTail  bool
	TornBytes int64
	// Elapsed is the total recovery wall time.
	Elapsed time.Duration
}

// DurableStore is a Store whose ingest survives restarts. Obtain one with
// OpenDurableStore; the embedded Store is what NewServer takes.
type DurableStore struct {
	*Store
	wal  *durable.WAL
	opts DurabilityOptions

	// Recovery describes what Open found; informational.
	Recovery RecoveryStats

	// Encode buffers, reused across appends. The journal is only invoked
	// under the store's write lock, so they are effectively single-flight.
	sessBuf []byte
	postBuf bytes.Buffer

	snapMu      sync.Mutex
	lastSnapSeq uint64
	sinceSnap   int

	// sigCh is closed and re-armed on every WAL append; the replication
	// feed long-polls on it (AppendSignal).
	sigMu sync.Mutex
	sigCh chan struct{}

	snapCh    chan struct{}
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// OpenDurableStore recovers the store persisted in opts.Dir (an empty or
// absent directory yields an empty store) and attaches the write-ahead
// log so subsequent ingest is durable. The caller must Close it to flush
// the log and write the shutdown snapshot.
func OpenDurableStore(opts DurabilityOptions) (*DurableStore, error) {
	if opts.Dir == "" {
		return nil, errors.New("usaas: durability requires a data directory")
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = time.Second
	}
	start := time.Now()
	store := &Store{colsOff: opts.DisableColumnar}
	d := &DurableStore{
		Store:  store,
		opts:   opts,
		sigCh:  make(chan struct{}),
		snapCh: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}

	snapSeq, body, found, err := durable.LoadLatestSnapshot(opts.Dir)
	if err != nil {
		return nil, err
	}
	if found {
		n, m, err := decodeSnapshot(body, snapSeq, store)
		if err != nil {
			return nil, fmt.Errorf("usaas: decoding snapshot at seq %d: %w", snapSeq, err)
		}
		d.Recovery.SnapshotFound = true
		d.Recovery.SnapshotSeq = snapSeq
		d.Recovery.SnapshotSessions = n
		d.Recovery.SnapshotPosts = m
	}

	info, err := durable.Replay(opts.Dir, snapSeq, func(seq uint64, rec durable.Record) error {
		if err := applyRecord(store, rec); err != nil {
			return fmt.Errorf("usaas: replaying log record %d: %w", seq, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.Recovery.ReplayedBatches = info.Replayed
	d.Recovery.TornTail = info.Torn
	d.Recovery.TornBytes = info.TornBytes

	wal, err := durable.OpenWAL(opts.Dir, snapSeq, durable.Options{
		Fsync:         opts.Fsync,
		SegmentBytes:  opts.SegmentBytes,
		FsyncInterval: opts.FsyncInterval,
		GroupCommit:   opts.GroupCommit,
		MaxGroupBytes: opts.MaxGroupBytes,
		MaxGroupDelay: opts.MaxGroupDelay,
	})
	if err != nil {
		return nil, err
	}
	d.wal = wal
	d.lastSnapSeq = snapSeq
	store.journal = d
	// The pipeline attaches only after recovery replay: replay must apply
	// synchronously (each replayed batch waits its job) and needs no
	// workers to do so.
	store.StartApplyPipeline(opts.ApplyWorkers)

	if opts.SnapshotEvery > 0 {
		d.wg.Add(1)
		go d.snapshotLoop()
	}
	if opts.Fsync == durable.FsyncInterval {
		d.wg.Add(1)
		go d.syncLoop()
	}
	d.Recovery.Elapsed = time.Since(start)
	return d, nil
}

// applyRecord replays one logged batch through the normal ingest path.
// The store's journal is not attached yet, so nothing is re-logged; the
// dedup table restored from the snapshot still guards against replaying a
// batch the snapshot already contains.
func applyRecord(store *Store, rec durable.Record) error {
	switch rec.Type {
	case recSessions:
		var recs []telemetry.SessionRecord
		if err := telemetry.ReadJSONL(bytes.NewReader(rec.Payload), func(r *telemetry.SessionRecord) error {
			recs = append(recs, *r)
			return nil
		}); err != nil {
			return err
		}
		_, _, err := store.AddSessionsBatch(rec.BatchID, recs)
		return err
	case recPosts:
		posts, err := social.CollectPostsJSONL(bytes.NewReader(rec.Payload))
		if err != nil {
			return err
		}
		_, _, err = store.AddPostsBatch(rec.BatchID, posts)
		return err
	default:
		return fmt.Errorf("unknown record type %d", rec.Type)
	}
}

// --- the journal (write side) ---

func (d *DurableStore) logSessions(batchID string, recs []telemetry.SessionRecord, wire []byte) (*durable.Ticket, error) {
	if wire == nil {
		b, err := telemetry.AppendNDJSON(d.sessBuf[:0], recs)
		d.sessBuf = b
		if err != nil {
			return nil, fmt.Errorf("usaas: encoding session batch for WAL: %w", err)
		}
		wire = b
	}
	return d.logRecord(durable.Record{Type: recSessions, BatchID: batchID, Payload: wire})
}

func (d *DurableStore) logPosts(batchID string, posts []social.Post, wire []byte) (*durable.Ticket, error) {
	if wire == nil {
		d.postBuf.Reset()
		if err := social.WritePostsJSONL(&d.postBuf, posts); err != nil {
			return nil, fmt.Errorf("usaas: encoding post batch for WAL: %w", err)
		}
		wire = d.postBuf.Bytes()
	}
	return d.logRecord(durable.Record{Type: recPosts, BatchID: batchID, Payload: wire})
}

func (d *DurableStore) logRecord(rec durable.Record) (*durable.Ticket, error) {
	_, t, err := d.wal.AppendAsync(rec)
	if err != nil {
		return nil, err
	}
	d.sigMu.Lock()
	close(d.sigCh)
	d.sigCh = make(chan struct{})
	d.sigMu.Unlock()
	if d.opts.SnapshotEvery > 0 {
		d.snapMu.Lock()
		d.sinceSnap++
		trigger := d.sinceSnap >= d.opts.SnapshotEvery
		if trigger {
			d.sinceSnap = 0
		}
		d.snapMu.Unlock()
		if trigger {
			select {
			case d.snapCh <- struct{}{}:
			default: // a snapshot is already pending
			}
		}
	}
	return t, nil
}

// CommitMetrics reports the group-commit scheduler's counters (ok=false
// when group commit is not active). Surfaced through /v1/stats.
func (d *DurableStore) CommitMetrics() (durable.CommitMetrics, bool) {
	return d.wal.CommitMetrics()
}

// Sync forces appended log records to stable storage (meaningful under
// the interval and off fsync policies).
func (d *DurableStore) Sync() error { return d.wal.Sync() }

// Dir returns the store's data directory; the replication feed serves
// frames straight from its sealed segments.
func (d *DurableStore) Dir() string { return d.opts.Dir }

// AppendSignal returns a channel that is closed when the next batch is
// appended to the log. Long-poll feeds wait on it instead of spinning;
// after it fires, call AppendSignal again for the following append.
func (d *DurableStore) AppendSignal() <-chan struct{} {
	d.sigMu.Lock()
	defer d.sigMu.Unlock()
	return d.sigCh
}

// ApplyReplicated applies one leader WAL record through the normal ingest
// path, journaling the payload verbatim. Because the leader journals wire
// bytes and never logs duplicates, a follower applying the leader's
// records in sequence order writes a WAL that is byte-identical to the
// leader's — and rebuilds the same views, dedup table, caches, and
// columnar mirror, since this IS the ingest path. dup reports a batch the
// follower had already applied (a retransmitted delivery); it is skipped
// without journaling.
func (d *DurableStore) ApplyReplicated(rec durable.Record) (dup bool, err error) {
	switch rec.Type {
	case recSessions:
		var recs []telemetry.SessionRecord
		if err := telemetry.ReadJSONL(bytes.NewReader(rec.Payload), func(r *telemetry.SessionRecord) error {
			recs = append(recs, *r)
			return nil
		}); err != nil {
			return false, fmt.Errorf("usaas: decoding replicated session batch %q: %w", rec.BatchID, err)
		}
		_, dup, err = d.addSessionsBatch(rec.BatchID, recs, rec.Payload)
		return dup, err
	case recPosts:
		posts, err := social.CollectPostsJSONL(bytes.NewReader(rec.Payload))
		if err != nil {
			return false, fmt.Errorf("usaas: decoding replicated post batch %q: %w", rec.BatchID, err)
		}
		_, dup, err = d.addPostsBatch(rec.BatchID, posts, rec.Payload)
		return dup, err
	default:
		return false, fmt.Errorf("usaas: replicated record has unknown type %d", rec.Type)
	}
}

// WALSeq returns the log sequence the next accepted batch will get.
func (d *DurableStore) WALSeq() uint64 { return d.wal.Seq() }

// LastSnapshotSeq returns the log position the newest snapshot covers.
func (d *DurableStore) LastSnapshotSeq() uint64 {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	return d.lastSnapSeq
}

// Close drains the durability layer: background loops stop, a final
// snapshot captures everything past the last one (when snapshots are
// enabled), and the log is fsynced and closed. Safe to call twice.
func (d *DurableStore) Close() error {
	d.closeOnce.Do(func() {
		close(d.stop)
		d.wg.Wait()
		// Drain the apply queue before the final snapshot so it captures
		// every acknowledged batch.
		d.Store.StopApplyPipeline()
		var errs []error
		if d.opts.SnapshotEvery > 0 {
			if err := d.snapshotNow(); err != nil {
				errs = append(errs, fmt.Errorf("final snapshot: %w", err))
			}
		}
		if err := d.wal.Close(); err != nil {
			errs = append(errs, err)
		}
		d.closeErr = errors.Join(errs...)
	})
	return d.closeErr
}

// --- background loops ---

func (d *DurableStore) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}

func (d *DurableStore) snapshotLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.stop:
			return
		case <-d.snapCh:
			if err := d.snapshotNow(); err != nil {
				d.logf("usaas: background snapshot: %v", err)
			}
		}
	}
}

func (d *DurableStore) syncLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			if err := d.wal.Sync(); err != nil {
				d.logf("usaas: interval fsync: %v", err)
			}
		}
	}
}

// snapshotNow captures the store at its current log position, writes the
// snapshot atomically, and compacts segments and snapshots it covers.
// No-op when nothing was accepted since the last snapshot.
func (d *DurableStore) snapshotNow() error {
	st, seq := d.captureState()
	d.snapMu.Lock()
	last := d.lastSnapSeq
	d.snapMu.Unlock()
	if seq == last {
		return nil
	}
	if err := durable.WriteSnapshot(d.opts.Dir, seq, func(w io.Writer) error {
		return encodeSnapshot(w, seq, st)
	}); err != nil {
		return err
	}
	d.snapMu.Lock()
	if seq > d.lastSnapSeq {
		d.lastSnapSeq = seq
	}
	d.snapMu.Unlock()
	return d.wal.Compact(seq)
}

// snapState is a consistent copy of everything a snapshot persists.
type snapState struct {
	sessions []telemetry.SessionRecord
	posts    []social.Post
	batches  map[string]IngestResponse
}

// captureState copies the store at one log position. It holds the
// sequencing lock while it reads the WAL sequence, waits out every batch
// sequenced before that point (the turn-chain tails), and copies the
// shards — so the copied state corresponds to the sequence exactly even
// with apply workers in flight. The shard copies run under RLocks; only
// sequencing is stalled for the duration, never readers.
func (d *DurableStore) captureState() (snapState, uint64) {
	s := d.Store
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	seq := d.wal.Seq()
	if s.sessTail != nil {
		<-s.sessTail
	}
	if s.postTail != nil {
		<-s.postTail
	}
	st := snapState{}
	s.sessMu.RLock()
	snap := s.sessions.snapshot()
	s.sessMu.RUnlock()
	st.sessions = snap.AppendTo(make([]telemetry.SessionRecord, 0, snap.Len()))
	s.postMu.RLock()
	st.posts = s.postsLocked()
	s.postMu.RUnlock()
	s.dedupMu.RLock()
	st.batches = make(map[string]IngestResponse, len(s.batches))
	for id, ack := range s.batches {
		st.batches[id] = ack
	}
	s.dedupMu.RUnlock()
	return st, seq
}

// --- snapshot wire format ---

// snapHeader is the first line of a snapshot body; the counts delimit the
// NDJSON sections that follow (sessions, then posts, then batch acks).
type snapHeader struct {
	Format   int    `json:"format"`
	Seq      uint64 `json:"seq"`
	Sessions int    `json:"sessions"`
	Posts    int    `json:"posts"`
	Batches  int    `json:"batches"`
}

// snapBatch is one dedup-table entry, persisted so replayed deliveries of
// pre-snapshot batches still return their original acknowledgements.
type snapBatch struct {
	ID  string         `json:"id"`
	Ack IngestResponse `json:"ack"`
}

const snapFormat = 1

// encodeSnapshot writes the store state as line-oriented JSON: a header,
// the sessions as NDJSON (the telemetry codec), the posts as JSONL, and
// the batch table sorted by ID (map order must not leak into the bytes —
// snapshots of equal states should be equal).
func encodeSnapshot(w io.Writer, seq uint64, st snapState) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(snapHeader{
		Format:   snapFormat,
		Seq:      seq,
		Sessions: len(st.sessions),
		Posts:    len(st.posts),
		Batches:  len(st.batches),
	}); err != nil {
		return err
	}
	var buf []byte
	for i := range st.sessions {
		var err error
		if buf, err = telemetry.AppendJSON(buf[:0], &st.sessions[i]); err != nil {
			return err
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	for i := range st.posts {
		if err := enc.Encode(&st.posts[i]); err != nil {
			return err
		}
	}
	ids := make([]string, 0, len(st.batches))
	for id := range st.batches {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := enc.Encode(snapBatch{ID: id, Ack: st.batches[id]}); err != nil {
			return err
		}
	}
	return nil
}

// decodeSnapshot parses a snapshot body and installs it into a fresh
// store, re-folding the materialized views exactly as live ingest would.
func decodeSnapshot(body []byte, seq uint64, store *Store) (sessions, posts int, err error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	next := func() ([]byte, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, err
			}
			return nil, io.ErrUnexpectedEOF
		}
		return sc.Bytes(), nil
	}

	line, err := next()
	if err != nil {
		return 0, 0, fmt.Errorf("reading header: %w", err)
	}
	var hdr snapHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return 0, 0, fmt.Errorf("parsing header: %w", err)
	}
	if hdr.Format != snapFormat {
		return 0, 0, fmt.Errorf("unsupported snapshot format %d", hdr.Format)
	}
	if hdr.Seq != seq {
		return 0, 0, fmt.Errorf("snapshot header claims seq %d, file named %d", hdr.Seq, seq)
	}

	recs := make([]telemetry.SessionRecord, hdr.Sessions)
	for i := range recs {
		if line, err = next(); err != nil {
			return 0, 0, fmt.Errorf("reading session %d/%d: %w", i, hdr.Sessions, err)
		}
		if err := telemetry.ParseJSON(line, &recs[i]); err != nil {
			return 0, 0, fmt.Errorf("parsing session %d: %w", i, err)
		}
	}
	ps := make([]social.Post, hdr.Posts)
	for i := range ps {
		if line, err = next(); err != nil {
			return 0, 0, fmt.Errorf("reading post %d/%d: %w", i, hdr.Posts, err)
		}
		if err := json.Unmarshal(line, &ps[i]); err != nil {
			return 0, 0, fmt.Errorf("parsing post %d: %w", i, err)
		}
	}
	batches := make(map[string]IngestResponse, hdr.Batches)
	for i := 0; i < hdr.Batches; i++ {
		if line, err = next(); err != nil {
			return 0, 0, fmt.Errorf("reading batch ack %d/%d: %w", i, hdr.Batches, err)
		}
		var b snapBatch
		if err := json.Unmarshal(line, &b); err != nil {
			return 0, 0, fmt.Errorf("parsing batch ack %d: %w", i, err)
		}
		batches[b.ID] = b.Ack
	}
	store.restoreSnapshot(recs, ps, batches)
	return hdr.Sessions, hdr.Posts, nil
}

// restoreSnapshot installs decoded snapshot state into the store,
// re-folding views through the same per-record folds live ingest uses —
// folds are per-record and chunk boundaries are absolute indices, so one
// big fold of the restored prefix equals the original batch-by-batch
// folds bit for bit.
func (s *Store) restoreSnapshot(sessions []telemetry.SessionRecord, posts []social.Post, batches map[string]IngestResponse) {
	// Reading the posts is the one per-record cost a restore pays that a
	// snapshot does not carry; it needs no store lock, so it runs beside
	// the session folds.
	staged := make(chan stagedPosts, 1)
	go func() { staged <- s.stagePosts(posts) }()
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	// Seed the sequence-time predicted totals: the next accepted batch's
	// acknowledgement must report totals continuing from the restored state.
	s.seqSessions = len(sessions)
	s.seqPosts = len(posts)
	s.sessMu.Lock()
	s.sessions.append(sessions)
	if len(sessions) > 0 {
		s.sessGen++
		s.views.foldSessions(sessions)
		s.appendColumnar(sessions)
	}
	s.sessMu.Unlock()
	s.applyPosts(posts, <-staged)
	if len(batches) > 0 {
		s.dedupMu.Lock()
		s.batches = batches
		s.dedupMu.Unlock()
	}
}
