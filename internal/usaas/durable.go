package usaas

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
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
	store := &Store{}
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

	info, err := replayTail(opts.Dir, snapSeq, store)
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

// replayTail replays the log past fromSeq into the store. Parsing runs ahead
// of applying: each record gets a decoder goroutine, at most 2×GOMAXPROCS
// in flight, and this goroutine applies the decoded batches one at a time in
// sequence order through the normal ingest path (applyDecoded). Apply order
// is the log order, so views, the dedup table and generations come back
// exactly as a serial replay leaves them. The store's journal is not
// attached yet, so nothing is re-logged; the dedup table restored from the
// snapshot still guards against replaying a batch the snapshot contains.
//
// The first record that fails, in sequence order, stops the replay: no
// later record is applied, and the decoders still in flight are waited for
// before it returns.
func replayTail(dir string, fromSeq uint64, store *Store) (durable.ReplayInfo, error) {
	type decoding struct {
		seq  uint64
		rec  durable.Record
		b    decodedBatch
		err  error
		done chan struct{}
	}
	width := 2 * runtime.GOMAXPROCS(0)
	var window []*decoding // in sequence order; the oldest applies next
	applyOldest := func() error {
		p := window[0]
		window[0] = nil // the record pins its segment's buffer
		window = window[1:]
		<-p.done
		err := p.err
		if err == nil {
			_, err = store.applyDecoded(p.rec, p.b)
		}
		if err != nil {
			return fmt.Errorf("usaas: replaying log record %d: %w", p.seq, err)
		}
		return nil
	}
	var failed error
	info, err := durable.Replay(dir, fromSeq, func(seq uint64, rec durable.Record) error {
		if len(window) == width {
			if failed = applyOldest(); failed != nil {
				return failed
			}
		}
		p := &decoding{seq: seq, rec: rec, done: make(chan struct{})}
		go func() {
			defer close(p.done)
			p.b, p.err = decodeBatch(p.rec)
		}()
		window = append(window, p)
		return nil
	})
	// Records still in the window precede any damage Replay stopped at, so
	// they apply first and their errors take precedence.
	for failed == nil && len(window) > 0 {
		failed = applyOldest()
	}
	for _, p := range window {
		<-p.done
	}
	if failed != nil {
		return info, failed
	}
	return info, err
}

// errUnknownRecord marks a logged record of neither batch family.
var errUnknownRecord = errors.New("unknown record type")

// decodedBatch is one logged batch parsed back into the records it carried.
type decodedBatch struct {
	sessions []telemetry.SessionRecord
	posts    []social.Post
}

// decodeBatch parses a logged batch's payload; recovery's decoders and a
// follower's ApplyReplicated both read records through it. It touches no
// store state, so any number may run at once.
func decodeBatch(rec durable.Record) (decodedBatch, error) {
	var b decodedBatch
	switch rec.Type {
	case recSessions:
		err := telemetry.ReadJSONL(bytes.NewReader(rec.Payload), func(r *telemetry.SessionRecord) error {
			b.sessions = append(b.sessions, *r)
			return nil
		})
		return b, err
	case recPosts:
		var err error
		b.posts, err = social.CollectPostsJSONL(bytes.NewReader(rec.Payload))
		return b, err
	default:
		return b, fmt.Errorf("%w %d", errUnknownRecord, rec.Type)
	}
}

// applyDecoded applies a decoded batch through the synchronous ingest path.
// The payload is the batch's wire form: a follower's journal logs it
// verbatim, and during recovery no journal is attached to log it.
func (s *Store) applyDecoded(rec durable.Record, b decodedBatch) (dup bool, err error) {
	if rec.Type == recSessions {
		_, dup, err = s.addSessionsBatch(rec.BatchID, b.sessions, rec.Payload)
	} else {
		_, dup, err = s.addPostsBatch(rec.BatchID, b.posts, rec.Payload)
	}
	return dup, err
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
// leader's — and rebuilds the same views, dedup table, and caches, since
// this IS the ingest path. dup reports a batch the follower had already
// applied (a retransmitted delivery); it is skipped without journaling.
func (d *DurableStore) ApplyReplicated(rec durable.Record) (dup bool, err error) {
	b, err := decodeBatch(rec)
	if errors.Is(err, errUnknownRecord) {
		return false, fmt.Errorf("usaas: replicated record has unknown type %d", rec.Type)
	}
	if err != nil {
		kind := "session"
		if rec.Type == recPosts {
			kind = "post"
		}
		return false, fmt.Errorf("usaas: decoding replicated %s batch %q: %w", kind, rec.BatchID, err)
	}
	return d.applyDecoded(rec, b)
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
// The session and post sections parse on every core (parseSection); errors
// read as a serial parse would report them.
func decodeSnapshot(body []byte, seq uint64, store *Store) (sessions, posts int, err error) {
	lines := snapLines(body)
	line, err := lines.next()
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
	if hdr.Sessions < 0 || hdr.Posts < 0 || hdr.Batches < 0 {
		return 0, 0, fmt.Errorf("snapshot header claims %d sessions, %d posts, %d batch acks", hdr.Sessions, hdr.Posts, hdr.Batches)
	}

	recs, err := parseSection(&lines, hdr.Sessions, "session", telemetry.ParseJSON)
	if err != nil {
		return 0, 0, err
	}
	ps, err := parseSection(&lines, hdr.Posts, "post", social.DecodePost)
	if err != nil {
		return 0, 0, err
	}
	batches := make(map[string]IngestResponse, hdr.Batches)
	for i := 0; i < hdr.Batches; i++ {
		if line, err = lines.next(); err != nil {
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

// snapLines is the unread rest of a snapshot body. next cuts lines from it
// as bufio.ScanLines would — a trailing '\r' dropped, a last line without a
// newline kept — but returns them in place instead of copying each one.
type snapLines []byte

func (l *snapLines) next() ([]byte, error) {
	if len(*l) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	line := []byte(*l)
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line, *l = line[:i], (*l)[i+1:]
	} else {
		*l = nil
	}
	return bytes.TrimSuffix(line, []byte{'\r'}), nil
}

// parseSection cuts the next n lines of a snapshot and parses them into n
// records on GOMAXPROCS workers, each over a contiguous range of indexes and
// writing only its own slots. It reports what a serial read would have hit
// first: the lowest line that fails to parse, else a body that ends early.
func parseSection[T any](lines *snapLines, n int, what string, parse func([]byte, *T) error) ([]T, error) {
	cut := make([][]byte, 0, min(n, len(*lines)))
	var short error
	for len(cut) < n {
		line, err := lines.next()
		if err != nil {
			short = fmt.Errorf("reading %s %d/%d: %w", what, len(cut), n, err)
			break
		}
		cut = append(cut, line)
	}
	out := make([]T, len(cut))
	workers := min(runtime.GOMAXPROCS(0), len(cut))
	failed := make([]error, workers) // each worker's first failure
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := len(cut) * w / workers; i < len(cut)*(w+1)/workers; i++ {
				if err := parse(cut[i], &out[i]); err != nil {
					failed[w] = fmt.Errorf("parsing %s %d: %w", what, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Ranges ascend with w, so the first worker that failed holds the lowest
	// failing index.
	for _, err := range failed {
		if err != nil {
			return nil, err
		}
	}
	return out, short
}

// restoreSnapshot installs decoded snapshot state into the store through
// the same applies live ingest and log replay use — folds are per-record
// and chunk boundaries are absolute indices, so one big fold of the
// restored prefix equals the original batch-by-batch folds bit for bit.
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
	s.applySessions(sessions)
	s.applyPosts(posts, <-staged)
	if len(batches) > 0 {
		s.dedupMu.Lock()
		s.batches = batches
		s.dedupMu.Unlock()
	}
}
