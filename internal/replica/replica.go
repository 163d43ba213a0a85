// Package replica turns single-node usaasd stores into a leader/follower
// pair (or set) by shipping the leader's write-ahead log over HTTP.
//
// The design leans entirely on two properties the durability layer
// already has. First, the WAL is deterministic: a record's frame bytes
// are a pure function of the record, and the leader journals each
// accepted batch's wire bytes exactly once, in apply order. Second,
// recovery replays records through the normal ingest path. A follower
// therefore does nothing exotic — it fetches the leader's sealed frames
// verbatim, re-verifies the same CRCs crash recovery checks, and applies
// each record through ApplyReplicated (the ingest path, journaling the
// same payload). Every view, cache generation, and dedup entry falls out
// identical, and the follower's own WAL is byte-for-byte the leader's log:
// replicas are byte-identical by construction, not by comparison.
//
// Followers bootstrap from the leader's newest snapshot (Bootstrap), tail
// the frame feed with a long poll, serve reads with an explicit staleness
// bound (X-Usaas-Replica-Lag / X-Usaas-Replica-Staleness-Ms headers, 503
// past Options.MaxLag), and redirect writes to the leader with a 307.
// Promote flips a follower to leader in place: it stops tailing and
// starts accepting writes, with the dedup table intact so a client
// retrying through the failover never double-ingests.
package replica

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"usersignals/internal/faults"
	"usersignals/internal/usaas"
)

// Role is a node's place in the replication topology.
type Role string

const (
	RoleLeader   Role = "leader"
	RoleFollower Role = "follower"
)

// Replication feed headers.
const (
	// HeaderFramesFrom is the sequence of the first frame in a feed
	// response body.
	HeaderFramesFrom = "X-Usaas-Frames-From"
	// HeaderFramesCount is the number of whole frames in the body.
	HeaderFramesCount = "X-Usaas-Frames-Count"
	// HeaderLeaderSeq is the serving node's next log sequence — what a
	// caught-up follower's WALSeq would be.
	HeaderLeaderSeq = "X-Usaas-Leader-Seq"
	// HeaderSnapshotSeq is the sequence a shipped snapshot covers.
	HeaderSnapshotSeq = "X-Usaas-Snapshot-Seq"
	// HeaderOldestSeq, on a 410, is the oldest sequence still on disk.
	HeaderOldestSeq = "X-Usaas-Oldest-Seq"
	// HeaderReplicaLag, on follower reads, is how many records the node is
	// behind the leader's last reported sequence.
	HeaderReplicaLag = "X-Usaas-Replica-Lag"
	// HeaderReplicaStaleness, on follower reads, is milliseconds since the
	// node last heard from the leader.
	HeaderReplicaStaleness = "X-Usaas-Replica-Staleness-Ms"
)

// Options configures a Node.
type Options struct {
	// Role the node starts in. Required.
	Role Role
	// LeaderURL is the leader's base URL (e.g. "http://10.0.0.1:8080").
	// Required for followers; ignored for leaders.
	LeaderURL string
	// MaxLag bounds follower read staleness: once the node has not heard
	// from the leader for longer than this, reads answer 503 instead of
	// silently serving arbitrarily old data. 0 means no bound (reads are
	// always served, with lag headers). Also gates Ready.
	MaxLag time.Duration
	// Token, when set, protects the /v1/replica/* endpoints with bearer
	// auth, and is presented by the follower when fetching. The feed sits
	// outside the service's own auth wrapper, so it carries its own.
	Token string
	// HTTPClient is used for follower fetches (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxFetchBytes caps one feed response (default 1 MiB).
	MaxFetchBytes int
	// PollWait is the long-poll hold on an empty feed read, and the
	// follower's requested wait (default 2s).
	PollWait time.Duration
	// RetryInterval paces follower retries after a failed fetch
	// (default 200ms).
	RetryInterval time.Duration
	// Link, when set, passes every fetched frame delivery through a
	// deterministic fault injector (chaos tests).
	Link *faults.FrameLink
	// Now replaces the staleness clock (tests). Default time.Now.
	Now func() time.Time
	// Logf receives tailer diagnostics (default: discarded).
	Logf func(format string, args ...any)
}

// Node is one replication participant wrapped around a durable store.
type Node struct {
	store *usaas.DurableStore
	opts  Options

	mu          sync.Mutex
	role        Role
	leaderURL   string
	leaderSeq   uint64    // leader's next sequence, from the last fetch
	lastContact time.Time // when the leader last answered
	degraded    error     // sticky: the node can no longer catch up

	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// Open attaches a replication node to an already-opened durable store.
// A follower immediately starts tailing the leader's feed; call Bootstrap
// before usaas.OpenDurableStore to seed an empty data directory from the
// leader's snapshot. Close stops the tailer; it does not close the store.
func Open(store *usaas.DurableStore, opts Options) (*Node, error) {
	switch opts.Role {
	case RoleLeader, RoleFollower:
	default:
		return nil, fmt.Errorf("replica: invalid role %q", opts.Role)
	}
	if opts.Role == RoleFollower && opts.LeaderURL == "" {
		return nil, errors.New("replica: follower requires a leader URL")
	}
	if opts.HTTPClient == nil {
		opts.HTTPClient = http.DefaultClient
	}
	if opts.MaxFetchBytes <= 0 {
		opts.MaxFetchBytes = 1 << 20
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 2 * time.Second
	}
	if opts.RetryInterval <= 0 {
		opts.RetryInterval = 200 * time.Millisecond
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	n := &Node{
		store:     store,
		opts:      opts,
		role:      opts.Role,
		leaderURL: strings.TrimRight(opts.LeaderURL, "/"),
		stop:      make(chan struct{}),
	}
	if n.role == RoleFollower {
		n.wg.Add(1)
		go n.tailLoop()
	}
	return n, nil
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Lag reports how far behind the leader this node believes it is: records
// still to apply (against the leader's last reported sequence) and time
// since the leader last answered. A leader is never lagged. staleness is
// a very large value on a follower that has never reached its leader.
func (n *Node) Lag() (records uint64, staleness time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RoleLeader {
		return 0, 0
	}
	applied := n.store.WALSeq()
	if n.leaderSeq > applied {
		records = n.leaderSeq - applied
	}
	if n.lastContact.IsZero() {
		return records, time.Duration(1<<62 - 1)
	}
	if d := n.opts.Now().Sub(n.lastContact); d > 0 {
		staleness = d
	}
	return records, staleness
}

// Ready implements the readiness contract for usaas.ServerOptions.Ready:
// a leader is ready once opened (recovery finished before Open); a
// follower is ready when it is not degraded, has heard from its leader,
// and — under a MaxLag bound — recently enough.
func (n *Node) Ready() error {
	n.mu.Lock()
	degraded := n.degraded
	role := n.role
	n.mu.Unlock()
	if degraded != nil {
		return degraded
	}
	if role == RoleLeader {
		return nil
	}
	records, staleness := n.Lag()
	n.mu.Lock()
	never := n.lastContact.IsZero()
	n.mu.Unlock()
	if never {
		return errors.New("replica: follower has not contacted its leader yet")
	}
	if n.opts.MaxLag > 0 && staleness > n.opts.MaxLag {
		return fmt.Errorf("replica: follower stale for %v (%d records behind, bound %v)",
			staleness.Round(time.Millisecond), records, n.opts.MaxLag)
	}
	return nil
}

// Promote flips a follower to leader: the tailer stops (waiting out any
// in-flight apply), writes are accepted, and the feed keeps serving — the
// promoted node's log IS the leader log. Idempotent on a leader. The
// dedup table carries over untouched, so acked batches retried by a
// failing-over client are recognized as duplicates, not re-applied.
func (n *Node) Promote() {
	n.mu.Lock()
	if n.role == RoleLeader {
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	n.halt()
	n.mu.Lock()
	n.role = RoleLeader
	n.leaderURL = ""
	n.degraded = nil
	n.mu.Unlock()
	n.logf("replica: promoted to leader at seq %d", n.store.WALSeq())
}

// Close stops the tailer. The underlying store stays open (and, on a
// leader, keeps serving the feed) until its own Close.
func (n *Node) Close() error {
	n.halt()
	return nil
}

// halt stops the background tailer, if one is running, and waits for it.
func (n *Node) halt() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

func (n *Node) logf(format string, args ...any) {
	if n.opts.Logf != nil {
		n.opts.Logf(format, args...)
	}
}

// setDegraded records a condition the tailer cannot recover from on its
// own (fallen behind the leader's compaction horizon, or an apply error).
// Sticky until promotion; surfaced through Ready and the status endpoint.
func (n *Node) setDegraded(err error) {
	n.mu.Lock()
	if n.degraded == nil {
		n.degraded = err
	}
	n.mu.Unlock()
	n.logf("replica: degraded: %v", err)
}

// noteContact records a successful exchange with the leader.
func (n *Node) noteContact(leaderSeq uint64) {
	n.mu.Lock()
	if leaderSeq > n.leaderSeq {
		n.leaderSeq = leaderSeq
	}
	n.lastContact = n.opts.Now()
	n.mu.Unlock()
}

// Status is the /v1/replica/status document.
type Status struct {
	Role        Role   `json:"role"`
	NextSeq     uint64 `json:"next_seq"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	LeaderURL   string `json:"leader_url,omitempty"`
	LeaderSeq   uint64 `json:"leader_seq,omitempty"`
	LagRecords  uint64 `json:"lag_records"`
	StalenessMS int64  `json:"staleness_ms,omitempty"`
	Ready       bool   `json:"ready"`
	Error       string `json:"error,omitempty"`
}

// CurrentStatus captures the node's replication state.
func (n *Node) CurrentStatus() Status {
	st := Status{
		NextSeq:     n.store.WALSeq(),
		SnapshotSeq: n.store.LastSnapshotSeq(),
	}
	n.mu.Lock()
	st.Role = n.role
	st.LeaderURL = n.leaderURL
	st.LeaderSeq = n.leaderSeq
	n.mu.Unlock()
	if st.Role == RoleFollower {
		records, staleness := n.Lag()
		st.LagRecords = records
		if staleness < time.Duration(1<<62-1) {
			st.StalenessMS = staleness.Milliseconds()
		} else {
			st.StalenessMS = -1
		}
	}
	if err := n.Ready(); err != nil {
		st.Error = err.Error()
	} else {
		st.Ready = true
	}
	return st
}
