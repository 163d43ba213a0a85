package replica

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"usersignals/internal/conference"
	"usersignals/internal/durable"
	"usersignals/internal/faults"
	"usersignals/internal/leo"
	"usersignals/internal/social"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
	"usersignals/internal/usaas"
)

// testDataset generates deterministic sessions and posts. Posts are
// round-tripped through their JSONL wire form so in-memory values equal
// what a parse of the journaled bytes produces.
func testDataset(t testing.TB, seed uint64) ([]telemetry.SessionRecord, []social.Post) {
	t.Helper()
	g, err := conference.New(conference.Defaults(seed, 120))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := g.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) > 300 {
		recs = recs[:300]
	}
	cfg := social.DefaultConfig(seed)
	cfg.Window = timeline.Range{From: timeline.Date(2022, 1, 1), To: timeline.Date(2022, 2, 28)}
	cfg.Outages = leo.AllOutages(seed, cfg.Window, 1.5)
	corpus, err := social.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	posts := corpus.Posts
	if len(posts) > 200 {
		posts = posts[:200]
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

// testNode is one replication participant: durable store, usaas server,
// replica node, and an HTTP listener serving the wrapped handler.
type testNode struct {
	dir    string
	store  *usaas.DurableStore
	node   *Node
	server *httptest.Server
}

func (tn *testNode) close(t testing.TB) {
	t.Helper()
	if tn.server != nil {
		tn.server.Close()
	}
	tn.node.Close()
	if err := tn.store.Close(); err != nil {
		t.Errorf("closing store: %v", err)
	}
}

// abandon simulates kill -9: the listener vanishes and the store is
// dropped without Close — no final snapshot, no fsync beyond what the
// policy already wrote. The tailer is stopped (its goroutine would leak),
// which a real SIGKILL also achieves.
func (tn *testNode) abandon() {
	tn.server.Close()
	tn.node.halt()
}

func startNode(t testing.TB, dir string, dopts usaas.DurabilityOptions, ropts Options) *testNode {
	t.Helper()
	dopts.Dir = dir
	store, err := usaas.OpenDurableStore(dopts)
	if err != nil {
		t.Fatal(err)
	}
	node, err := Open(store, ropts)
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	srv := usaas.NewServer(store.Store, usaas.ServerOptions{Ready: node.Ready})
	ts := httptest.NewServer(node.Wrap(srv.Handler()))
	return &testNode{dir: dir, store: store, node: node, server: ts}
}

// waitCaughtUp blocks until the follower's next sequence reaches seq.
func waitCaughtUp(t testing.TB, tn *testNode, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for tn.store.WALSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, want %d (status %+v)",
				tn.store.WALSeq(), seq, tn.node.CurrentStatus())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// httpReport fetches /v1/report and returns the raw response bytes — the
// byte-identity oracle across nodes.
func httpReport(t testing.TB, baseURL string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/report: %d %s", resp.StatusCode, body)
	}
	return body
}

// walBytes concatenates a dir's WAL segments in sequence order.
func walBytes(t testing.TB, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var all []byte
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
	}
	return all
}

func ingestBatches(t testing.TB, client *usaas.Client, sessions []telemetry.SessionRecord, posts []social.Post, prefix string) int {
	t.Helper()
	ctx := context.Background()
	batches := 0
	for i := 0; i < len(sessions); i += 60 {
		end := i + 60
		if end > len(sessions) {
			end = len(sessions)
		}
		if _, err := client.IngestSessionsBatch(ctx, fmt.Sprintf("%s-s%d", prefix, i), sessions[i:end]); err != nil {
			t.Fatalf("ingesting sessions: %v", err)
		}
		batches++
	}
	for i := 0; i < len(posts); i += 50 {
		end := i + 50
		if end > len(posts) {
			end = len(posts)
		}
		if _, err := client.IngestPostsBatch(ctx, fmt.Sprintf("%s-p%d", prefix, i), posts[i:end]); err != nil {
			t.Fatalf("ingesting posts: %v", err)
		}
		batches++
	}
	return batches
}

// TestFollowerTailsLeader: a follower tailing the live feed converges to
// a byte-identical WAL and serves a byte-identical /v1/report.
func TestFollowerTailsLeader(t *testing.T) {
	dopts := usaas.DurabilityOptions{Fsync: durable.FsyncOff, SegmentBytes: 16 << 10}
	leader := startNode(t, t.TempDir(), dopts, Options{Role: RoleLeader})
	defer leader.close(t)
	follower := startNode(t, t.TempDir(), dopts, Options{
		Role: RoleFollower, LeaderURL: leader.server.URL,
		PollWait: 200 * time.Millisecond, RetryInterval: 10 * time.Millisecond,
	})
	defer follower.close(t)

	sessions, posts := testDataset(t, 1)
	client := usaas.NewClient(leader.server.URL, nil)
	ingestBatches(t, client, sessions, posts, "tail")
	waitCaughtUp(t, follower, leader.store.WALSeq())

	if lr, fr := httpReport(t, leader.server.URL), httpReport(t, follower.server.URL); !bytes.Equal(lr, fr) {
		t.Fatal("follower /v1/report differs from leader")
	}
	if lw, fw := walBytes(t, leader.dir), walBytes(t, follower.dir); !bytes.Equal(lw, fw) {
		t.Fatalf("follower WAL (%d bytes) is not byte-identical to leader WAL (%d bytes)", len(fw), len(lw))
	}

	// More ingest after catch-up keeps streaming.
	more, _ := testDataset(t, 2)
	ingestBatches(t, client, more[:100], nil, "tail2")
	waitCaughtUp(t, follower, leader.store.WALSeq())
	if lr, fr := httpReport(t, leader.server.URL), httpReport(t, follower.server.URL); !bytes.Equal(lr, fr) {
		t.Fatal("follower diverged after incremental catch-up")
	}
}

// TestFollowerRoleDiscipline: a follower redirects writes to the leader
// and stamps reads with lag headers.
func TestFollowerRoleDiscipline(t *testing.T) {
	dopts := usaas.DurabilityOptions{Fsync: durable.FsyncOff}
	leader := startNode(t, t.TempDir(), dopts, Options{Role: RoleLeader})
	defer leader.close(t)
	follower := startNode(t, t.TempDir(), dopts, Options{
		Role: RoleFollower, LeaderURL: leader.server.URL,
		PollWait: 100 * time.Millisecond, RetryInterval: 10 * time.Millisecond,
	})
	defer follower.close(t)

	sessions, _ := testDataset(t, 3)
	client := usaas.NewClient(leader.server.URL, nil)
	if _, err := client.IngestSessionsBatch(context.Background(), "rd-1", sessions[:50]); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, follower, leader.store.WALSeq())

	// Direct POST to the follower: 307 with the leader's address.
	hc := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := hc.Post(follower.server.URL+"/v1/sessions", "application/json", bytes.NewReader([]byte("[]")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower write: %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != leader.server.URL+"/v1/sessions" {
		t.Fatalf("redirect location %q", loc)
	}

	// Reads are served with lag headers.
	resp, err = http.Get(follower.server.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower read: %d", resp.StatusCode)
	}
	if resp.Header.Get(HeaderReplicaLag) == "" || resp.Header.Get(HeaderReplicaStaleness) == "" {
		t.Fatalf("follower read missing lag headers: %v", resp.Header)
	}

	// The failover-aware client, pointed at both nodes, writes through the
	// redirect transparently.
	fc := usaas.NewClientWithOptions("", usaas.ClientOptions{
		Endpoints: []string{follower.server.URL, leader.server.URL},
		Sleep:     func(time.Duration) {},
	})
	ack, err := fc.IngestSessionsBatch(context.Background(), "rd-2", sessions[50:80])
	if err != nil || ack.Accepted != 30 {
		t.Fatalf("failover client write: %+v err=%v", ack, err)
	}
}

// TestFollowerSnapshotBootstrap: a fresh follower seeds itself from the
// leader's snapshot (covering compacted-away history) and tails the rest.
func TestFollowerSnapshotBootstrap(t *testing.T) {
	dopts := usaas.DurabilityOptions{Fsync: durable.FsyncOff, SnapshotEvery: 3, SegmentBytes: 8 << 10}
	leader := startNode(t, t.TempDir(), dopts, Options{Role: RoleLeader})
	defer leader.close(t)

	sessions, posts := testDataset(t, 4)
	client := usaas.NewClient(leader.server.URL, nil)
	ingestBatches(t, client, sessions, posts, "boot")
	// Wait for the background snapshotter to settle: the batch count is a
	// multiple of SnapshotEvery, so its last snapshot covers the whole log.
	// Bootstrapping from an earlier one races the compaction that follows
	// the next, and the follower ends up behind the leader's horizon.
	deadline := time.Now().Add(10 * time.Second)
	for leader.store.LastSnapshotSeq() != leader.store.WALSeq() {
		if time.Now().After(deadline) {
			t.Fatal("leader never snapshotted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Two more batches (fewer than SnapshotEvery) leave a tail past the
	// snapshot for the follower to fetch.
	ingestBatches(t, client, sessions[:120], nil, "tail")

	dir := t.TempDir()
	installed, err := Bootstrap(context.Background(), dir, leader.server.URL, "", nil)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if !installed {
		t.Fatal("bootstrap installed nothing despite leader snapshot")
	}
	follower := startNode(t, dir, usaas.DurabilityOptions{Fsync: durable.FsyncOff, SegmentBytes: 8 << 10}, Options{
		Role: RoleFollower, LeaderURL: leader.server.URL,
		PollWait: 100 * time.Millisecond, RetryInterval: 10 * time.Millisecond,
	})
	defer follower.close(t)
	if !follower.store.Recovery.SnapshotFound {
		t.Fatal("follower recovery did not load the installed snapshot")
	}
	waitCaughtUp(t, follower, leader.store.WALSeq())
	waitReady(t, follower.node)
	if lr, fr := httpReport(t, leader.server.URL), httpReport(t, follower.server.URL); !bytes.Equal(lr, fr) {
		t.Fatal("bootstrapped follower /v1/report differs from leader")
	}
}

// TestPromoteKeepsDedup: after promotion the new leader accepts writes,
// and batches already acked through the old leader are still duplicates.
func TestPromoteKeepsDedup(t *testing.T) {
	dopts := usaas.DurabilityOptions{Fsync: durable.FsyncOff}
	leader := startNode(t, t.TempDir(), dopts, Options{Role: RoleLeader})
	defer leader.close(t)
	follower := startNode(t, t.TempDir(), dopts, Options{
		Role: RoleFollower, LeaderURL: leader.server.URL,
		PollWait: 100 * time.Millisecond, RetryInterval: 10 * time.Millisecond,
	})
	defer follower.close(t)

	sessions, _ := testDataset(t, 5)
	client := usaas.NewClient(leader.server.URL, nil)
	if _, err := client.IngestSessionsBatch(context.Background(), "promo-1", sessions[:40]); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, follower, leader.store.WALSeq())

	// Promote over HTTP — the operator path.
	resp, err := http.Post(follower.server.URL+"/v1/replica/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if follower.node.Role() != RoleLeader {
		t.Fatalf("role after promote: %s", follower.node.Role())
	}
	if err := follower.node.Ready(); err != nil {
		t.Fatalf("promoted node not ready: %v", err)
	}

	fc := usaas.NewClient(follower.server.URL, nil)
	ack, err := fc.IngestSessionsBatch(context.Background(), "promo-1", sessions[:40])
	if err != nil || !ack.Duplicate {
		t.Fatalf("replayed batch on new leader: %+v err=%v", ack, err)
	}
	ack, err = fc.IngestSessionsBatch(context.Background(), "promo-2", sessions[40:70])
	if err != nil || ack.Accepted != 30 || ack.Duplicate {
		t.Fatalf("new batch on new leader: %+v err=%v", ack, err)
	}
}

// TestFollowerStalenessBound: a partitioned follower serves stale reads
// with lag headers while inside the bound, refuses with 503 past it, and
// recovers when the partition heals.
func TestFollowerStalenessBound(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	var clock struct {
		mu  chan struct{}
		now time.Time
	}
	clock.mu = make(chan struct{}, 1)
	clock.mu <- struct{}{}
	clock.now = now
	fakeNow := func() time.Time {
		<-clock.mu
		v := clock.now
		clock.mu <- struct{}{}
		return v
	}
	advance := func(d time.Duration) {
		<-clock.mu
		clock.now = clock.now.Add(d)
		clock.mu <- struct{}{}
	}

	link := faults.NewFrameLink(faults.LinkPlan{}) // no probabilistic faults; used for Sever/Heal
	dopts := usaas.DurabilityOptions{Fsync: durable.FsyncOff}
	leader := startNode(t, t.TempDir(), dopts, Options{Role: RoleLeader})
	defer leader.close(t)
	follower := startNode(t, t.TempDir(), dopts, Options{
		Role: RoleFollower, LeaderURL: leader.server.URL,
		MaxLag:   500 * time.Millisecond,
		Link:     link,
		Now:      fakeNow,
		PollWait: 50 * time.Millisecond, RetryInterval: 5 * time.Millisecond,
	})
	defer follower.close(t)

	sessions, _ := testDataset(t, 6)
	client := usaas.NewClient(leader.server.URL, nil)
	if _, err := client.IngestSessionsBatch(context.Background(), "stale-1", sessions[:30]); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, follower, leader.store.WALSeq())
	waitReady(t, follower.node)
	reference := httpReport(t, follower.server.URL)

	// Partition, then ingest more on the leader: the follower must keep
	// serving EXACTLY its applied prefix — stale, never wrong.
	link.Sever()
	if _, err := client.IngestSessionsBatch(context.Background(), "stale-2", sessions[30:60]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(follower.server.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	staleBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale read inside bound: %d", resp.StatusCode)
	}
	if !bytes.Equal(staleBody, reference) {
		t.Fatal("partitioned follower served something other than its applied prefix")
	}

	// Past the bound: refuse.
	advance(time.Second)
	resp, err = http.Get(follower.server.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read past staleness bound: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(HeaderReplicaLag) == "" {
		t.Fatal("503 carries no lag header")
	}
	if err := follower.node.Ready(); err == nil {
		t.Fatal("stale follower reports ready")
	}

	// Heal: catch up, readiness and reads return.
	link.Heal()
	waitCaughtUp(t, follower, leader.store.WALSeq())
	waitReady(t, follower.node)
	if lr, fr := httpReport(t, leader.server.URL), httpReport(t, follower.server.URL); !bytes.Equal(lr, fr) {
		t.Fatal("healed follower did not converge")
	}
}

func waitReady(t testing.TB, n *Node) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := n.Ready(); err == nil {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("node never became ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
