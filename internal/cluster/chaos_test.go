package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"usersignals/internal/durable"
	"usersignals/internal/faults"
	"usersignals/internal/replica"
	"usersignals/internal/usaas"
)

// fastRetry keeps dead-shard probing cheap in tests: two quick attempts,
// then the failure surfaces as degradation.
var fastRetry = usaas.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}

// reportSections are every section of the report, in guard-chain order: a
// dead shard must be noted on each.
var reportSections = []string{
	"sessions", "engagement-drops", "mos-correlations", "mos-predictor",
	"traffic-engineering", "posts", "social-sweep", "sentiment-peaks",
	"outage-monitor", "trends", "speeds",
}

// fetchReport GETs /v1/report and decodes it alongside the raw bytes.
func fetchReport(t *testing.T, base string) (usaas.OperatorReport, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/report")
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
	var rep usaas.OperatorReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("decoding report: %v", err)
	}
	return rep, body
}

// TestClusterShardDeathDegradesPerSection kills one shard of a two-shard
// cluster and asserts the degradation contract: /v1/report still lands,
// with every section explicitly annotated with the dead shard's name; any
// other endpoint refuses with a 503 naming the shard; and the coordinator
// gauges record the outage. Nothing is ever silently missing — and nothing
// the coordinator cached while the shard was alive papers over its death:
// every path is warm (sections held, answers stored) before the kill. When
// the shard returns, so do the clean answers: no refusal and no degraded
// report was stored.
func TestClusterShardDeathDegradesPerSection(t *testing.T) {
	c, _, _ := studyCorpus(t)
	recs := sessionData(t, 5)
	// The breaker is off so the shard's return is visible at once.
	cl := buildCluster(t, 2, 0, Options{Retry: fastRetry, Breaker: usaas.BreakerPolicy{FailureThreshold: -1}})
	ingestBoth(t, cl, recs, c.Posts)
	assertByteIdentical(t, cl, recs[0].ISP)
	assertByteIdentical(t, cl, recs[0].ISP)

	// Healthy first: clean report, no degradation.
	rep, clean := fetchReport(t, cl.coordTS.URL)
	if rep.Degraded || len(rep.Errors) != 0 {
		t.Fatalf("healthy cluster reported degraded: %+v", rep.Errors)
	}
	_, singleClean := fetchReport(t, cl.single.URL)
	if !bytes.Equal(clean, singleClean) {
		t.Fatal("healthy coordinator report differs from single node")
	}

	// Kill shard s1.
	cl.probes[1].down.Store(true)

	rep, _ = fetchReport(t, cl.coordTS.URL)
	if !rep.Degraded {
		t.Fatal("report not marked degraded after shard death")
	}
	for _, section := range reportSections {
		found := false
		for _, e := range rep.Errors {
			if strings.HasPrefix(e, section+": ") && strings.Contains(e, "shard s1 unavailable") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("section %q has no degradation note naming shard s1 (errors: %q)", section, rep.Errors)
		}
	}
	// The surviving sections still carry data — the report is partial,
	// not empty.
	if rep.Sessions == 0 || rep.Posts == 0 {
		t.Errorf("degraded report lost surviving shard's data: sessions=%d posts=%d", rep.Sessions, rep.Posts)
	}

	// Every non-report endpoint refuses explicitly, naming the shard.
	for _, p := range []string{
		"/v1/insights/mos",
		"/v1/insights/engagement?metric=latency-mean-ms&engagement=presence",
		"/v1/insights/sentiment",
		"/v1/query/experience?isp=" + recs[0].ISP,
		"/v1/stats",
	} {
		status, body := get(t, cl.coordTS.URL, p)
		if status != http.StatusServiceUnavailable {
			t.Errorf("%s: status %d after shard death, want 503 (body %.200s)", p, status, body)
			continue
		}
		if !strings.Contains(body, "shard s1 unavailable") {
			t.Errorf("%s: refusal does not name the dead shard: %.200s", p, body)
		}
	}

	// Gauges: the dead shard is marked down with errors counted, and the
	// degradation counter moved.
	cs := cl.coord.clusterStats()
	if cs.Shards[1].Up {
		t.Error("dead shard still marked up in cluster stats")
	}
	if cs.Shards[1].Errors == 0 {
		t.Error("dead shard has no errors counted")
	}
	if !cs.Shards[0].Up || cs.Shards[0].Fanouts == 0 {
		t.Errorf("surviving shard gauges wrong: %+v", cs.Shards[0])
	}
	if cs.DegradedSections == 0 {
		t.Error("degraded-section counter never moved")
	}
	if cs.PartialMerges == 0 {
		t.Error("partial-merge counter never moved")
	}

	// The shard returns, the same process in the same state: every answer
	// is the healthy one again.
	cl.probes[1].down.Store(false)
	rep, back := fetchReport(t, cl.coordTS.URL)
	if rep.Degraded || !bytes.Equal(back, clean) {
		t.Errorf("report after the shard returned: degraded=%v, %d bytes vs %d healthy", rep.Degraded, len(back), len(clean))
	}
	assertByteIdentical(t, cl, recs[0].ISP)
}

// TestClusterKillMidQuery fires reports continuously while a shard dies,
// and admits exactly two outcomes for every response: byte-identical to
// the healthy reference, or explicitly degraded with notes naming the
// shard. A third state — clean-looking but missing the dead shard's
// days — is the silent data loss the contract forbids.
func TestClusterKillMidQuery(t *testing.T) {
	c, _, _ := studyCorpus(t)
	recs := sessionData(t, 6)
	cl := buildCluster(t, 2, 0, Options{Retry: fastRetry})
	ingestBoth(t, cl, recs, c.Posts)
	// Warm every path first: held sections and stored answers must not mask
	// the kill.
	assertByteIdentical(t, cl, recs[0].ISP)
	_, clean := fetchReport(t, cl.coordTS.URL)

	var stop atomic.Bool
	killed := make(chan struct{})
	go func() {
		// Let a few queries land healthy, then yank the shard mid-stream.
		time.Sleep(30 * time.Millisecond)
		cl.shards[0].Close()
		close(killed)
	}()
	// The reference fetch above is the guaranteed healthy observation;
	// whether the loop sees more before the kill lands is up to timing.
	sawClean, sawDegraded := 1, 0
	deadline := time.Now().Add(20 * time.Second)
	for !stop.Load() && time.Now().Before(deadline) {
		rep, body := fetchReport(t, cl.coordTS.URL)
		switch {
		case len(rep.Errors) == 0:
			if !bytes.Equal(body, clean) {
				t.Fatalf("undegraded response differs from healthy reference — silent data loss (%d vs %d bytes)", len(body), len(clean))
			}
			sawClean++
		default:
			if !rep.Degraded {
				t.Fatalf("errors present but Degraded unset: %q", rep.Errors)
			}
			found := false
			for _, e := range rep.Errors {
				if strings.Contains(e, "shard s0 unavailable") {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("degraded response does not name shard s0: %q", rep.Errors)
			}
			sawDegraded++
			select {
			case <-killed:
				if sawDegraded >= 3 {
					stop.Store(true)
				}
			default:
			}
		}
	}
	if sawDegraded == 0 {
		t.Error("kill never produced a degraded response")
	}
	if sawClean == 0 {
		t.Error("no healthy response observed")
	}
}

// replicaShard is one replicated shard: a leader and a follower tailing it
// across a faulty link.
type replicaShard struct {
	leader       *usaas.DurableStore
	leaderNode   *replica.Node
	leaderTS     *httptest.Server
	follower     *usaas.DurableStore
	followerNode *replica.Node
	followerTS   *httptest.Server
}

func startReplicaShard(t *testing.T, link *faults.FrameLink) *replicaShard {
	t.Helper()
	_, cfg, news := studyCorpus(t)
	sopts := usaas.ServerOptions{Model: cfg.Model, News: news}
	dopts := usaas.DurabilityOptions{Dir: t.TempDir(), Fsync: durable.FsyncOff}
	leader, err := usaas.OpenDurableStore(dopts)
	if err != nil {
		t.Fatal(err)
	}
	leaderNode, err := replica.Open(leader, replica.Options{Role: replica.RoleLeader})
	if err != nil {
		t.Fatal(err)
	}
	lopts := sopts
	lopts.Ready = leaderNode.Ready
	leaderTS := httptest.NewServer(leaderNode.Wrap(usaas.NewServer(leader.Store, lopts).Handler()))

	fdopts := usaas.DurabilityOptions{Dir: t.TempDir(), Fsync: durable.FsyncOff}
	follower, err := usaas.OpenDurableStore(fdopts)
	if err != nil {
		t.Fatal(err)
	}
	followerNode, err := replica.Open(follower, replica.Options{
		Role:          replica.RoleFollower,
		LeaderURL:     leaderTS.URL,
		Link:          link,
		MaxFetchBytes: 64 << 10,
		PollWait:      20 * time.Millisecond,
		RetryInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fopts := sopts
	fopts.Ready = followerNode.Ready
	followerTS := httptest.NewServer(followerNode.Wrap(usaas.NewServer(follower.Store, fopts).Handler()))

	rs := &replicaShard{
		leader: leader, leaderNode: leaderNode, leaderTS: leaderTS,
		follower: follower, followerNode: followerNode, followerTS: followerTS,
	}
	t.Cleanup(func() {
		rs.followerTS.Close()
		rs.followerNode.Close()
		rs.follower.Close()
	})
	return rs
}

// TestClusterFailoverByteIdentical runs a two-shard cluster where shard
// s0 is a replicated pair behind a faulty link. After the leader dies and
// the follower is promoted, the coordinator must fail over and answer
// byte-identically to before the kill — replication plus promotion lost
// nothing.
func TestClusterFailoverByteIdentical(t *testing.T) {
	c, cfg, news := studyCorpus(t)
	recs := sessionData(t, 7)[:2500]
	link := faults.NewFrameLink(faults.LinkPlan{Seed: 7, DropP: 0.1, DupP: 0.1, TruncateP: 0.1})
	rs := startReplicaShard(t, link)
	plain := newShardServer(t, 0)

	m := Map{Version: 1, Shards: []Shard{
		{Name: "s0", Endpoints: []string{rs.leaderTS.URL, rs.followerTS.URL}},
		{Name: "s1", Endpoints: []string{plain.URL}},
	}}
	coord := New(m, Options{Model: cfg.Model, News: news, Retry: fastRetry})
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cc := usaas.NewClientWithOptions(coordTS.URL, usaas.ClientOptions{})
	// Keep batches small: one batch is one WAL frame, and the follower's
	// fetch path truncates bodies past MaxFetchBytes plus slack — an
	// oversized frame would never replicate.
	for i := 0; i < len(recs); i += 100 {
		end := i + 100
		if end > len(recs) {
			end = len(recs)
		}
		if _, err := cc.IngestSessionsBatch(ctx, fmt.Sprintf("fo-s%d", i), recs[i:end]); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	for i := 0; i < len(c.Posts); i += 200 {
		end := i + 200
		if end > len(c.Posts) {
			end = len(c.Posts)
		}
		if _, err := cc.IngestPostsBatch(ctx, fmt.Sprintf("fo-p%d", i), c.Posts[i:end]); err != nil {
			t.Fatalf("post ingest: %v", err)
		}
	}

	// Wait until the follower holds the leader's whole log, despite the
	// link dropping, duplicating, and truncating deliveries.
	deadline := time.Now().Add(30 * time.Second)
	for rs.follower.WALSeq() < rs.leader.WALSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, want %d", rs.follower.WALSeq(), rs.leader.WALSeq())
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, before := fetchReport(t, coordTS.URL)

	// Kill the leader's listener (kill -9: no close, no final snapshot)
	// and promote the survivor through the operator path.
	rs.leaderTS.Close()
	resp, err := http.Post(rs.followerTS.URL+"/v1/replica/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d", resp.StatusCode)
	}

	rep, after := fetchReport(t, coordTS.URL)
	if rep.Degraded {
		t.Fatalf("report degraded after failover: %q", rep.Errors)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("report changed across failover: %d vs %d bytes", len(before), len(after))
	}

	// The drill only counts if the link actually misbehaved.
	counts := link.Counts()
	if counts.Faults() == 0 {
		t.Errorf("replication link never faulted (deliveries %d)", counts.Deliveries)
	}

	// And the cluster still serves writes: ingest after failover lands.
	if ack, err := cc.IngestSessionsBatch(ctx, "fo-post-failover", sessionData(t, 5)[:100]); err != nil || ack.Accepted != 100 {
		t.Fatalf("post-failover ingest: ack=%+v err=%v", ack, err)
	}
}
