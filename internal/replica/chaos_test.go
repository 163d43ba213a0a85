package replica

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"usersignals/internal/durable"
	"usersignals/internal/faults"
	"usersignals/internal/social"
	"usersignals/internal/telemetry"
	"usersignals/internal/usaas"
)

// The failover chaos drill. The claim under test: a leader killed without
// warning at an arbitrary acked-batch boundary loses nothing, provided
// the client retries its acked batches through the promoted follower.
// The follower has applied some prefix of the leader's log; retried
// batches inside that prefix dedup, batches past it apply — so the
// promoted node's effective ingest order equals the original batch
// order, and its /v1/report must be byte-identical to a single-node
// store fed the same acked batches. All of this while the replication
// link drops, duplicates, and truncates deliveries.

// chaosBatch is one idempotent delivery with a stable ID.
type chaosBatch struct {
	id       string
	sessions []telemetry.SessionRecord
	posts    []social.Post
}

func chaosBatches(t testing.TB, seed uint64) []chaosBatch {
	t.Helper()
	sessions, posts := testDataset(t, seed)
	var batches []chaosBatch
	for i := 0; i < len(sessions); i += 15 {
		end := i + 15
		if end > len(sessions) {
			end = len(sessions)
		}
		batches = append(batches, chaosBatch{
			id:       fmt.Sprintf("chaos-%d-s%d", seed, i),
			sessions: sessions[i:end],
		})
	}
	for i := 0; i < len(posts); i += 12 {
		end := i + 12
		if end > len(posts) {
			end = len(posts)
		}
		batches = append(batches, chaosBatch{
			id:    fmt.Sprintf("chaos-%d-p%d", seed, i),
			posts: posts[i:end],
		})
	}
	return batches
}

func sendBatch(t testing.TB, c *usaas.Client, b chaosBatch) usaas.IngestResponse {
	t.Helper()
	var ack usaas.IngestResponse
	var err error
	if b.sessions != nil {
		ack, err = c.IngestSessionsBatch(context.Background(), b.id, b.sessions)
	} else {
		ack, err = c.IngestPostsBatch(context.Background(), b.id, b.posts)
	}
	if err != nil {
		t.Fatalf("ingesting batch %s: %v", b.id, err)
	}
	return ack
}

func TestReplicaChaosFailover(t *testing.T) {
	for _, seed := range []uint64{11, 12, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosFailover(t, seed, usaas.DurabilityOptions{Fsync: durable.FsyncOff})
		})
	}
}

// TestReplicaChaosFailoverGroupCommit re-runs the failover drill with the
// group-commit ingest pipeline on both nodes: frames written through the
// commit scheduler are byte-identical to serial appends, so the follower
// tails and applies them unchanged, and the promoted report must still
// match the single-node reference under the same hostile link.
func TestReplicaChaosFailoverGroupCommit(t *testing.T) {
	for _, seed := range []uint64{31, 32, 33} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosFailover(t, seed, usaas.DurabilityOptions{
				Fsync:       durable.FsyncPerBatch,
				GroupCommit: true,
			})
		})
	}
}

// runChaosFailover is the drill body, parameterized by the durability
// options both the leader and the follower run with.
func runChaosFailover(t *testing.T, seed uint64, dopts usaas.DurabilityOptions) {
	batches := chaosBatches(t, seed)
	if len(batches) < 16 {
		t.Fatalf("dataset too small: %d batches", len(batches))
	}
	// The link mangles roughly a third of all deliveries. A tiny
	// fetch window forces the log across many deliveries so the
	// injector gets plenty of chances.
	link := faults.NewFrameLink(faults.LinkPlan{
		Seed: seed, DropP: 0.15, DupP: 0.15, TruncateP: 0.15,
	})
	leader := startNode(t, t.TempDir(), dopts, Options{Role: RoleLeader})
	follower := startNode(t, t.TempDir(), dopts, Options{
		Role: RoleFollower, LeaderURL: leader.server.URL,
		Link: link,
		// One whole frame per delivery (ReadFrames always ships at
		// least one): every record is a separate chance to misbehave.
		MaxFetchBytes: 512,
		PollWait:      50 * time.Millisecond,
		RetryInterval: time.Millisecond,
	})
	defer follower.close(t)

	// Ack most of the dataset on the leader, then let the follower
	// tail until it has replicated a seed-chosen fraction of the log
	// AND the link has made minDeliveries deliveries. The kill is
	// placed by those counts, not by the clock: the exact boundary the
	// follower reaches is still up to scheduling and the link (at or
	// past the target), but the fault-rate check below always judges
	// enough deliveries to mean something.
	const minDeliveries = 30
	acked := len(batches) - 4 - int(seed%5)
	direct := usaas.NewClient(leader.server.URL, nil)
	for _, b := range batches[:acked] {
		sendBatch(t, direct, b)
	}
	target := leader.store.WALSeq() * uint64(2+seed%2) / 4
	if target == 0 {
		target = 1
	}
	waitCaughtUp(t, follower, target)
	for deadline := time.Now().Add(30 * time.Second); link.Counts().Deliveries < minDeliveries; {
		if time.Now().After(deadline) {
			t.Fatalf("link made %d deliveries, want %d (status %+v)", link.Counts().Deliveries, minDeliveries, follower.node.CurrentStatus())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill -9: the leader's listener vanishes mid-stream; its store
	// is abandoned, never closed. Promote the survivor.
	leader.abandon()
	follower.node.Promote()
	if err := follower.node.Ready(); err != nil {
		t.Fatalf("promoted node not ready: %v", err)
	}

	// The client fails over: its leader belief still points at the
	// dead node, so the first write fails, probes discover the
	// promoted follower, and every acked batch is retried with its
	// original ID. Then the rest of the dataset goes in.
	fc := usaas.NewClientWithOptions("", usaas.ClientOptions{
		Endpoints: []string{leader.server.URL, follower.server.URL},
		Sleep:     func(time.Duration) {},
	})
	applied, deduped := 0, 0
	for _, b := range batches {
		if sendBatch(t, fc, b).Duplicate {
			deduped++
		} else {
			applied++
		}
	}
	if deduped == 0 {
		t.Error("no batch deduped: the follower replicated nothing before the kill")
	}
	if applied < len(batches)-acked {
		t.Errorf("applied %d < %d un-acked batches", applied, len(batches)-acked)
	}

	// Single-node reference fed the same batches in the same order.
	refDir := t.TempDir()
	ref, err := usaas.OpenDurableStore(usaas.DurabilityOptions{Dir: refDir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refSrv := usaas.NewServer(ref.Store, usaas.ServerOptions{})
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()
	refClient := usaas.NewClient(refTS.URL, nil)
	for _, b := range batches {
		sendBatch(t, refClient, b)
	}

	if got, want := httpReport(t, follower.server.URL), httpReport(t, refTS.URL); !bytes.Equal(got, want) {
		t.Fatalf("promoted follower /v1/report (%d bytes) differs from reference (%d bytes)",
			len(got), len(want))
	}

	// The drill only counts if the link actually misbehaved.
	counts := link.Counts()
	if counts.Deliveries < 10 {
		t.Errorf("only %d link deliveries; chaos never engaged", counts.Deliveries)
	}
	if faultRate := float64(counts.Faults()) / float64(counts.Deliveries); faultRate <= 0.20 {
		t.Errorf("fault rate %.0f%% (counts %+v); want > 20%%", faultRate*100, counts)
	}
}

// TestReplicaChaosConvergence: with no failover at all, a follower behind
// a hostile link still converges to a byte-identical WAL — truncated
// deliveries re-fetch, duplicated deliveries dedup by sequence, dropped
// deliveries retry.
func TestReplicaChaosConvergence(t *testing.T) {
	for _, seed := range []uint64{21, 22, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			link := faults.NewFrameLink(faults.LinkPlan{
				Seed: seed, DropP: 0.15, DupP: 0.15, TruncateP: 0.15,
			})
			// SnapshotEvery must stay 0 on both sides: compaction would
			// delete covered segments and break raw-byte comparison.
			dopts := usaas.DurabilityOptions{Fsync: durable.FsyncOff, SegmentBytes: 8 << 10}
			leader := startNode(t, t.TempDir(), dopts, Options{Role: RoleLeader})
			defer leader.close(t)
			follower := startNode(t, t.TempDir(), dopts, Options{
				Role: RoleFollower, LeaderURL: leader.server.URL,
				Link:          link,
				MaxFetchBytes: 2 << 10,
				PollWait:      50 * time.Millisecond,
				RetryInterval: time.Millisecond,
			})
			defer follower.close(t)

			client := usaas.NewClient(leader.server.URL, nil)
			for _, b := range chaosBatches(t, seed) {
				sendBatch(t, client, b)
			}
			waitCaughtUp(t, follower, leader.store.WALSeq())
			if lw, fw := walBytes(t, leader.dir), walBytes(t, follower.dir); !bytes.Equal(lw, fw) {
				t.Fatalf("follower WAL (%d bytes) diverged from leader WAL (%d bytes) under link faults",
					len(fw), len(lw))
			}
			if lr, fr := httpReport(t, leader.server.URL), httpReport(t, follower.server.URL); !bytes.Equal(lr, fr) {
				t.Fatal("follower report diverged under link faults")
			}
			counts := link.Counts()
			if faultRate := float64(counts.Faults()) / float64(counts.Deliveries); faultRate <= 0.20 {
				t.Errorf("fault rate %.0f%% (counts %+v); want > 20%%", faultRate*100, counts)
			}
		})
	}
}
