package cluster

import (
	"context"
	"sync"

	"usersignals/internal/social"
	"usersignals/internal/telemetry"
	"usersignals/internal/usaas"
)

// Client applies the partition map client-side: ingest batches are split
// by calendar day and sent straight to the owning shards, taking the
// coordinator off the write path. Both routes use the same Map, the same
// sub-batch IDs, and the same acknowledgement fold, so the ack a producer
// sees is byte-identical whichever path the batch took — including
// replays, where every shard returns its originally recorded ack.
//
// Queries still go through a Coordinator; only writes shortcut it.
type Client struct {
	pmap   Map
	shards []*usaas.Client
}

// ClientConfig tunes the per-shard clients. Zero values use the usaas
// client defaults, matching what a Coordinator builds for its own fan-out.
type ClientConfig struct {
	Token   string
	Retry   usaas.RetryPolicy
	Breaker usaas.BreakerPolicy
}

// NewClient builds a client-side splitter over the partition map. Each
// shard's endpoint list feeds the usaas client's failover machinery, so a
// replicated shard pair behaves exactly as it does behind a coordinator.
func NewClient(m Map, cfg ClientConfig) *Client {
	c := &Client{pmap: m}
	for _, sh := range m.Shards {
		c.shards = append(c.shards, usaas.NewClientWithOptions("", usaas.ClientOptions{
			Endpoints: sh.Endpoints,
			Token:     cfg.Token,
			Retry:     cfg.Retry,
			Breaker:   cfg.Breaker,
		}))
	}
	return c
}

// IngestSessionsBatch splits recs by day and delivers each shard its
// sub-batch — including empty ones, which shards record under the dedup
// key so replays reproduce the original ack.
func (c *Client) IngestSessionsBatch(ctx context.Context, batchID string, recs []telemetry.SessionRecord) (usaas.IngestResponse, error) {
	groups := c.pmap.SplitSessions(recs)
	return c.ingest(ctx, batchID, func(i int) (usaas.IngestResponse, error) {
		return c.shards[i].IngestSessionsBatch(ctx, c.pmap.SubBatchID(batchID, i), groups[i])
	})
}

// IngestPostsBatch is the post-side split, same contract.
func (c *Client) IngestPostsBatch(ctx context.Context, batchID string, posts []social.Post) (usaas.IngestResponse, error) {
	groups := c.pmap.SplitPosts(posts)
	return c.ingest(ctx, batchID, func(i int) (usaas.IngestResponse, error) {
		return c.shards[i].IngestPostsBatch(ctx, c.pmap.SubBatchID(batchID, i), groups[i])
	})
}

// ingest fans the batch to every shard concurrently and folds the acks
// (foldAcks). Any shard failure fails the whole batch — the producer
// retries it, and per-shard dedup makes the retry exact, never partial.
func (c *Client) ingest(ctx context.Context, batchID string, send func(i int) (usaas.IngestResponse, error)) (usaas.IngestResponse, error) {
	acks := make([]usaas.IngestResponse, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acks[i], errs[i] = send(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return usaas.IngestResponse{}, err
		}
	}
	return foldAcks(batchID, acks), nil
}

// foldAcks is the acknowledgement one node would have given for the batch
// the shards' sub-batch acks cover: accepted counts and store totals sum,
// and the batch is a duplicate only if every shard saw its sub-batch before.
// A shard replays its original ack, so replays fold to the original too.
func foldAcks(batchID string, acks []usaas.IngestResponse) usaas.IngestResponse {
	out := usaas.IngestResponse{BatchID: batchID, Duplicate: true}
	for _, a := range acks {
		out.Accepted += a.Accepted
		out.TotalSessions += a.TotalSessions
		out.TotalPosts += a.TotalPosts
		out.Duplicate = out.Duplicate && a.Duplicate
	}
	return out
}
