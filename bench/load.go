package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// maxClients caps the load generator's goroutines and connections: the box
// has two cores, and more clients would measure the generator's queueing.
var maxClients = min(2, runtime.NumCPU())

// opCounter counts operations attempted and failed. A non-2xx answer, a
// wrong ack count or a byte mismatch is a failed operation and contributes
// no latency sample.
type opCounter struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string // the first few, for the report
}

func (c *opCounter) ok() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

func (c *opCounter) fail(format string, args ...any) {
	c.mu.Lock()
	c.attempted++
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// client is the load generator's view of one front end (a single node or a
// coordinator): the ops it sent and what the daemon acknowledged.
type client struct {
	http  *http.Client
	front string
	nonce string // makes batch IDs unique to this run
	ops   *opCounter

	mu        sync.Mutex
	sessions  int   // records acked
	posts     int   // records acked
	userBytes int64 // body bytes acked
}

type ack struct {
	Accepted  int  `json:"accepted"`
	Duplicate bool `json:"duplicate"`
}

// ingest uploads one batch under a fresh batch ID and waits for the durable
// ack, as a usaas.Client collector does. ok is false when the op failed.
func (c *client) ingest(ctx context.Context, b batch, id string) (latency time.Duration, ok bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.front+b.path(), bytes.NewReader(b.body))
	if err != nil {
		c.ops.fail("ingest %s: %v", id, err)
		return 0, false
	}
	req.Header.Set("Content-Type", b.contentType())
	req.Header.Set("X-Usaas-Batch-Id", c.nonce+"-"+id)
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.ops.fail("ingest %s: %v", id, err)
		return 0, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	latency = time.Since(t0)
	var a ack
	switch {
	case err != nil:
		c.ops.fail("ingest %s: reading ack: %v", id, err)
	case resp.StatusCode != http.StatusOK:
		c.ops.fail("ingest %s: status %d: %.200s", id, resp.StatusCode, body)
	case json.Unmarshal(body, &a) != nil:
		c.ops.fail("ingest %s: unparsable ack %.200s", id, body)
	case a.Accepted != b.n || a.Duplicate:
		c.ops.fail("ingest %s: ack accepted=%d duplicate=%v, sent %d records", id, a.Accepted, a.Duplicate, b.n)
	default:
		c.ops.ok()
		c.mu.Lock()
		if b.posts {
			c.posts += b.n
		} else {
			c.sessions += b.n
		}
		c.userBytes += int64(len(b.body))
		c.mu.Unlock()
		return latency, true
	}
	return 0, false
}

// get fetches path and returns the body of a 200; anything else is a
// failed op.
func (c *client) get(ctx context.Context, path string) (body []byte, latency time.Duration, ok bool) {
	body, latency, err := fetch(ctx, c.http, c.front+path)
	if err != nil {
		c.ops.fail("GET %s: %v", path, err)
		return nil, 0, false
	}
	c.ops.ok()
	return body, latency, true
}

// fetch is a GET that treats any status but 200 as an error.
func fetch(ctx context.Context, hc *http.Client, url string) ([]byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	latency := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	return body, latency, nil
}

// ingestResult is what one closed-loop upload phase measured.
type ingestResult struct {
	acksMS  []float64
	elapsed time.Duration
	batches int // acked
	records int // acked
}

// upload pushes batches 0..n-1 of seq in a closed loop over clients
// uploaders: uploader u sends batches u, u+clients, ... and sends its next
// batch when the previous ack returns. Which batch each index carries is
// fixed by seq, so every run of a workload offers the same work.
func (c *client) upload(ctx context.Context, phase string, n, clients int, seq func(i int) batch) ingestResult {
	per := make([]ingestResult, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for u := 0; u < clients; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			r := &per[u]
			for i := u; i < n && ctx.Err() == nil; i += clients {
				b := seq(i)
				if lat, ok := c.ingest(ctx, b, fmt.Sprintf("%s-%d", phase, i)); ok {
					r.acksMS = append(r.acksMS, ms(lat.Nanoseconds()))
					r.batches++
					r.records += b.n
				}
			}
		}(u)
	}
	wg.Wait()
	out := ingestResult{elapsed: time.Since(t0)}
	for _, r := range per {
		out.acksMS = append(out.acksMS, r.acksMS...)
		out.batches += r.batches
		out.records += r.records
	}
	return out
}

// refresh is one pass over the 13 dashboard endpoints by one sequential
// client: per-endpoint latency and body. ok is false if any GET failed.
type refresh struct {
	ms     [13]float64
	bodies [13][]byte
	ok     bool
}

func (r refresh) totalMS() float64 {
	var sum float64
	for _, v := range r.ms {
		sum += v
	}
	return sum
}

func (c *client) refresh(ctx context.Context) refresh {
	r := refresh{ok: true}
	for i, ep := range dashboard {
		body, lat, ok := c.get(ctx, ep.Path)
		if !ok {
			r.ok = false
			continue
		}
		r.ms[i] = ms(lat.Nanoseconds())
		r.bodies[i] = body
	}
	return r
}

// cycleResult is what the dashboard phase measured.
type cycleResult struct {
	acksMS []float64
	cold   []refresh // complete refreshes only
	warm   []refresh
}

// dashboardCycles runs n cycles of reads beside writes: one small session
// batch and one small post batch (which retire every cached result), the 13
// endpoints cold, the same 13 warm. Warm bodies must equal cold bodies.
// Cycle i sends small post batch firstPost+i.
func (c *client) dashboardCycles(ctx context.Context, in *inputs, n, firstPost int) cycleResult {
	var out cycleResult
	for i := 0; i < n && ctx.Err() == nil; i++ {
		for j, b := range []batch{cycle(in.smallSessions, i), in.smallPost(firstPost + i)} {
			if lat, ok := c.ingest(ctx, b, fmt.Sprintf("cycle-%d-%d", i, j)); ok {
				out.acksMS = append(out.acksMS, ms(lat.Nanoseconds()))
			}
		}
		cold := c.refresh(ctx)
		warm := c.refresh(ctx)
		if !cold.ok || !warm.ok {
			continue
		}
		same := true
		for j := range cold.bodies {
			if !bytes.Equal(cold.bodies[j], warm.bodies[j]) {
				c.ops.fail("cycle %d: warm %s differs from cold", i, dashboard[j].Name)
				same = false
			}
		}
		if same {
			out.cold = append(out.cold, cold)
			out.warm = append(out.warm, warm)
		}
	}
	return out
}
