package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"usersignals/internal/stats"
)

// plan is one workload: the same five phases in the same order (set-up with
// preload, small uploads, dashboard cycles, bulk uploads, crash recovery),
// sized so that one layer group does most of the work. Sizes are per ten
// seconds of --seconds on the reference box; all work is fixed, never timed
// out, so every run of a workload sends the daemon the same bytes and a
// faster daemon does not end up with a larger store to query and recover.
type plan struct {
	Name string
	Why  string

	Cluster        bool // two shards behind a coordinator
	PreloadRepeats int  // session dataset, bulk, before the first timed op
	PreloadPosts   bool // the head of the corpus (preloadShare of it), bulk, before the first timed op

	SmallBatches int // closed loop, 9 session batches : 1 post batch
	SmallClients int
	Cycles       int  // dashboard cycles, one sequential client
	BulkRepeats  int  // session dataset in bulk batches, 2 uploaders
	BulkCorpus   bool // plus what is left of the corpus, by one of the uploaders
}

// preloadShare of the corpus (30k of ≈38k posts) is preloaded on the
// workloads that preload; the tail is left for the timed phases, which
// never replay a post.
const preloadShare = 0.8

var plans = []plan{
	{
		Name:         "ingest_small",
		Why:          "small batches into an empty daemon: per-batch costs (HTTP, sequencing, WAL frame, group-commit fsync) dominate, so durable does most of the work",
		SmallBatches: 5000, SmallClients: 2, Cycles: 12, BulkRepeats: 32,
	},
	{
		Name:         "backfill",
		Why:          "bulk batches: per-record work (parse, row append, view folds, columnar append) dominates, fsync is amortised 25x, snapshots and compaction run, the store outgrows CPU caches",
		SmallBatches: 4000, SmallClients: 2, Cycles: 24, BulkRepeats: 48, BulkCorpus: true,
	},
	{
		Name:           "dashboard_live",
		Why:            "reads beside writes on a preloaded node: every cycle's ingest retires the result cache, so usaas query code and social/nlp do most of the work and durable almost none",
		PreloadRepeats: 3, PreloadPosts: true,
		SmallBatches: 2500, SmallClients: 1, Cycles: 20, BulkRepeats: 24,
	},
	{
		Name:    "cluster_2shard",
		Why:     "the same traffic through a coordinator over two shards: the only workload where cluster (day split, fan-out, partials gather, merge) does any work",
		Cluster: true, PreloadRepeats: 3, PreloadPosts: true,
		SmallBatches: 2500, SmallClients: 2, Cycles: 6, BulkRepeats: 24,
	},
}

func planByName(name string) (plan, bool) {
	for _, p := range plans {
		if p.Name == name {
			return p, true
		}
	}
	return plan{}, false
}

// scaled sizes the timed phases for seconds of measurement; smoke runs use
// a fraction of a second.
func (p plan) scaled(seconds float64) plan {
	f := seconds / 10
	scale := func(n int) int { return max(1, int(math.Round(float64(n)*f))) }
	p.SmallBatches = max(20, scale(p.SmallBatches)) // at least one post batch per uploader
	p.BulkRepeats = scale(p.BulkRepeats)
	p.Cycles = max(2, scale(p.Cycles))
	return p
}

// topology is the set of daemons one workload runs against.
type topology struct {
	front  *daemon   // where clients talk: the node, or the coordinator
	stores []*daemon // the daemons that hold data
}

func (t *topology) all() []*daemon {
	if t.front == t.stores[0] {
		return t.stores
	}
	return append([]*daemon{t.front}, t.stores...)
}

func (t *topology) cpu() time.Duration {
	var sum time.Duration
	for _, d := range t.all() {
		if ps, err := d.stat(); err == nil {
			sum += ps.cpu
		}
	}
	return sum
}

// run is one execution of one workload.
type run struct {
	h    *harness
	plan plan
	seed uint64
	size inputSize

	seconds float64 // as asked for; plan is already scaled by it
	in      *inputs
	topo    *topology
	cl      *client
	ops     *opCounter

	setups []float64         // seconds, one per set-up
	e2e    map[string]sample // end-to-end metrics
	scrape map[string]sample // per-layer metrics read from outside the daemon
	state  []batch           // every batch acked before the dashboard phase, in send order

	nextPost   int     // first small post batch not yet sent; after the dashboard phase, the first the traced replay may use
	layerSumUS float64 // traced run: what the ingest layers of a small batch add up to
}

// setUp does everything that precedes the first timed operation: generate
// and encode the inputs, start the daemons, preload. It is timed as setup_s.
func (r *run) setUp(ctx context.Context) error {
	t0 := time.Now()
	in, err := makeInputs(r.seed, r.size)
	if err != nil {
		return err
	}
	topo := &topology{}
	if r.plan.Cluster {
		for i := 0; i < 2; i++ {
			d, err := r.h.launchStore(ctx)
			if err != nil {
				return err
			}
			topo.stores = append(topo.stores, d)
		}
		if topo.front, err = r.h.launchCoordinator(ctx, topo.stores); err != nil {
			return err
		}
	} else {
		d, err := r.h.launchStore(ctx)
		if err != nil {
			return err
		}
		topo.front, topo.stores = d, []*daemon{d}
	}
	cl := &client{
		http:  r.h.http,
		front: topo.front.url,
		nonce: fmt.Sprintf("s%d-p%d-r%d", r.seed, os.Getpid(), len(r.setups)),
		ops:   r.ops,
	}
	// One sequential uploader, so the preloaded store is the same on every
	// run and can be compared byte for byte with the in-process reference.
	preload := preloadBatches(in, r.plan)
	res := cl.upload(ctx, "preload", len(preload), 1, func(i int) batch { return preload[i] })
	if res.batches != len(preload) {
		return fmt.Errorf("preload: %d of %d batches acked: %s", res.batches, len(preload), strings.Join(r.ops.failures, "; "))
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	r.in, r.topo, r.cl, r.state = in, topo, cl, preload
	r.nextPost = 0
	for _, b := range preload {
		if b.posts {
			r.nextPost += b.n / smallBatch
		}
	}
	return nil
}

func preloadBatches(in *inputs, p plan) []batch {
	var out []batch
	for i := 0; i < p.PreloadRepeats; i++ {
		out = append(out, in.bulkSessions...)
	}
	if p.PreloadPosts {
		out = append(out, in.bulkPosts[:int(preloadShare*float64(len(in.bulkPosts)))]...)
	}
	return out
}

// tearDown stops the topology's daemons and deletes their data.
func (r *run) tearDown() {
	for _, d := range r.topo.all() {
		r.h.stop(d)
		if d.dataDir != "" {
			os.RemoveAll(d.dataDir)
		}
	}
	r.topo = nil
}

// smallSeq is the collector traffic mix: nine small session batches, then
// one small post batch, the post batches starting at small post batch
// firstPost. Post batches sit at odd indices, so with two uploaders one of
// them sends them all and they arrive in order.
func smallSeq(in *inputs, firstPost int) func(i int) batch {
	return func(i int) batch {
		if i%10 == 9 {
			return in.smallPost(firstPost + i/10)
		}
		return cycle(in.smallSessions, i-i/10)
	}
}

// bulkSeq is the backfill: the session dataset repeats times in bulk
// batches, with the post batches (if any) at the odd indices until they run
// out, again so that one uploader sends them all.
func bulkSeq(in *inputs, repeats int, posts []batch) (n int, seq func(i int) batch) {
	n = repeats*len(in.bulkSessions) + len(posts)
	return n, func(i int) batch {
		switch {
		case i%2 == 1 && i/2 < len(posts):
			return posts[i/2]
		case i/2 < len(posts):
			return cycle(in.bulkSessions, i/2)
		default:
			return cycle(in.bulkSessions, i-len(posts))
		}
	}
}

// execute runs the workload once: setups set-ups (the last one is
// measured against), then the four timed phases.
func (r *run) execute(ctx context.Context, setups int) error {
	for i := 0; i < setups; i++ {
		if r.topo != nil {
			r.tearDown()
		}
		if err := r.setUp(ctx); err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
	}
	r.e2e = map[string]sample{"setup_s": {Value: stats.Median(r.setups), Unit: "s", N: len(r.setups)}}
	r.scrape = map[string]sample{}
	if len(r.state) > 0 { // something was preloaded
		if err := r.checkAgainstReference(ctx); err != nil {
			return err
		}
	}

	genCPU0, daemonCPU0 := selfCPU(), r.topo.cpu()
	if err := r.smallUploads(ctx); err != nil {
		return err
	}
	r.dashboardPhase(ctx)
	if err := r.bulkUploads(ctx); err != nil {
		return err
	}
	genCPU, daemonCPU := selfCPU()-genCPU0, r.topo.cpu()-daemonCPU0
	if total := genCPU + daemonCPU; total > 0 {
		r.scrape["loadgen.cpu_share"] = sample{100 * float64(genCPU) / float64(total), "%", 1}
	}
	return r.crashAndRecover(ctx)
}

// smallUploads is phase 1: the collector mix in a closed loop.
func (r *run) smallUploads(ctx context.Context) error {
	p := r.plan
	stats0, err := r.ingestStats(ctx)
	if err != nil {
		return err
	}
	cpu0 := r.topo.cpu()
	seq := smallSeq(r.in, r.nextPost)
	small := r.cl.upload(ctx, "small", p.SmallBatches, min(p.SmallClients, maxClients), seq)
	cpu := r.topo.cpu() - cpu0
	stats1, err := r.ingestStats(ctx)
	if err != nil {
		return err
	}
	r.nextPost += p.SmallBatches / 10
	for i := 0; i < p.SmallBatches; i++ {
		r.state = append(r.state, seq(i))
	}
	if small.batches == 0 {
		return nil // every op failed; the run reports them
	}
	n := len(small.acksMS)
	r.e2e["ingest_batches_per_s"] = sample{float64(small.batches) / small.elapsed.Seconds(), "1/s", small.batches}
	r.e2e["ingest_ack_p50_ms"] = sample{stats.Median(small.acksMS), "ms", n}
	r.scrape["client.ingest_ack_p99_ms"] = sample{stats.Quantile(small.acksMS, 0.99), "ms", n}
	r.scrape["client.ingest_ack_tail_ms"] = sample{tail(small.acksMS), "ms", n}
	r.scrape["usaasd.cpu_us_per_batch"] = sample{float64(cpu.Microseconds()) / float64(small.batches), "us", small.batches}
	d := stats1.minus(stats0)
	r.scrape["durable.fsyncs_per_batch"] = sample{float64(d.fsyncs) / float64(small.batches), "count", small.batches}
	r.scrape["durable.mean_group_size"] = sample{float64(d.commitBatches) / math.Max(1, float64(d.commitGroups)), "count", int(d.commitGroups)}
	r.scrape["durable.fsync_mean_ms"] = sample{d.fsyncTotalMS / math.Max(1, float64(d.fsyncs)), "ms", int(d.fsyncs)}
	return nil
}

// dashboardPhase is phase 2: cycles of reads beside writes, on the
// preloaded state plus the small uploads.
func (r *run) dashboardPhase(ctx context.Context) {
	cpu0 := r.topo.cpu()
	cyc := r.cl.dashboardCycles(ctx, r.in, r.plan.Cycles, r.nextPost)
	cpu := r.topo.cpu() - cpu0
	r.nextPost += r.plan.Cycles
	n := len(cyc.cold)
	if n == 0 {
		return
	}
	var cold, warm []float64
	perEndpoint := make([][2][]float64, len(dashboard)) // [endpoint][cold, warm]
	for i := range cyc.cold {
		cold = append(cold, cyc.cold[i].totalMS())
		warm = append(warm, cyc.warm[i].totalMS())
		for j := range dashboard {
			perEndpoint[j][0] = append(perEndpoint[j][0], cyc.cold[i].ms[j])
			perEndpoint[j][1] = append(perEndpoint[j][1], cyc.warm[i].ms[j])
		}
	}
	r.e2e["refresh_cold_p50_ms"] = sample{stats.Median(cold), "ms", n}
	r.e2e["refresh_warm_p50_ms"] = sample{stats.Median(warm), "ms", n}
	r.e2e["report_cold_p50_ms"] = sample{stats.Median(perEndpoint[0][0]), "ms", n} // dashboard[0] is the report
	r.scrape["client.refresh_cold_tail_ms"] = sample{tail(cold), "ms", n}
	r.scrape["client.cycle_ack_p50_ms"] = sample{stats.Median(cyc.acksMS), "ms", len(cyc.acksMS)}
	r.scrape["usaasd.cpu_ms_per_refresh"] = sample{float64(cpu.Microseconds()) / 1e3 / float64(n), "ms", n}
	for j, ep := range dashboard {
		r.scrape["client.endpoint_cold_ms."+ep.Name] = sample{stats.Median(perEndpoint[j][0]), "ms", n}
		r.scrape["client.endpoint_warm_ms."+ep.Name] = sample{stats.Median(perEndpoint[j][1]), "ms", n}
	}
}

// bulkUploads is phase 3: the backfill, by two uploaders.
func (r *run) bulkUploads(ctx context.Context) error {
	var tailPosts []batch
	if r.plan.BulkCorpus {
		var err error
		if tailPosts, err = encodePostsFrom(r.in.posts, r.nextPost*smallBatch, bulkBatch); err != nil {
			return err
		}
	}
	n, seq := bulkSeq(r.in, r.plan.BulkRepeats, tailPosts)
	cpu0 := r.topo.cpu()
	bulk := r.cl.upload(ctx, "bulk", n, maxClients, seq)
	cpu := r.topo.cpu() - cpu0
	if bulk.records > 0 {
		r.e2e["backfill_records_per_s"] = sample{float64(bulk.records) / bulk.elapsed.Seconds(), "1/s", bulk.records}
		r.scrape["usaasd.cpu_us_per_record"] = sample{float64(cpu.Microseconds()) / float64(bulk.records), "us", bulk.records}
	}
	return nil
}

// ingestTotals are the /v1/stats counters of every store daemon, summed.
type ingestTotals struct {
	sessions, posts                     int
	fsyncs, commitGroups, commitBatches uint64
	fsyncTotalMS                        float64
}

func (a ingestTotals) minus(b ingestTotals) ingestTotals {
	return ingestTotals{
		sessions: a.sessions - b.sessions, posts: a.posts - b.posts,
		fsyncs: a.fsyncs - b.fsyncs, commitGroups: a.commitGroups - b.commitGroups,
		commitBatches: a.commitBatches - b.commitBatches, fsyncTotalMS: a.fsyncTotalMS - b.fsyncTotalMS,
	}
}

// statsBody is the part of /v1/stats the benchmark reads.
type statsBody struct {
	Sessions int `json:"sessions"`
	Posts    int `json:"posts"`
	Ingest   *struct {
		CommitGroups  uint64  `json:"commit_groups"`
		CommitBatches uint64  `json:"commit_batches"`
		FsyncCount    uint64  `json:"fsync_count"`
		FsyncMeanMS   float64 `json:"fsync_mean_ms"`
	} `json:"ingest"`
}

func (r *run) ingestStats(ctx context.Context) (ingestTotals, error) {
	var t ingestTotals
	for _, d := range r.topo.stores {
		body, _, err := fetch(ctx, r.h.http, d.url+"/v1/stats")
		if err != nil {
			return t, fmt.Errorf("/v1/stats of %s: %w", d.url, err)
		}
		var s statsBody
		if err := json.Unmarshal(body, &s); err != nil {
			return t, fmt.Errorf("/v1/stats of %s: %w", d.url, err)
		}
		t.sessions += s.Sessions
		t.posts += s.Posts
		if s.Ingest != nil {
			t.fsyncs += s.Ingest.FsyncCount
			t.commitGroups += s.Ingest.CommitGroups
			t.commitBatches += s.Ingest.CommitBatches
			t.fsyncTotalMS += s.Ingest.FsyncMeanMS * float64(s.Ingest.FsyncCount)
		}
	}
	return t, nil
}

// settle waits until background snapshots and compaction have finished:
// no temporary file and an unchanged listing for a tenth of a second.
func (r *run) settle() dirUsage {
	var last dirUsage
	stable := 0
	for i := 0; i < 300 && stable < 5; i++ {
		var u dirUsage
		for _, d := range r.topo.stores {
			du, _ := diskUsage(d.dataDir)
			u.wal += du.wal
			u.snapshot += du.snapshot
			u.other += du.other
		}
		if u == last && u.other == 0 {
			stable++
		} else {
			stable = 0
		}
		last = u
		time.Sleep(20 * time.Millisecond)
	}
	return last
}

// recoveries is how many times the crash is repeated; recovery_s is the
// median. A recovered daemon writes no snapshot until it ingests again, so
// each repeat replays the same log.
const recoveries = 3

// crashAndRecover reads memory and disk at the end of the fixed work,
// checks the daemons' totals against what was acked, then SIGKILLs every
// daemon and times spawn to ready on the same directories. The report must
// come back byte for byte.
func (r *run) crashAndRecover(ctx context.Context) error {
	usage := r.settle()
	var hwmKB int64
	for _, d := range r.topo.all() {
		ps, err := d.stat()
		if err != nil {
			return err
		}
		hwmKB += ps.hwmKB
	}
	r.e2e["rss_mb"] = sample{float64(hwmKB) / 1024, "MB", len(r.topo.all())}
	r.e2e["disk_bytes_per_user_byte"] = sample{diskBytesPerUserByte(usage.total(), r.cl.userBytes), "B/B", 1}
	r.scrape["durable.disk_wal_mb"] = sample{float64(usage.wal) / (1 << 20), "MB", 1}
	r.scrape["durable.disk_snapshot_mb"] = sample{float64(usage.snapshot) / (1 << 20), "MB", 1}

	totals, err := r.ingestStats(ctx)
	if err != nil {
		return err
	}
	if totals.sessions != r.cl.sessions || totals.posts != r.cl.posts {
		r.ops.fail("/v1/stats holds %d sessions and %d posts, acks sum to %d and %d",
			totals.sessions, totals.posts, r.cl.sessions, r.cl.posts)
	} else {
		r.ops.ok()
	}
	before, _, ok := r.cl.get(ctx, "/v1/report")
	if !ok {
		return fmt.Errorf("/v1/report before the crash failed: %s", strings.Join(r.ops.failures, "; "))
	}

	var secs []float64
	for i := 0; i < recoveries; i++ {
		old := r.topo.all()
		for _, d := range old {
			r.h.stop(d)
		}
		t0 := time.Now()
		fresh := make([]*daemon, len(old))
		for j, d := range old {
			if fresh[j], err = r.h.spawn(d.addr, d.dataDir, d.args); err != nil {
				return err
			}
		}
		// Stores first: a coordinator polled before its shards listen would
		// trip its circuit breaker and add the cool-down to the figure.
		var ready time.Time
		for j := len(fresh) - 1; j >= 0; j-- {
			if ready, err = r.h.waitReady(ctx, fresh[j]); err != nil {
				return fmt.Errorf("recovery %d: %w", i+1, err)
			}
		}
		secs = append(secs, ready.Sub(t0).Seconds())
		r.topo = &topology{front: fresh[0], stores: fresh[len(fresh)-len(r.topo.stores):]}
		r.cl.front = r.topo.front.url

		after, _, ok := r.cl.get(ctx, "/v1/report")
		if !ok {
			return fmt.Errorf("/v1/report after recovery %d failed: %s", i+1, strings.Join(r.ops.failures, "; "))
		}
		if bytes.Equal(before, after) {
			r.ops.ok()
		} else {
			r.ops.fail("recovery %d: /v1/report differs from before the crash (%d vs %d bytes)", i+1, len(after), len(before))
		}
	}
	r.e2e["recovery_s"] = sample{stats.Median(secs), "s", len(secs)}
	return nil
}
