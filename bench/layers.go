package main

// The traced run. Everything that records a span lives in this file: the
// benchmark replays the workload's inputs in-process through each layer's
// public functions and wraps each call in a span. Spans inside the daemon
// are a later change; until then the per-layer table is built from outside
// the layers, and what that cannot explain is printed as residual.*.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"usersignals/internal/cluster"
	"usersignals/internal/colstore"
	"usersignals/internal/durable"
	"usersignals/internal/nlp"
	"usersignals/internal/ocr"
	"usersignals/internal/social"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/usaas"
)

// span is one timed call into a layer. Spans of one batch or one refresh
// share Req; Parent is the ID of the span that caused this one, 0 for a
// root. Times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// With off set it records nothing, which is how the tracing overhead is
// measured.
type tracer struct {
	t0    time.Time
	off   bool
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(req, name string, parent int) int {
	if t.off {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// do wraps fn in a span and returns the span's duration in milliseconds
// (0 when tracing is off).
func (t *tracer) do(req, name string, parent int, fn func()) float64 {
	id := t.begin(req, name, parent)
	fn()
	t.end(id)
	if id == 0 {
		return 0
	}
	return ms(t.spans[id-1].dur())
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Overlapping children are counted
// once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// durations collects the durations of spans named name whose request ID
// starts with reqPrefix, in milliseconds.
func durations(spans []span, name, reqPrefix string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && strings.HasPrefix(s.Req, reqPrefix) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// writeTrace writes the spans of one traced workload next to the build
// outputs, as <root>/.bench_build/trace-<workload>.json.
func writeTrace(h *harness, workload string, spans []span) error {
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(h.build, "trace-"+workload+".json"), buf, 0o644)
}

// decode turns a wire body back into records, as the daemon's handlers do.
func decode(b batch) (recs []telemetry.SessionRecord, posts []social.Post, err error) {
	if b.posts {
		err = json.Unmarshal(b.body, &posts)
		return nil, posts, err
	}
	recs = make([]telemetry.SessionRecord, 0, b.n)
	err = telemetry.ReadJSONL(bytes.NewReader(b.body), func(r *telemetry.SessionRecord) error {
		recs = append(recs, *r)
		return nil
	})
	return recs, nil, err
}

// apply folds one batch of the inputs into an in-memory store.
func apply(st *usaas.Store, in *inputs, b batch, id string) error {
	var err error
	if b.posts {
		_, _, err = st.AddPostsBatch(id, in.posts[b.lo:b.lo+b.n])
	} else {
		_, _, err = st.AddSessionsBatch(id, in.sessions[b.lo:b.lo+b.n])
	}
	return err
}

// The ingest-path replays push sampleSmall small and sampleBulk bulk batches
// through each layer and the read-path replays run inprocCycles cycles, on a
// run of ten seconds or more; shorter runs (the smoke test) scale them down.
// The read-path replay always uses the workload's whole pre-dashboard state.
const (
	sampleSmall  = 600
	sampleBulk   = 48
	inprocCycles = 5
)

// sampled scales a replay size to the run: n for --seconds >= 10, never
// fewer than floor.
func (r *run) sampled(n, floor int) int {
	return max(floor, min(n, int(float64(n)*r.seconds/10)))
}

// usaasd journals sessions as record type 1 and posts as type 2.
const (
	walSessions = 1
	walPosts    = 2
)

// traceLayers replays the workload's inputs in-process and fills out with
// every span-derived per-layer metric. It returns the recorded spans.
func (r *run) traceLayers(ctx context.Context, out map[string]sample) ([]span, error) {
	tr := newTracer()
	dir, err := os.MkdirTemp(r.h.scratch, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	steps := []func(context.Context, *tracer, string, map[string]sample) error{
		r.traceIngestPath, r.traceHandlerPath, r.traceCodecAndSpace, r.traceReadPath, r.traceCluster,
	}
	for _, step := range steps {
		if err := step(ctx, tr, dir, out); err != nil {
			return tr.spans, err
		}
		if ctx.Err() != nil {
			return tr.spans, ctx.Err()
		}
	}
	return tr.spans, nil
}

// ingestSample is the batch sequence of the ingest-path replays: the
// collector mix, then bulk session batches.
func (r *run) ingestSample() []batch {
	var out []batch
	seq := smallSeq(r.in, 0)
	for i := 0; i < r.sampled(sampleSmall, 40); i++ {
		out = append(out, seq(i))
	}
	for i := 0; i < r.sampled(sampleBulk, 4); i++ {
		out = append(out, cycle(r.in.bulkSessions, i))
	}
	return out
}

func isSmall(b batch) bool { return b.n == smallBatch }

// traceIngestPath walks each sample batch through the layers an ingest
// crosses, in the handler's order: parse, journal append, apply, fsync
// wait. The WAL is a scratch one under usaasd's default policy (fsync per
// batch, group commit on, no linger). Every other batch runs with spans
// off; the difference of the two per-batch medians is the tracing overhead.
func (r *run) traceIngestPath(_ context.Context, tr *tracer, dir string, out map[string]sample) error {
	wal, err := durable.OpenWAL(filepath.Join(dir, "wal"), 0, durable.Options{Fsync: durable.FsyncPerBatch, GroupCommit: true})
	if err != nil {
		return err
	}
	defer wal.Close()
	st := &usaas.Store{}
	sampleBatches := r.ingestSample()

	// Odd batches are traced, even ones are not, so that drift in fsync
	// latency over the replay falls on both sides alike.
	var wholeMS [2][]float64 // small batches only; [0] spans off, [1] spans on
	for i, b := range sampleBatches {
		traced := i % 2
		tr.off = traced == 0
		id := fmt.Sprintf("ingest-bulk-%d", i)
		if isSmall(b) {
			id = fmt.Sprintf("ingest-small-%d", i)
		}
		var stepErr error
		t0 := time.Now()
		root := tr.begin(id, "ingest", 0)
		var recs []telemetry.SessionRecord
		var posts []social.Post
		parse := "telemetry.parse"
		if b.posts {
			parse = "json.parse_posts"
		}
		tr.do(id, parse, root, func() { recs, posts, stepErr = decode(b) })
		if stepErr != nil {
			return stepErr
		}
		var ticket *durable.Ticket
		tr.do(id, "durable.append", root, func() {
			typ := byte(walSessions)
			if b.posts {
				typ = walPosts
			}
			_, ticket, stepErr = wal.AppendAsync(durable.Record{Type: typ, BatchID: id, Payload: b.body})
		})
		if stepErr != nil {
			return stepErr
		}
		tr.do(id, "usaas.apply", root, func() {
			if b.posts {
				_, _, stepErr = st.AddPostsBatch(id, posts)
			} else {
				_, _, stepErr = st.AddSessionsBatch(id, recs)
			}
		})
		if stepErr != nil {
			return stepErr
		}
		tr.do(id, "durable.fsync_wait", root, func() { stepErr = ticket.Wait() })
		if stepErr != nil {
			return stepErr
		}
		tr.end(root)
		if isSmall(b) {
			wholeMS[traced] = append(wholeMS[traced], ms(int64(time.Since(t0))))
		}
	}
	tr.off = false

	// Per-batch figures, split by batch size through the request ID.
	for _, m := range []struct{ metric, span, req string }{
		{"durable.append_us_per_batch_small", "durable.append", "ingest-small-"},
		{"durable.append_us_per_batch_bulk", "durable.append", "ingest-bulk-"},
		{"durable.fsync_wait_us_per_batch_small", "durable.fsync_wait", "ingest-small-"},
		{"durable.fsync_wait_us_per_batch_bulk", "durable.fsync_wait", "ingest-bulk-"},
	} {
		d := durations(tr.spans, m.span, m.req)
		out[m.metric] = sample{1e3 * stats.Mean(d), "us", len(d)}
	}
	records := 0
	for i, b := range sampleBatches {
		if i%2 == 1 && !b.posts { // the traced session batches
			records += b.n
		}
	}
	parse := durations(tr.spans, "telemetry.parse", "ingest-")
	out["telemetry.parse_us_per_record"] = sample{1e3 * stats.Sum(parse) / float64(records), "us", records}

	// What the layers of a small batch add up to, for residual.ingest.
	self := selfTimes(tr.spans)
	var layersMS []float64
	for _, s := range tr.spans {
		if s.Name == "ingest" && strings.HasPrefix(s.Req, "ingest-small-") {
			layersMS = append(layersMS, ms(s.dur()-self[s.ID]))
		}
	}
	r.layerSumUS = 1e3 * stats.Median(layersMS)
	out["trace.overhead_pct"] = sample{100 * (stats.Median(wholeMS[1]) - stats.Median(wholeMS[0])) / stats.Median(wholeMS[0]), "%", len(wholeMS[1])}
	return nil
}

// traceHandlerPath posts the same sample through the whole in-process
// handler over a durable store opened as usaasd opens it, then recovers
// that store the way a restart after SIGKILL does: by replaying the log.
func (r *run) traceHandlerPath(_ context.Context, tr *tracer, dir string, out map[string]sample) error {
	data := filepath.Join(dir, "handler")
	// Snapshots are off for the first open only so that Close leaves the
	// log unsnapshotted, as a crash would; the sample stays far below the
	// 1024-batch default at which a snapshot would be taken anyway.
	opts := usaas.DurabilityOptions{Dir: data, Fsync: durable.FsyncPerBatch, GroupCommit: true}
	ds, err := usaas.OpenDurableStore(opts)
	if err != nil {
		return err
	}
	h := newReferenceServer(ds.Store).Handler()
	var smallMS []float64
	batches, records := 0, 0
	for i, b := range r.ingestSample() {
		id := fmt.Sprintf("handler-%d", i)
		span := tr.begin(id, "inproc.ingest", 0)
		req := httptest.NewRequest(http.MethodPost, b.path(), bytes.NewReader(b.body))
		req.Header.Set("Content-Type", b.contentType())
		req.Header.Set("X-Usaas-Batch-Id", id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		tr.end(span)
		if rec.Code != http.StatusOK {
			ds.Close()
			return fmt.Errorf("in-process ingest %d: status %d: %.200s", i, rec.Code, rec.Body.Bytes())
		}
		if isSmall(b) {
			smallMS = append(smallMS, ms(tr.spans[span-1].dur()))
		}
		batches++
		records += b.n
	}
	if err := ds.Close(); err != nil {
		return err
	}
	out["inproc.ingest_us_per_batch"] = sample{1e3 * stats.Median(smallMS), "us", len(smallMS)}
	out["residual.ingest_us_per_batch"] = sample{1e3*stats.Median(smallMS) - r.layerSumUS, "us", len(smallMS)}

	var replayErr error
	replayMS := tr.do("recover", "durable.replay", 0, func() {
		_, replayErr = durable.Replay(data, 0, func(uint64, durable.Record) error { return nil })
	})
	if replayErr != nil {
		return replayErr
	}
	out["durable.replay_us_per_batch"] = sample{1e3 * replayMS / float64(batches), "us", batches}

	opts.SnapshotEvery = 1024
	ds, err = usaas.OpenDurableStore(opts)
	if err != nil {
		return err
	}
	out["usaas.recover_us_per_record"] = sample{float64(ds.Recovery.Elapsed.Microseconds()) / float64(records), "us", records}
	if err := ds.Close(); err != nil { // writes the shutdown snapshot
		return err
	}
	var loadErr error
	loadMS := tr.do("recover", "durable.load_snapshot", 0, func() {
		_, _, _, loadErr = durable.LoadLatestSnapshot(data)
	})
	if loadErr != nil {
		return loadErr
	}
	out["durable.load_snapshot_ms"] = sample{loadMS, "ms", 1}
	return nil
}

// heapAlloc is the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// traceCodecAndSpace times the codecs, the columnar mirror and OCR on the
// dataset, and weighs a stored session and a stored post.
func (r *run) traceCodecAndSpace(_ context.Context, tr *tracer, _ string, out map[string]sample) error {
	in := r.in
	// Encode, and allocations per parsed record.
	var buf []byte
	var encErr error
	encodeMS := tr.do("codec", "telemetry.encode", 0, func() { buf, encErr = telemetry.AppendNDJSON(buf[:0], in.sessions) })
	if encErr != nil {
		return encErr
	}
	out["telemetry.encode_us_per_record"] = sample{1e3 * encodeMS / float64(len(in.sessions)), "us", len(in.sessions)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	parsed := 0
	if err := telemetry.ReadJSONL(bytes.NewReader(buf), func(*telemetry.SessionRecord) error { parsed++; return nil }); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	out["telemetry.parse_allocs_per_record"] = sample{float64(m1.Mallocs-m0.Mallocs) / float64(parsed), "count", parsed}

	// Columnar mirror: append in bulk batches, seal, sweep.
	cs := colstore.New()
	for i, b := range in.bulkSessions {
		var err error
		tr.do(fmt.Sprintf("colstore-%d", i), "colstore.append", 0, func() { err = cs.Append(in.sessions[b.lo : b.lo+b.n]) })
		if err != nil {
			return err
		}
	}
	n := cs.Len()
	out["colstore.append_us_per_record"] = sample{1e3 * stats.Sum(durations(tr.spans, "colstore.append", "")) / float64(n), "us", n}
	sealMS := tr.do("colstore", "colstore.seal", 0, cs.SealTail)
	out["colstore.seal_us_per_record"] = sample{1e3 * sealMS / float64(n), "us", n}
	cst := cs.Stats()
	out["colstore.bytes_per_record"] = sample{float64(cst.OpenBytes+cst.SealedBytes+cst.DictBytes) / float64(n), "B", n}
	spec := usaas.StudyFilterSpec(telemetry.LatencyMean)
	var sweepErr error
	sweepMS := tr.do("colstore", "colstore.sweep", 0, func() {
		_, _, sweepErr = usaas.DoseResponseCols(cs.Snapshot(), telemetry.LatencyMean, telemetry.MicOn, stats.NewBinner(0, 300, 10), &spec, 1)
	})
	if sweepErr != nil {
		return sweepErr
	}
	out["colstore.sweep_us_per_krecord"] = sample{1e3 * sweepMS / (float64(n) / 1e3), "us", n}

	// OCR over every screenshot post.
	shots := 0
	ocrMS := tr.do("ocr", "ocr.extract", 0, func() {
		for i := range in.posts {
			if s := in.posts[i].Screenshot; s != nil {
				_, _ = ocr.Extract(*s) // an unreadable screenshot is part of the corpus
				shots++
			}
		}
	})
	out["ocr.extract_us_per_screenshot"] = sample{1e3 * ocrMS / float64(max(1, shots)), "us", shots}

	// Resident bytes per stored record: parse from the wire so the store
	// owns its strings as the daemon's does, then measure the live heap.
	weigh := func(batches []batch) (float64, int, error) {
		st := &usaas.Store{}
		before := heapAlloc()
		records := 0
		for i, b := range batches {
			recs, posts, err := decode(b)
			if err != nil {
				return 0, 0, err
			}
			if b.posts {
				_, _, err = st.AddPostsBatch(fmt.Sprintf("weigh-%d", i), posts)
			} else {
				_, _, err = st.AddSessionsBatch(fmt.Sprintf("weigh-%d", i), recs)
			}
			if err != nil {
				return 0, 0, err
			}
			records += b.n
		}
		after := heapAlloc()
		runtime.KeepAlive(st)
		return float64(after-before) / float64(records), records, nil
	}
	perSession, ns, err := weigh(in.bulkSessions)
	if err != nil {
		return err
	}
	perPost, np, err := weigh(in.bulkPosts)
	if err != nil {
		return err
	}
	out["usaas.heap_bytes_per_session"] = sample{perSession, "B", ns}
	out["usaas.heap_bytes_per_post"] = sample{perPost, "B", np}
	return nil
}

// traceReadPath rebuilds the workload's pre-dashboard state in an in-memory
// store (timing every apply), runs dashboard cycles through the in-process
// handler, and times the read-side layers on that store.
func (r *run) traceReadPath(_ context.Context, tr *tracer, _ string, out map[string]sample) error {
	in := r.in
	st := &usaas.Store{}
	var sessRecs, postRecs int
	for i, b := range r.state {
		id := fmt.Sprintf("state-%d", i)
		name := "usaas.apply_sessions"
		if b.posts {
			name = "usaas.apply_posts"
			postRecs += b.n
		} else {
			sessRecs += b.n
		}
		var err error
		tr.do(id, name, 0, func() { err = apply(st, in, b, id) })
		if err != nil {
			return err
		}
	}
	out["usaas.apply_sessions_us_per_record"] = sample{1e3 * stats.Sum(durations(tr.spans, "usaas.apply_sessions", "")) / float64(max(1, sessRecs)), "us", sessRecs}
	out["usaas.apply_posts_us_per_record"] = sample{1e3 * stats.Sum(durations(tr.spans, "usaas.apply_posts", "")) / float64(max(1, postRecs)), "us", postRecs}

	srv := newReferenceServer(st)
	h := srv.Handler()
	cm0 := srv.CacheMetrics()
	var coldMS []float64
	cycles := r.sampled(inprocCycles, 2)
	for i := 0; i < cycles; i++ {
		id := fmt.Sprintf("refresh-%d", i)
		for _, b := range []batch{cycle(in.smallSessions, i), in.smallPost(r.nextPost + i)} {
			if err := apply(st, in, b, id+b.path()); err != nil {
				return err
			}
		}
		for _, kind := range []string{"cold", "warm"} {
			root := tr.begin(id, "inproc.refresh_"+kind, 0)
			for _, ep := range dashboard {
				var rec *httptest.ResponseRecorder
				tr.do(id, "endpoint."+ep.Name, root, func() { rec = serve(h, http.MethodGet, ep.Path, "", nil) })
				if rec.Code != http.StatusOK {
					return fmt.Errorf("in-process %s: status %d: %.200s", ep.Name, rec.Code, rec.Body.Bytes())
				}
			}
			tr.end(root)
			if kind == "cold" {
				coldMS = append(coldMS, ms(tr.spans[root-1].dur()))
			}
		}
	}
	cm1 := srv.CacheMetrics()
	hits, misses := cm1.Hits-cm0.Hits, cm1.Misses-cm0.Misses
	out["usaas.cache_hit_ratio"] = sample{100 * float64(hits) / float64(max(1, hits+misses)), "%", int(hits + misses)}
	out["usaas.cache_misses_per_refresh"] = sample{float64(misses) / float64(cycles), "count", cycles}
	if e2e, ok := r.e2e["refresh_cold_p50_ms"]; ok {
		out["residual.refresh_cold_ms"] = sample{e2e.Value - stats.Median(coldMS), "ms", len(coldMS)}
	}

	// The read-side layers, each cold: a post batch first, so the corpus
	// and everything memoised on it is rebuilt.
	if err := apply(st, in, in.smallPost(r.nextPost+cycles), "layers-posts"); err != nil {
		return err
	}
	var corpus *social.Corpus
	rebuildMS := tr.do("read-layers", "usaas.corpus_rebuild", 0, func() { corpus = st.Corpus() })
	if corpus == nil {
		return fmt.Errorf("no corpus: the workload's state holds no posts")
	}
	out["usaas.corpus_rebuild_ms"] = sample{rebuildMS, "ms", corpus.Len()}
	fresh := social.NewCorpus(corpus.Window, corpus.Posts)
	tokensMS := tr.do("read-layers", "social.build_tokens", 0, func() { fresh.BuildTokens(0) })
	out["social.build_tokens_ms"] = sample{tokensMS, "ms", corpus.Len()}
	an := nlp.NewAnalyzer()
	scoreMS := tr.do("read-layers", "nlp.score", 0, func() {
		for i := range corpus.Posts {
			an.Score(corpus.Posts[i].Text())
		}
	})
	out["nlp.score_us_per_post"] = sample{1e3 * scoreMS / float64(corpus.Len()), "us", corpus.Len()}
	dict := nlp.OutageDictionary()
	topts := usaas.TrendOptions{MaxTerms: 10}
	sweepMS := tr.do("read-layers", "usaas.sweep_corpus", 0, func() {
		usaas.SweepCorpus(corpus, an, usaas.SweepOptions{Sentiment: true, Dict: dict, Gate: true, Trends: &topts})
	})
	out["usaas.sweep_corpus_ms"] = sample{sweepMS, "ms", corpus.Len()}
	model, news := usaasdAnnotations()
	sopts := usaas.ServerOptions{Analyzer: an, OutageDict: dict, Model: model, News: news}
	reportMS := tr.do("read-layers", "usaas.build_report", 0, func() { usaas.BuildReport(st, an, sopts) })
	out["usaas.build_report_ms"] = sample{reportMS, "ms", 1}

	// The shard and coordinator halves of a cluster /v1/report, on this one
	// store: collect the partials, then merge and assemble them.
	sections := []string{usaas.SectionSessions, usaas.SectionDrops, usaas.SectionSocial, usaas.SectionSpeeds}
	var bundle *usaas.ShardPartials
	var err error
	collectMS := tr.do("cluster-report", "usaas.collect_partials", 0, func() {
		bundle, err = srv.CollectPartials(sections, nil, telemetry.Presence, "")
	})
	if err != nil {
		return err
	}
	out["usaas.collect_partials_ms"] = sample{collectMS, "ms", 1}
	root := tr.begin("cluster-report", "usaas.merge_assemble", 0)
	usaas.AssembleClusterReport(usaas.ClusterReportInput{
		Bundles: []*usaas.ShardPartials{bundle}, News: news, Model: model,
		TEPartials: func(m stats.LinearModel) (parts [][]usaas.TEDayPartial, err error) {
			tr.do("cluster-report", "usaas.collect_model_partials", root, func() {
				var mp *usaas.ModelPartials
				if mp, err = srv.CollectModelPartials(usaas.ModelPartialsRequest{Model: m, Sections: []string{usaas.ModelSectionTE}}); err == nil {
					parts = [][]usaas.TEDayPartial{mp.TE}
				}
			})
			return parts, err
		},
	})
	tr.end(root)
	out["usaas.merge_assemble_ms"] = sample{ms(selfTimes(tr.spans)[root]), "ms", 1}
	return nil
}

// traceCluster runs an in-process coordinator over two in-memory shards on
// loopback listeners, holding the workload's pre-dashboard state split by
// the partition map, and reads the cluster layer's own gauges.
func (r *run) traceCluster(ctx context.Context, tr *tracer, _ string, out map[string]sample) error {
	in := r.in
	hc := &http.Client{Timeout: 2 * time.Minute}
	defer hc.CloseIdleConnections()
	var (
		stores [2]*usaas.Store
		shards [2]*httptest.Server
		pmap   = cluster.Map{Version: 1}
	)
	for i := range stores {
		stores[i] = &usaas.Store{}
		shards[i] = httptest.NewServer(newReferenceServer(stores[i]).Handler())
		defer shards[i].Close()
		pmap.Shards = append(pmap.Shards, cluster.Shard{Name: fmt.Sprintf("s%d", i), Endpoints: []string{shards[i].URL}})
	}
	for i, b := range r.state {
		id := fmt.Sprintf("split-%d", i)
		var sess [][]telemetry.SessionRecord
		var posts [][]social.Post
		tr.do(id, "cluster.split", 0, func() {
			if b.posts {
				posts = pmap.SplitPosts(in.posts[b.lo : b.lo+b.n])
			} else {
				sess = pmap.SplitSessions(in.sessions[b.lo : b.lo+b.n])
			}
		})
		for s, st := range stores {
			var err error
			if b.posts {
				_, _, err = st.AddPostsBatch(id, posts[s])
			} else {
				_, _, err = st.AddSessionsBatch(id, sess[s])
			}
			if err != nil {
				return err
			}
		}
	}
	split := durations(tr.spans, "cluster.split", "")
	out["cluster.split_us_per_batch"] = sample{1e3 * stats.Mean(split), "us", len(split)}
	var held [2]float64
	for i, st := range stores {
		n, _ := st.Counts()
		held[i] = float64(n)
	}
	out["cluster.shard_skew"] = sample{max(held[0], held[1]) / max(1, (held[0]+held[1])/2), "ratio", 2}

	model, news := usaasdAnnotations()
	coord := httptest.NewServer(cluster.New(pmap, cluster.Options{Model: model, News: news}).Handler())
	defer coord.Close()
	single := httptest.NewServer(newReferenceServer(&usaas.Store{}).Handler())
	defer single.Close()

	// Ack overhead of the coordinator hop: the same small batches into the
	// coordinator and into a lone in-memory node, neither with a disk.
	ops := &opCounter{}
	acks := func(front string) []float64 {
		cl := &client{http: hc, front: front, nonce: "inproc", ops: ops}
		return cl.upload(ctx, "ack", r.sampled(60, 20), 1, smallSeq(in, r.nextPost)).acksMS
	}
	viaCoord, direct := acks(coord.URL), acks(single.URL)
	out["cluster.ack_overhead_ms"] = sample{stats.Median(viaCoord) - stats.Median(direct), "ms", len(viaCoord)}

	cl := &client{http: hc, front: coord.URL, nonce: "inproc-cycles", ops: ops}
	merges0, err := coordinatorStats(ctx, hc, coord.URL)
	if err != nil {
		return err
	}
	cycles := r.sampled(inprocCycles, 2)
	cyc := cl.dashboardCycles(ctx, in, cycles, r.nextPost+6)
	if ops.failed > 0 {
		return fmt.Errorf("in-process cluster: %d operations failed: %v", ops.failed, ops.failures)
	}
	merges1, err := coordinatorStats(ctx, hc, coord.URL)
	if err != nil {
		return err
	}
	refreshes := len(cyc.cold) + len(cyc.warm)
	out["cluster.partial_merges_per_refresh"] = sample{float64(merges1.PartialMerges-merges0.PartialMerges) / float64(max(1, refreshes)), "count", refreshes}

	// One /v1/report fan-out, timed from where the coordinator stands: each
	// shard's partials for the report's sections, cold. The coordinator
	// waits for the slower shard. (Its own per-shard latency gauge in
	// /v1/stats has 20 ms buckets, too coarse to read a median from.)
	var slower []float64
	var partialsBytes int
	for round := 0; round < cycles; round++ {
		if _, ok := cl.ingest(ctx, cycle(in.smallSessions, round), fmt.Sprintf("fanout-%d", round)); !ok {
			return fmt.Errorf("in-process cluster: %v", ops.failures)
		}
		var worst float64
		partialsBytes = 0
		for i, sh := range shards {
			id := tr.begin(fmt.Sprintf("fanout-%d", round), fmt.Sprintf("cluster.fanout.s%d", i), 0)
			body, _, err := fetch(ctx, hc, sh.URL+"/v1/partials?sections=sessions,drops,social,speeds")
			tr.end(id)
			if err != nil {
				return err
			}
			worst = max(worst, ms(tr.spans[id-1].dur()))
			partialsBytes += len(body)
		}
		slower = append(slower, worst)
	}
	out["cluster.fanout_p50_ms"] = sample{stats.Median(slower), "ms", len(slower)}
	out["cluster.partials_kb_per_refresh"] = sample{float64(partialsBytes) / 1024, "KB", 2}
	return nil
}

func coordinatorStats(ctx context.Context, hc *http.Client, front string) (*usaas.ClusterStats, error) {
	body, _, err := fetch(ctx, hc, front+"/v1/stats")
	if err != nil {
		return nil, err
	}
	var sr usaas.StatsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, err
	}
	if sr.Cluster == nil || len(sr.Cluster.Shards) != 2 {
		return nil, fmt.Errorf("coordinator /v1/stats has no two-shard cluster section")
	}
	return sr.Cluster, nil
}
