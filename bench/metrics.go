package main

import (
	"math"
	"sort"

	"usersignals/internal/stats"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before -compare
// flags it; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a producer or operator of usaasd sees. Every workload
// reports every one of them (bench/README.md says from which phase).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_batches_per_s", "1/s", "higher", 0.25},
	{"ingest_ack_p50_ms", "ms", "lower", 0.25},
	{"backfill_records_per_s", "1/s", "higher", 0.25},
	{"recovery_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.20},
	{"disk_bytes_per_user_byte", "B/B", "lower", 0.15},
	{"refresh_cold_p50_ms", "ms", "lower", 0.25},
	{"refresh_warm_p50_ms", "ms", "lower", 0.25},
	{"report_cold_p50_ms", "ms", "lower", 0.25},
}

// dashboard is the operator's 13-endpoint refresh, in request order.
var dashboard = []struct{ Name, Path string }{
	{"report", "/v1/report"},
	{"engagement_latency", "/v1/insights/engagement?metric=latency-mean-ms&engagement=mic-on"},
	{"engagement_loss", "/v1/insights/engagement?metric=loss-mean-pct&engagement=presence&hi=5"},
	{"mos", "/v1/insights/mos"},
	{"sentiment", "/v1/insights/sentiment"},
	{"peaks", "/v1/insights/peaks"},
	{"outages", "/v1/insights/outages"},
	{"speeds", "/v1/insights/speeds"},
	{"trends", "/v1/insights/trends"},
	{"confounders", "/v1/insights/confounders?engagement=presence"},
	{"traffic_engineering", "/v1/advice/traffic-engineering"},
	{"incidents", "/v1/insights/incidents?engagement=presence"},
	{"experience", "/v1/query/experience?isp=starlink"},
}

// perLayer lists every per-layer metric, in table order. Scrape metrics
// are read from outside the daemon during the end-to-end phases; span
// metrics come from the in-process replay in layers.go.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// scrape: /proc/<pid>/stat of the daemons, getrusage of the generator
		{"usaasd.cpu_us_per_batch", "us", "lower", 0},
		{"usaasd.cpu_us_per_record", "us", "lower", 0},
		{"usaasd.cpu_ms_per_refresh", "ms", "lower", 0},
		{"loadgen.cpu_share", "%", "lower", 0},
		// scrape: client-side tails of the end-to-end medians
		{"client.ingest_ack_p99_ms", "ms", "lower", 0},
		{"client.ingest_ack_tail_ms", "ms", "lower", 0},
		{"client.refresh_cold_tail_ms", "ms", "lower", 0},
		{"client.cycle_ack_p50_ms", "ms", "lower", 0},
	}
	for _, kind := range []string{"cold", "warm"} {
		for _, ep := range dashboard {
			defs = append(defs, metricDef{"client.endpoint_" + kind + "_ms." + ep.Name, "ms", "lower", 0})
		}
	}
	return append(defs,
		// scrape: /v1/stats and the data directory
		metricDef{"durable.fsyncs_per_batch", "count", "lower", 0},
		metricDef{"durable.mean_group_size", "count", "higher", 0},
		metricDef{"durable.fsync_mean_ms", "ms", "lower", 0},
		metricDef{"durable.disk_wal_mb", "MB", "lower", 0},
		metricDef{"durable.disk_snapshot_mb", "MB", "lower", 0},
		// span: internal/durable on a scratch WAL under usaasd's default policy
		metricDef{"durable.append_us_per_batch_small", "us", "lower", 0},
		metricDef{"durable.append_us_per_batch_bulk", "us", "lower", 0},
		metricDef{"durable.fsync_wait_us_per_batch_small", "us", "lower", 0},
		metricDef{"durable.fsync_wait_us_per_batch_bulk", "us", "lower", 0},
		metricDef{"durable.replay_us_per_batch", "us", "lower", 0},
		metricDef{"durable.load_snapshot_ms", "ms", "lower", 0},
		metricDef{"usaas.recover_us_per_record", "us", "lower", 0},
		// span: internal/telemetry
		metricDef{"telemetry.parse_us_per_record", "us", "lower", 0},
		metricDef{"telemetry.encode_us_per_record", "us", "lower", 0},
		metricDef{"telemetry.parse_allocs_per_record", "count", "lower", 0},
		// span: apply path
		metricDef{"usaas.apply_sessions_us_per_record", "us", "lower", 0},
		metricDef{"usaas.apply_posts_us_per_record", "us", "lower", 0},
		metricDef{"colstore.append_us_per_record", "us", "lower", 0},
		metricDef{"colstore.seal_us_per_record", "us", "lower", 0},
		metricDef{"ocr.extract_us_per_screenshot", "us", "lower", 0},
		// span: space
		metricDef{"usaas.heap_bytes_per_session", "B", "lower", 0},
		metricDef{"usaas.heap_bytes_per_post", "B", "lower", 0},
		metricDef{"colstore.bytes_per_record", "B", "lower", 0},
		metricDef{"colstore.sweep_us_per_krecord", "us", "lower", 0},
		// span: read path
		metricDef{"usaas.corpus_rebuild_ms", "ms", "lower", 0},
		metricDef{"social.build_tokens_ms", "ms", "lower", 0},
		metricDef{"nlp.score_us_per_post", "us", "lower", 0},
		metricDef{"usaas.sweep_corpus_ms", "ms", "lower", 0},
		metricDef{"usaas.build_report_ms", "ms", "lower", 0},
		metricDef{"usaas.cache_hit_ratio", "%", "higher", 0},
		metricDef{"usaas.cache_misses_per_refresh", "count", "lower", 0},
		// span: cluster path (in-process coordinator over two shards)
		metricDef{"usaas.collect_partials_ms", "ms", "lower", 0},
		metricDef{"usaas.merge_assemble_ms", "ms", "lower", 0},
		metricDef{"cluster.split_us_per_batch", "us", "lower", 0},
		metricDef{"cluster.fanout_p50_ms", "ms", "lower", 0},
		metricDef{"cluster.partial_merges_per_refresh", "count", "lower", 0},
		metricDef{"cluster.shard_skew", "ratio", "lower", 0},
		metricDef{"cluster.partials_kb_per_refresh", "KB", "lower", 0},
		metricDef{"cluster.ack_overhead_ms", "ms", "lower", 0},
		// what no layer explains
		metricDef{"inproc.ingest_us_per_batch", "us", "lower", 0},
		metricDef{"residual.ingest_us_per_batch", "us", "lower", 0},
		metricDef{"residual.refresh_cold_ms", "ms", "lower", 0},
		metricDef{"trace.overhead_pct", "%", "lower", 0},
	)
}

// sample is one reported value with the number of observations behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tail returns the highest order statistic with at least tailBeyond samples
// beyond it: p99 of a thousand samples, p90 of a hundred. With too few
// samples for any such point it falls back to the median, so the figure
// never claims more than the sample supports.
func tail(xs []float64) float64 {
	n := len(xs)
	if n <= tailBeyond {
		return stats.Median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-1-tailBeyond]
}

// diskBytesPerUserByte is the space amplification of the data directory.
func diskBytesPerUserByte(diskBytes, userBytes int64) float64 {
	if userBytes <= 0 {
		return math.NaN()
	}
	return float64(diskBytes) / float64(userBytes)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
