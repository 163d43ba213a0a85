// Command usaasd runs the User Signals as-a-Service HTTP server (§5),
// optionally preloading generated datasets.
//
// Usage:
//
//	usaasd -addr :8080 -sessions calls.csv -posts posts.jsonl \
//	    -read-timeout 2m -write-timeout 2m -idle-timeout 2m \
//	    -request-timeout 1m -max-inflight 256 -result-cache 256 \
//	    -data-dir /var/lib/usaasd -fsync batch -snapshot-every 1024
//
// With -data-dir set, every accepted ingest batch is appended to a
// write-ahead log before it is acknowledged, and snapshots bound
// recovery time; on restart the store is rebuilt byte-identically from
// the newest snapshot plus the log tail. SIGINT/SIGTERM drains in-flight
// requests for up to -shutdown-timeout, flushes the log, writes a final
// snapshot, and exits 0 (nonzero when the drain times out).
//
// With -role=leader the node serves its WAL as a replication feed under
// /v1/replica/; a -role=follower node bootstraps from the leader's
// snapshot, tails the feed, applies every record through the normal
// ingest path (so its store — and its own WAL — are byte-identical to
// the leader's), redirects writes to the leader, and serves reads with
// explicit staleness headers, refusing past -max-replica-lag. POST
// /v1/replica/promote flips a follower to leader during failover.
//
// With -role=coordinator the process owns no store at all: -shards names
// the fleet ("a=http://host:8080;b=http://h1:8080,http://h2:8080" — a
// comma-separated list is a replicated pair the coordinator fails over
// between), ingest routes to shards by calendar day, and queries
// scatter-gather mergeable partials so the cluster answers
// byte-identically to a single node holding all the data (see
// internal/cluster).
//
// Endpoints (all JSON):
//
//	POST /v1/sessions             ingest session records (array)
//	POST /v1/posts                ingest social posts (array)
//	GET  /v1/stats                store counts
//	GET  /v1/insights/engagement  dose-response curves (Fig. 1)
//	GET  /v1/insights/mos         engagement↔MOS + predictor (Fig. 4, §5)
//	GET  /v1/insights/sentiment   daily sentiment series (Fig. 5a)
//	GET  /v1/insights/peaks       annotated sentiment peaks (Fig. 5)
//	GET  /v1/insights/outages     outage-keyword series / alerts (Fig. 6)
//	GET  /v1/insights/speeds      monthly OCR speed medians (Fig. 7)
//	GET  /v1/insights/trends      emerging discussion topics
//	GET  /v1/query/experience     cross-source ISP experience query (§5)
//	GET  /v1/insights/confounders confounder effects at controlled network (§6)
//	GET  /v1/advice/traffic-engineering  ranked network improvements (§6)
//	GET  /v1/advice/deployment    launch-plan scenarios vs sentiment (§6)
//	GET  /v1/report               composed operator report (add ?format=text)
package main

import (
	"compress/gzip"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux; served only with -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"usersignals/internal/cluster"
	"usersignals/internal/durable"
	"usersignals/internal/leo"
	"usersignals/internal/newswire"
	"usersignals/internal/replica"
	"usersignals/internal/social"
	"usersignals/internal/telemetry"
	"usersignals/internal/usaas"
)

// serverConfig carries the listener, fault-tolerance, and durability
// knobs from flags.
type serverConfig struct {
	addr           string
	token          string
	readTimeout    time.Duration
	writeTimeout   time.Duration
	idleTimeout    time.Duration
	requestTimeout time.Duration
	maxInflight    int
	resultCache    int
	dataDir        string
	fsync          string
	fsyncInterval  time.Duration
	groupCommit    bool
	groupDelay     time.Duration
	snapshotEvery  int
	applyWorkers   int
	admitRate      float64
	admitBurst     float64
	pprofAddr      string

	role            string
	leaderURL       string
	maxReplicaLag   time.Duration
	shutdownTimeout time.Duration
	shards          string
}

func main() {
	var (
		cfg      serverConfig
		sessions = flag.String("sessions", "", "preload session records (.csv or .jsonl, optionally .gz)")
		posts    = flag.String("posts", "", "preload social posts (.jsonl, optionally .gz)")
	)
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address")
	flag.StringVar(&cfg.token, "token", "", "require this bearer token on every request")
	flag.DurationVar(&cfg.readTimeout, "read-timeout", 2*time.Minute, "max time to read a full request (ingest bodies included); 0 disables")
	flag.DurationVar(&cfg.writeTimeout, "write-timeout", 2*time.Minute, "max time to write a response; 0 disables")
	flag.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute, "max keep-alive idle time per connection; 0 disables")
	flag.DurationVar(&cfg.requestTimeout, "request-timeout", time.Minute, "per-request handling deadline (503 past it); <0 disables")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "max concurrently handled requests (429 past it); 0 disables")
	flag.Float64Var(&cfg.admitRate, "admit-rate", 0, "per-tenant ingest admission rate in batches/sec (429 + Retry-After past it, keyed by "+usaas.TenantHeader+"); 0 disables")
	flag.Float64Var(&cfg.admitBurst, "admit-burst", 0, "per-tenant ingest admission burst (defaults to -admit-rate)")
	flag.IntVar(&cfg.resultCache, "result-cache", 0, "result cache entries; under -role=coordinator also the decoded partials held per shard (0 = default 256; <0 disables)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durable data directory (write-ahead log + snapshots); empty = in-memory only")
	flag.StringVar(&cfg.fsync, "fsync", "batch", "WAL fsync policy: batch (sync every batch), interval (background cadence), or off")
	flag.DurationVar(&cfg.fsyncInterval, "fsync-interval", time.Second, "background sync cadence under -fsync=interval")
	flag.BoolVar(&cfg.groupCommit, "group-commit", true, "under -fsync=batch, coalesce concurrent appends into one fsync per commit group")
	flag.DurationVar(&cfg.groupDelay, "group-delay", 0, "group-commit linger: let a sealed group wait this long for more batches before its fsync (0 = sync as soon as the scheduler is free)")
	flag.IntVar(&cfg.snapshotEvery, "snapshot-every", 1024, "snapshot after this many logged batches and on shutdown; 0 disables snapshots")
	flag.IntVar(&cfg.applyWorkers, "apply-workers", 0, "apply-pipeline workers: journal and ack under the sequencing lock, fold batches into memory on this many workers (0 = apply inline; report bytes are identical either way)")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables")
	flag.StringVar(&cfg.role, "role", "", "node role: leader (serve the WAL frame feed), follower (tail a leader), or coordinator (storeless scatter-gather front end over -shards); empty = standalone")
	flag.StringVar(&cfg.leaderURL, "leader", "", "leader base URL (e.g. http://10.0.0.1:8080); required with -role=follower")
	flag.StringVar(&cfg.shards, "shards", "", "shard fleet for -role=coordinator: semicolon-separated name=url[,url] (comma = replicated pair)")
	flag.DurationVar(&cfg.maxReplicaLag, "max-replica-lag", 0, "follower staleness bound: reads answer 503 once the leader has not been heard from for this long; 0 = serve any staleness (with lag headers)")
	flag.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 10*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM; exits nonzero when exceeded")
	flag.Parse()
	if err := run(cfg, *sessions, *posts); err != nil {
		fmt.Fprintln(os.Stderr, "usaasd:", err)
		os.Exit(1)
	}
}

func run(cfg serverConfig, sessionsPath, postsPath string) error {
	var (
		store  *usaas.Store
		dstore *usaas.DurableStore
	)
	switch cfg.role {
	case "coordinator":
		return runCoordinator(cfg, sessionsPath, postsPath)
	case "", string(replica.RoleLeader), string(replica.RoleFollower):
	default:
		return fmt.Errorf("-role must be %q, %q, or %q, got %q", replica.RoleLeader, replica.RoleFollower, "coordinator", cfg.role)
	}
	if cfg.shards != "" {
		return errors.New("-shards requires -role=coordinator")
	}
	if cfg.role != "" && cfg.dataDir == "" {
		return errors.New("-role requires -data-dir: replication ships the write-ahead log")
	}
	if cfg.role == string(replica.RoleFollower) {
		if cfg.leaderURL == "" {
			return errors.New("-role=follower requires -leader")
		}
		if sessionsPath != "" || postsPath != "" {
			return errors.New("a follower cannot preload datasets; ingest through the leader")
		}
		// Seed an empty data directory from the leader's newest snapshot so
		// the follower does not need the leader's whole (possibly partially
		// compacted) log. No-op when the directory already holds state.
		installed, err := replica.Bootstrap(context.Background(), cfg.dataDir, cfg.leaderURL, cfg.token, nil)
		if err != nil {
			return fmt.Errorf("bootstrapping from leader %q: %w", cfg.leaderURL, err)
		}
		if installed {
			fmt.Printf("bootstrapped %s from leader snapshot at %s\n", cfg.dataDir, cfg.leaderURL)
		}
	}
	if cfg.dataDir != "" {
		policy, err := durable.ParseFsyncPolicy(cfg.fsync)
		if err != nil {
			return err
		}
		dstore, err = usaas.OpenDurableStore(usaas.DurabilityOptions{
			Dir:           cfg.dataDir,
			Fsync:         policy,
			FsyncInterval: cfg.fsyncInterval,
			GroupCommit:   cfg.groupCommit,
			MaxGroupDelay: cfg.groupDelay,
			SnapshotEvery: cfg.snapshotEvery,
			ApplyWorkers:  cfg.applyWorkers,
			Logf: func(format string, args ...any) {
				fmt.Printf("usaasd: "+format+"\n", args...)
			},
		})
		if err != nil {
			return fmt.Errorf("opening durable store %q: %w", cfg.dataDir, err)
		}
		defer dstore.Close()
		store = dstore.Store
		rs := dstore.Recovery
		snap := "no snapshot"
		if rs.SnapshotFound {
			snap = fmt.Sprintf("snapshot@%d (%d sessions, %d posts)",
				rs.SnapshotSeq, rs.SnapshotSessions, rs.SnapshotPosts)
		}
		torn := ""
		if rs.TornTail {
			torn = fmt.Sprintf(", discarded %dB torn tail", rs.TornBytes)
		}
		fmt.Printf("recovered %s + %d replayed batches in %v%s (fsync=%s)\n",
			snap, rs.ReplayedBatches, rs.Elapsed.Round(time.Millisecond), torn, policy)
	} else {
		store = &usaas.Store{}
		store.StartApplyPipeline(cfg.applyWorkers)
	}
	if cfg.pprofAddr != "" {
		// Opt-in profiling endpoint on its own listener, outside the
		// service's auth/limiter stack: net/http/pprof registers on the
		// default mux at import.
		go func() {
			fmt.Printf("pprof listening on http://%s/debug/pprof/\n", cfg.pprofAddr)
			if err := http.ListenAndServe(cfg.pprofAddr, nil); err != nil {
				fmt.Printf("usaasd: pprof listener: %v\n", err)
			}
		}()
	}
	// Preloads are journaled under a path-derived batch ID, so on a
	// durable restart the already-recovered dataset is not re-applied.
	if sessionsPath != "" {
		n, dup, err := loadSessions(store, sessionsPath, preloadBatchID(cfg.dataDir, sessionsPath))
		if err != nil {
			return fmt.Errorf("loading sessions: %w", err)
		}
		fmt.Printf("loaded %d sessions from %s%s\n", n, sessionsPath, dupNote(dup))
	}
	if postsPath != "" {
		n, dup, err := loadPosts(store, postsPath, preloadBatchID(cfg.dataDir, postsPath))
		if err != nil {
			return fmt.Errorf("loading posts: %w", err)
		}
		fmt.Printf("loaded %d posts from %s%s\n", n, postsPath, dupNote(dup))
	}

	// With a role set, wrap the service in a replication node: the leader
	// serves the WAL frame feed, a follower tails it, redirects writes, and
	// bounds read staleness. The node's readiness feeds /v1/readyz.
	var node *replica.Node
	if cfg.role != "" {
		var err error
		node, err = replica.Open(dstore, replica.Options{
			Role:      replica.Role(cfg.role),
			LeaderURL: cfg.leaderURL,
			MaxLag:    cfg.maxReplicaLag,
			Token:     cfg.token,
			Logf: func(format string, args ...any) {
				fmt.Printf("usaasd: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		defer node.Close()
	}

	model := leo.NewModel()
	news := newswire.Build(model.Launches(), leo.MajorOutages(), leo.DefaultMilestones())
	sopts := usaas.ServerOptions{
		Model:           model,
		News:            news,
		AuthToken:       cfg.token,
		RequestTimeout:  cfg.requestTimeout,
		MaxInflight:     cfg.maxInflight,
		ResultCacheSize: cfg.resultCache,
	}
	if cfg.admitRate > 0 {
		sopts.Admission = usaas.AdmissionOptions{Rate: cfg.admitRate, Burst: cfg.admitBurst}
	}
	if node != nil {
		sopts.Ready = node.Ready
	}
	srv := usaas.NewServer(store, sopts)
	var handler http.Handler = srv.Handler()
	if node != nil {
		handler = node.Wrap(handler)
	}

	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       cfg.readTimeout,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("usaasd listening on http://%s\n", cfg.addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case s := <-sig:
		fmt.Printf("received %v, draining for up to %v\n", s, cfg.shutdownTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			// The drain did not finish inside the bound. Exit nonzero so an
			// operator (or init system) knows requests may have been cut off;
			// the WAL already holds every acknowledged batch.
			return fmt.Errorf("shutdown: drain exceeded %v: %w", cfg.shutdownTimeout, err)
		}
	}
	if node != nil {
		node.Close()
	}
	if dstore != nil {
		// Every request has drained; flush the log and write a final
		// snapshot so the next start recovers without replay.
		if err := dstore.Close(); err != nil {
			return fmt.Errorf("closing durable store: %w", err)
		}
		fmt.Println("durable store flushed and closed")
	}
	return nil
}

// runCoordinator serves the storeless scatter-gather front end: parse the
// shard map, build the coordinator handler, and run the same graceful
// listener the store-backed roles use. Durability flags are refused —
// a coordinator holds no state to make durable.
func runCoordinator(cfg serverConfig, sessionsPath, postsPath string) error {
	if sessionsPath != "" || postsPath != "" {
		return errors.New("-role=coordinator cannot preload datasets; ingest through its HTTP API")
	}
	if cfg.dataDir != "" {
		return errors.New("-role=coordinator is storeless; drop -data-dir")
	}
	if cfg.leaderURL != "" {
		return errors.New("-leader applies to -role=follower, not coordinator")
	}
	if cfg.shards == "" {
		return errors.New("-role=coordinator requires -shards")
	}
	pmap, err := cluster.ParseShards(cfg.shards)
	if err != nil {
		return err
	}
	model := leo.NewModel()
	coord := cluster.New(pmap, cluster.Options{
		Token:           cfg.token,
		Model:           model,
		News:            newswire.Build(model.Launches(), leo.MajorOutages(), leo.DefaultMilestones()),
		ResultCacheSize: cfg.resultCache,
	})

	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       cfg.readTimeout,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("usaasd coordinator (%d shards) listening on http://%s\n", len(pmap.Shards), cfg.addr)
		errCh <- httpSrv.ListenAndServe()
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case s := <-sig:
		fmt.Printf("received %v, draining for up to %v\n", s, cfg.shutdownTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: drain exceeded %v: %w", cfg.shutdownTimeout, err)
		}
	}
	return nil
}

// preloadBatchID derives the idempotency key for a preload file. It is
// empty (no dedup) when the store is not durable: an in-memory store is
// always empty at startup, so dedup would only mask double flags.
func preloadBatchID(dataDir, path string) string {
	if dataDir == "" {
		return ""
	}
	return "preload:" + filepath.Base(path)
}

func dupNote(dup bool) string {
	if dup {
		return " (already journaled; skipped)"
	}
	return ""
}

// openMaybeGzip opens a dataset file, transparently decompressing ".gz",
// and returns the logical extension (.csv/.jsonl) alongside the reader.
func openMaybeGzip(path string) (io.ReadCloser, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	name := path
	if strings.EqualFold(filepath.Ext(name), ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, "", fmt.Errorf("opening gzip %q: %w", path, err)
		}
		name = strings.TrimSuffix(name, filepath.Ext(name))
		return struct {
			io.Reader
			io.Closer
		}{gz, f}, strings.ToLower(filepath.Ext(name)), nil
	}
	return f, strings.ToLower(filepath.Ext(name)), nil
}

func loadSessions(store *usaas.Store, path, batchID string) (int, bool, error) {
	f, ext, err := openMaybeGzip(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	var recs []telemetry.SessionRecord
	appendRec := func(r *telemetry.SessionRecord) error {
		recs = append(recs, *r)
		return nil
	}
	switch ext {
	case ".csv":
		err = telemetry.ReadCSV(f, appendRec)
	case ".jsonl":
		err = telemetry.ReadJSONL(f, appendRec)
	default:
		return 0, false, fmt.Errorf("unsupported extension on %q", path)
	}
	if err != nil {
		return 0, false, err
	}
	_, dup, err := store.AddSessionsBatch(batchID, recs)
	if err != nil {
		return 0, false, err
	}
	return len(recs), dup, nil
}

func loadPosts(store *usaas.Store, path, batchID string) (int, bool, error) {
	f, _, err := openMaybeGzip(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	posts, err := social.CollectPostsJSONL(f)
	if err != nil {
		return 0, false, err
	}
	_, dup, err := store.AddPostsBatch(batchID, posts)
	if err != nil {
		return 0, false, err
	}
	return len(posts), dup, nil
}
