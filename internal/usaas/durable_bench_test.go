package usaas

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"usersignals/internal/benchguard"
	"usersignals/internal/conference"
	"usersignals/internal/durable"
	"usersignals/internal/social"
	"usersignals/internal/telemetry"
)

func benchSessions(b *testing.B, n int) []telemetry.SessionRecord {
	b.Helper()
	g, err := conference.New(conference.Defaults(42, 400))
	if err != nil {
		b.Fatal(err)
	}
	recs, err := g.GenerateAll()
	if err != nil {
		b.Fatal(err)
	}
	if len(recs) < n {
		b.Fatalf("dataset too small: %d < %d", len(recs), n)
	}
	return recs[:n]
}

// BenchmarkIngestWAL measures the journaling overhead a batch pays on the
// ingest path — what a POST /v1/sessions costs end to end inside the
// process: parse the NDJSON body, then apply the batch. The in-memory
// store is the baseline; the same batches then go through a DurableStore
// under each fsync policy. As on the HTTP path, the wire bytes are in
// hand (the handler captures the request body), so the journal logs them
// verbatim rather than re-encoding. The acceptance target is fsync=off
// and fsync=interval within 2x of memory.
//
// Requires a fixed iteration count (-benchtime=2000x); benchguard fails
// the run otherwise. Time-based auto-scaling pushes total write volume
// past the kernel's dirty-page thresholds, at which point every durable
// mode measures the disk's sustained writeback bandwidth instead of the
// journaling overhead.
func BenchmarkIngestWAL(b *testing.B) {
	benchguard.FixedIterations(b)
	const batch = 20
	seedRecs := benchSessions(b, batch)
	wire, err := telemetry.AppendNDJSON(nil, seedRecs)
	if err != nil {
		b.Fatal(err)
	}
	payload := int64(len(wire))

	// parse decodes the wire body exactly as handleSessions does.
	recs := make([]telemetry.SessionRecord, 0, batch)
	parse := func(b *testing.B) []telemetry.SessionRecord {
		recs = recs[:0]
		if err := telemetry.ReadJSONL(bytes.NewReader(wire), func(rec *telemetry.SessionRecord) error {
			recs = append(recs, *rec)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		return recs
	}

	// Ingest accumulates state, so reset the store every resetEvery
	// batches (off the clock) to keep fold costs representative and
	// memory bounded at large b.N.
	const resetEvery = 512

	b.Run("memory", func(b *testing.B) {
		b.SetBytes(payload)
		b.ReportAllocs()
		s := &Store{}
		for i := 0; i < b.N; i++ {
			if i%resetEvery == 0 && i > 0 {
				b.StopTimer()
				s = &Store{}
				b.StartTimer()
			}
			if _, _, err := s.addSessionsBatch(fmt.Sprintf("b%d", i), parse(b), wire); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, mode := range []durable.FsyncPolicy{durable.FsyncOff, durable.FsyncInterval, durable.FsyncPerBatch} {
		b.Run("wal-fsync-"+mode.String(), func(b *testing.B) {
			b.SetBytes(payload)
			b.ReportAllocs()
			open := func() *DurableStore {
				d, err := OpenDurableStore(DurabilityOptions{Dir: b.TempDir(), Fsync: mode})
				if err != nil {
					b.Fatal(err)
				}
				return d
			}
			d := open()
			for i := 0; i < b.N; i++ {
				if i%resetEvery == 0 && i > 0 {
					b.StopTimer()
					d.Close()
					d = open()
					b.StartTimer()
				}
				if _, _, err := d.addSessionsBatch(fmt.Sprintf("b%d", i), parse(b), wire); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			d.Close()
		})
	}

	// wal-fsync-batch-group: the same per-batch durability contract, but
	// with concurrent appenders sharing commit groups. 16 goroutines
	// drive the async ingest path against one group-commit store, so a
	// single fsync covers many acks — this is the shape the load harness
	// measures over HTTP, minus the network.
	b.Run("wal-fsync-batch-group", func(b *testing.B) {
		b.SetBytes(payload)
		b.ReportAllocs()
		d, err := OpenDurableStore(DurabilityOptions{
			Dir: b.TempDir(), Fsync: durable.FsyncPerBatch, GroupCommit: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		var seq atomic.Uint64
		b.SetParallelism(16)
		b.RunParallel(func(pb *testing.PB) {
			local := make([]telemetry.SessionRecord, 0, batch)
			for pb.Next() {
				local = local[:0]
				if err := telemetry.ReadJSONL(bytes.NewReader(wire), func(rec *telemetry.SessionRecord) error {
					local = append(local, *rec)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				id := fmt.Sprintf("g%d", seq.Add(1))
				_, _, tk, job, err := d.addSessionsBatchAsync(id, local, wire, false)
				if job != nil {
					// local is reused next iteration; wait out the apply.
					<-job.done
				}
				if err == nil {
					err = d.finishIngest(id, tk)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		if m, ok := d.CommitMetrics(); ok && m.Groups > 0 {
			b.ReportMetric(float64(m.Batches)/float64(m.Groups), "batches/group")
		}
		d.Close()
	})
}

// BenchmarkRecovery measures cold-start cost. "replay" and "snapshot" hold
// one fixed corpus of many small batches — the shape a live ingest feed
// leaves behind — recovered by full WAL replay or from a snapshot that
// already covers the whole log, so replay pays per-batch parse/dedup/fold
// overhead that the snapshot's single restore does not. "snapshot+tail" is
// the shape a backfill leaves: 500-record batches, a snapshot over the first
// half, and the second half replayed past it — the snapshot's sessions
// parse on every core, and the tail's batches parse in the decode window
// ahead of the in-order apply.
func BenchmarkRecovery(b *testing.B) {
	// build journals batches copies of recs, each under its own batch ID,
	// and cuts a snapshot after the first snapAt of them (none when 0).
	build := func(b *testing.B, recs []telemetry.SessionRecord, batches, snapAt int) string {
		dir := b.TempDir()
		d, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < batches; i++ {
			if _, _, err := d.AddSessionsBatch(fmt.Sprintf("b%d", i), recs); err != nil {
				b.Fatal(err)
			}
			if i+1 == snapAt {
				if err := d.snapshotNow(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}

	run := func(b *testing.B, dir string, wantReplayed, sessions int) {
		b.ReportAllocs()
		b.ResetTimer() // building dir is not recovery
		for i := 0; i < b.N; i++ {
			d, err := OpenDurableStore(DurabilityOptions{Dir: dir, Fsync: durable.FsyncOff})
			if err != nil {
				b.Fatal(err)
			}
			if d.Recovery.ReplayedBatches != wantReplayed {
				b.Fatalf("replayed %d, want %d", d.Recovery.ReplayedBatches, wantReplayed)
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(sessions), "sessions")
	}

	const batches, batch = 500, 10
	small := benchSessions(b, batch)
	b.Run("replay", func(b *testing.B) { run(b, build(b, small, batches, 0), batches, batches*batch) })
	b.Run("snapshot", func(b *testing.B) { run(b, build(b, small, batches, batches), 0, batches*batch) })

	const bulkBatches, bulk = 80, 500
	b.Run("snapshot+tail", func(b *testing.B) {
		dir := build(b, benchSessions(b, bulk), bulkBatches, bulkBatches/2)
		run(b, dir, bulkBatches/2, bulkBatches*bulk)
	})
}

// BenchmarkDecodeBatch times decodeBatch — the parse that recovery's decode
// window, a follower's ApplyReplicated and nothing else runs on a logged
// batch — on 500-record bulk batches of each family, encoded as the
// journal holds them: sessions from conference seed 42, posts from the
// seed-42 corpus.
func BenchmarkDecodeBatch(b *testing.B) {
	const bulk = 500
	wire, err := telemetry.AppendNDJSON(nil, benchSessions(b, bulk))
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := social.Generate(social.DefaultConfig(42))
	if err != nil {
		b.Fatal(err)
	}
	var posts bytes.Buffer
	if err := social.WritePostsJSONL(&posts, corpus.Posts[:bulk]); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		rec  durable.Record
	}{
		{"sessions", durable.Record{Type: recSessions, Payload: wire}},
		{"posts", durable.Record{Type: recPosts, Payload: posts.Bytes()}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.rec.Payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := decodeBatch(c.rec)
				if err != nil || len(d.sessions)+len(d.posts) != bulk {
					b.Fatalf("decoded %d+%d records: %v", len(d.sessions), len(d.posts), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bulk)/1e3, "us/record")
		})
	}
}
