package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func mustAppend(t *testing.T, w *WAL, rec Record) uint64 {
	t.Helper()
	seq, err := w.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func rec(i int) Record {
	return Record{
		Type:    byte(1 + i%2),
		BatchID: fmt.Sprintf("batch-%04d", i),
		Payload: bytes.Repeat([]byte{byte(i)}, 37+i%113),
	}
}

func collect(t *testing.T, dir string, from uint64) ([]Record, ReplayInfo) {
	t.Helper()
	var out []Record
	info, err := Replay(dir, from, func(seq uint64, r Record) error {
		if seq != from+uint64(len(out)) {
			t.Fatalf("seq %d, want %d", seq, from+uint64(len(out)))
		}
		out = append(out, Record{Type: r.Type, BatchID: r.BatchID, Payload: append([]byte(nil), r.Payload...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, info
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if got := mustAppend(t, w, rec(i)); got != uint64(i) {
			t.Fatalf("append %d got seq %d", i, got)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, info := collect(t, dir, 0)
	if len(got) != n || info.Torn || info.NextSeq != n {
		t.Fatalf("replayed %d torn=%v next=%d", len(got), info.Torn, info.NextSeq)
	}
	for i, r := range got {
		want := rec(i)
		if r.Type != want.Type || r.BatchID != want.BatchID || !bytes.Equal(r.Payload, want.Payload) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// Replay from the middle skips the prefix.
	tail, _ := collect(t, dir, 10)
	if len(tail) != n-10 || tail[0].BatchID != rec(10).BatchID {
		t.Fatalf("tail replay got %d records", len(tail))
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		mustAppend(t, w, rec(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	got, info := collect(t, dir, 0)
	if len(got) != n || info.NextSeq != n {
		t.Fatalf("replayed %d across %d segments", len(got), len(segs))
	}
	// Re-open continues the sequence where the log left off.
	w2, err := OpenWAL(dir, 0, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if seq := mustAppend(t, w2, rec(n)); seq != n {
		t.Fatalf("resumed at seq %d, want %d", seq, n)
	}
	w2.Close()
}

// TestReplayRecordsMayBeRetained pins Replay's retention contract: every
// segment is read into a buffer of its own that Replay never reuses, so a
// record handed to fn from the first segment still holds its bytes after
// Replay has read the segments behind it. Recovery relies on this: it
// decodes records on other goroutines while Replay reads on.
func TestReplayRecordsMayBeRetained(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		mustAppend(t, w, rec(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 || segs[1].firstSeq == 0 {
		t.Fatalf("want records in at least two segments, got %d", len(segs))
	}
	var kept []Record // as fn saw them, payloads not copied
	if _, err := Replay(dir, 0, func(seq uint64, r Record) error {
		kept = append(kept, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kept) != n {
		t.Fatalf("replayed %d records, want %d", len(kept), n)
	}
	for i, r := range kept {
		want := rec(i)
		if r.Type != want.Type || r.BatchID != want.BatchID || !bytes.Equal(r.Payload, want.Payload) {
			t.Fatalf("record %d changed after Replay read the segments behind it", i)
		}
	}
}

func TestWALTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	var boundaries []int64
	for i := 0; i < n; i++ {
		mustAppend(t, w, rec(i))
		boundaries = append(boundaries, w.segSize)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := segmentPath(dir, 0)
	whole, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the single segment at every byte offset: recovery must
	// never error, and must yield exactly the records whose frames fit.
	for cut := int64(0); cut <= int64(len(whole)); cut++ {
		sub := filepath.Join(t.TempDir(), "cut")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(segPath)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecs := 0
		for _, b := range boundaries {
			if b <= cut {
				wantRecs++
			}
		}
		got, info := collect(t, sub, 0)
		if len(got) != wantRecs {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), wantRecs)
		}
		atBoundary := cut == 0
		for _, b := range boundaries {
			if b == cut {
				atBoundary = true
			}
		}
		if atBoundary && info.Torn {
			t.Fatalf("cut %d at frame boundary reported torn", cut)
		}
		if !atBoundary && !info.Torn {
			t.Fatalf("cut %d mid-frame not reported torn", cut)
		}
		// Opening for append after the tear truncates and continues.
		w2, err := OpenWAL(sub, 0, Options{})
		if err != nil {
			t.Fatalf("cut %d: open after tear: %v", cut, err)
		}
		if w2.Seq() != uint64(wantRecs) {
			t.Fatalf("cut %d: reopened at seq %d, want %d", cut, w2.Seq(), wantRecs)
		}
		mustAppend(t, w2, rec(99))
		w2.Close()
		got2, info2 := collect(t, sub, 0)
		if len(got2) != wantRecs+1 || info2.Torn {
			t.Fatalf("cut %d: after append replayed %d torn=%v", cut, len(got2), info2.Torn)
		}
	}
}

func TestWALBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, w, rec(i))
	}
	w.Close()
	path := segmentPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, info := collect(t, dir, 0)
	if len(got) >= 3 {
		t.Fatal("bit flip not detected")
	}
	if !info.Torn {
		t.Fatal("flip in final segment should read as torn tail")
	}
}

func TestReplayCorruptInteriorSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		mustAppend(t, w, rec(i))
	}
	w.Close()
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want ≥2 segments (err=%v)", err)
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[5] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, 0, func(uint64, Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior corruption returned %v, want ErrCorrupt", err)
	}
}

func writeSnap(t *testing.T, dir string, seq uint64, body string) {
	t.Helper()
	if err := WriteSnapshot(dir, seq, func(w io.Writer) error {
		_, err := io.WriteString(w, body)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	if _, _, found, err := LoadLatestSnapshot(dir); err != nil || found {
		t.Fatalf("empty dir: found=%v err=%v", found, err)
	}
	writeSnap(t, dir, 10, "state at ten")
	writeSnap(t, dir, 20, "state at twenty")
	seq, body, found, err := LoadLatestSnapshot(dir)
	if err != nil || !found || seq != 20 || string(body) != "state at twenty" {
		t.Fatalf("got seq=%d body=%q found=%v err=%v", seq, body, found, err)
	}
	// Corrupt the newest: recovery falls back to the older one.
	data, err := os.ReadFile(snapshotPath(dir, 20))
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(snapshotPath(dir, 20), data, 0o644); err != nil {
		t.Fatal(err)
	}
	seq, body, found, err = LoadLatestSnapshot(dir)
	if err != nil || !found || seq != 10 || string(body) != "state at ten" {
		t.Fatalf("fallback got seq=%d body=%q found=%v err=%v", seq, body, found, err)
	}
	// A leftover .tmp is ignored by load and removed by OpenWAL.
	tmp := filepath.Join(dir, "snap-00000000000000ff.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadLatestSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(dir, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover .tmp not cleaned up")
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		mustAppend(t, w, rec(i))
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	snapSeq := w.Seq()
	writeSnap(t, dir, 5, "older")
	writeSnap(t, dir, snapSeq, "full")
	if err := w.Compact(snapSeq); err != nil {
		t.Fatal(err)
	}
	after, _ := listSegments(dir)
	if len(after) >= len(segs) {
		t.Fatalf("compaction kept %d of %d segments", len(after), len(segs))
	}
	if snaps, _ := listSnapshots(dir); len(snaps) != 1 || snaps[0] != snapSeq {
		t.Fatalf("snapshot compaction kept %v", snaps)
	}
	// Replay from the snapshot's seq still works over what's left.
	got, info := collect(t, dir, snapSeq)
	if len(got) != 0 || info.NextSeq != snapSeq || info.Torn {
		t.Fatalf("post-compaction replay: %d records next=%d", len(got), info.NextSeq)
	}
	// And appends continue seamlessly.
	mustAppend(t, w, rec(12))
	w.Close()
	got, _ = collect(t, dir, snapSeq)
	if len(got) != 1 {
		t.Fatalf("append after compaction: replayed %d", len(got))
	}
}

func TestOpenWALStartsAtSnapshotSeq(t *testing.T) {
	// Log torn away to before the snapshot's coverage: appends must not
	// reuse sequences the snapshot claims.
	dir := t.TempDir()
	w, err := OpenWAL(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustAppend(t, w, rec(i))
	}
	w.Close()
	writeSnap(t, dir, 4, "covers all four")
	// Simulate losing the whole segment (e.g. compacted, then crash).
	if err := os.Remove(segmentPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq := mustAppend(t, w2, rec(4)); seq != 4 {
		t.Fatalf("appended at seq %d, want 4", seq)
	}
	w2.Close()
	got, _ := collect(t, dir, 4)
	if len(got) != 1 || got[0].BatchID != rec(4).BatchID {
		t.Fatalf("replay from snapshot seq got %d records", len(got))
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"batch", FsyncPerBatch}, {"", FsyncPerBatch}, {"interval", FsyncInterval}, {"off", FsyncOff}} {
		got, err := ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("round trip %q -> %q", tc.in, got.String())
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
