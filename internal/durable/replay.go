package durable

import (
	"fmt"
	"os"
	"path/filepath"
)

// ReplayInfo summarizes what a replay saw, for recovery logging and the
// crash-recovery tests.
type ReplayInfo struct {
	// NextSeq is the sequence after the last replayed record — the point
	// the log's intact prefix reaches.
	NextSeq uint64
	// Replayed counts records delivered to the callback (≥ fromSeq only).
	Replayed int
	// Torn reports that the last segment ended in a torn or truncated
	// frame, which was discarded.
	Torn bool
	// TornBytes is the size of the discarded tail when Torn.
	TornBytes int64
}

// Replay walks the log in sequence order, invoking fn for every record
// with seq ≥ fromSeq (records a snapshot already covers are skipped
// without decoding cost beyond the frame walk). A record's Payload aliases
// its segment's buffer, which Replay reads fresh for every segment and never
// reuses or writes, so fn may retain a record after it returns — recovery
// hands records to decoder goroutines that finish after Replay moved on.
//
// A CRC-invalid or incomplete frame at the end of the final segment is a
// torn tail: replay stops cleanly there and reports it. The same damage in
// any earlier segment returns ErrCorrupt — crash semantics cannot produce
// it, so recovery must not silently drop interior history. A non-final
// segment whose last frame ends short is likewise corrupt.
func Replay(dir string, fromSeq uint64, fn func(seq uint64, rec Record) error) (ReplayInfo, error) {
	var info ReplayInfo
	info.NextSeq = fromSeq
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return info, nil
		}
		return info, err
	}
	if len(segs) == 0 {
		return info, nil
	}
	for i, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			return info, fmt.Errorf("durable: reading segment: %w", err)
		}
		final := i == len(segs)-1
		seq := s.firstSeq
		off := 0
		for off < len(data) {
			rec, n, ok := parseFrame(data[off:])
			if !ok {
				if !final {
					return info, corruptErr(s, seq, off)
				}
				info.Torn = true
				info.TornBytes = int64(len(data) - off)
				info.NextSeq = seq
				return info, nil
			}
			if seq >= fromSeq {
				if err := fn(seq, rec); err != nil {
					return info, err
				}
				info.Replayed++
			}
			seq++
			off += n
		}
		// Sanity: segment names must agree with frame counts, or replay
		// would assign wrong sequences from here on.
		if !final && segs[i+1].firstSeq != seq {
			return info, fmt.Errorf("%w: segment %s holds %d records (seqs %d-%d) but next segment starts at %d",
				ErrCorrupt, filepath.Base(s.path), seq-s.firstSeq, s.firstSeq, seq-1, segs[i+1].firstSeq)
		}
		info.NextSeq = seq
	}
	if info.NextSeq < fromSeq {
		info.NextSeq = fromSeq
	}
	return info, nil
}

// FrameBoundaries returns the byte offset just past each valid frame in a
// raw segment. Crash-injection tests use it to truncate a log at every
// frame boundary (and anywhere between) and assert recovery replays
// exactly the frames that survived whole.
func FrameBoundaries(data []byte) []int64 {
	var bounds []int64
	off := 0
	for {
		_, n, ok := parseFrame(data[off:])
		if !ok {
			return bounds
		}
		off += n
		bounds = append(bounds, int64(off))
	}
}
