package colstore

import (
	"fmt"
	"sync"
	"time"

	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// FloatCol names one dense float64 column. Every float field of
// SessionRecord has a column so sealed partitions can round-trip records
// exactly; the analyses only sweep the Metric/Engagement subset.
type FloatCol int

// Float columns, in NetAggregates field order, then duration and engagement.
const (
	FLatencyMean FloatCol = iota
	FLatencyMedian
	FLatencyP95
	FLossMean
	FLossMedian
	FLossP95
	FJitterMean
	FJitterMedian
	FJitterP95
	FBWMean
	FBWMedian
	FBWP95
	FDurationSec
	FPresencePct
	FCamOnPct
	FMicOnPct
	NumFloatCols
)

// MetricCol maps an analysis metric to its column.
func MetricCol(m telemetry.Metric) (FloatCol, bool) {
	switch m {
	case telemetry.LatencyMean:
		return FLatencyMean, true
	case telemetry.LossMean:
		return FLossMean, true
	case telemetry.JitterMean:
		return FJitterMean, true
	case telemetry.BandwidthMean:
		return FBWMean, true
	case telemetry.LatencyP95:
		return FLatencyP95, true
	case telemetry.LossP95:
		return FLossP95, true
	case telemetry.JitterP95:
		return FJitterP95, true
	case telemetry.BandwidthP95:
		return FBWP95, true
	}
	return 0, false
}

// EngagementCol maps an engagement metric to its column.
func EngagementCol(e telemetry.Engagement) (FloatCol, bool) {
	switch e {
	case telemetry.Presence:
		return FPresencePct, true
	case telemetry.CamOn:
		return FCamOnPct, true
	case telemetry.MicOn:
		return FMicOnPct, true
	}
	return 0, false
}

// BoolCol names one bitset column.
type BoolCol int

// Bool columns.
const (
	BLeftEarly BoolCol = iota
	BRated
	BEnterprise
	numBoolCols
)

// Dictionary capacity limits: platform and country codes are uint16 on the
// wire between partitions and predicates, ISP codes uint32. Overflowing a
// dictionary is an Append error; the caller discards the store.
const (
	maxSmallDict = 1 << 16
	maxISPDict   = 1 << 31
)

// dict interns strings to dense codes. Appends happen under the owning
// store's write lock, but predicate compilation and record materialization
// read dictionaries after that lock is released, so access is guarded here.
type dict struct {
	mu    sync.RWMutex
	ids   map[string]uint32
	names []string
}

func (d *dict) code(s string, limit int) (uint32, bool) {
	d.mu.RLock()
	c, ok := d.ids[s]
	d.mu.RUnlock()
	if ok {
		return c, true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.ids[s]; ok {
		return c, true
	}
	if len(d.names) >= limit {
		return 0, false
	}
	if d.ids == nil {
		d.ids = map[string]uint32{}
	}
	c = uint32(len(d.names))
	d.names = append(d.names, s)
	d.ids[s] = c
	return c, true
}

func (d *dict) lookup(s string) (uint32, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c, ok := d.ids[s]
	return c, ok
}

func (d *dict) name(c uint32) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.names[c]
}

func (d *dict) memBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var b int64
	for _, s := range d.names {
		b += int64(len(s)) + 16 // string bytes + header, counted once per distinct value
	}
	return b
}

// openCols is the uncompressed column set of the open (current-day)
// partition. Every slice is append-only under the store owner's write lock;
// snapshots capture clipped headers, so concurrent readers never observe a
// growing slice.
type openCols struct {
	floats   [NumFloatCols][]float64
	bools    [numBoolCols][]bool
	platform []uint16
	country  []uint16
	isp      []uint32
	meeting  []int64
	rating   []int64
	startNS  []int64
	callID   []uint64
	userID   []uint64
}

// newOpenCols allocates a column set with capacity for a full partition up
// front. A partition is bounded by maxPartitionRows, so reserving it whole
// means the 27 per-record column appends never reallocate: the incremental
// doubling (and, past 256 elements, Go's ~1.25x growth) was reallocating
// each column several times per partition on the ingest apply path, and the
// abandoned half-grown arrays were pure GC churn. Short partitions waste
// some slack only until they seal; SealTail clips or copies columns to
// their final length.
func newOpenCols() *openCols {
	oc := &openCols{}
	for c := range oc.floats {
		oc.floats[c] = make([]float64, 0, maxPartitionRows)
	}
	for c := range oc.bools {
		oc.bools[c] = make([]bool, 0, maxPartitionRows)
	}
	oc.platform = make([]uint16, 0, maxPartitionRows)
	oc.country = make([]uint16, 0, maxPartitionRows)
	oc.isp = make([]uint32, 0, maxPartitionRows)
	oc.meeting = make([]int64, 0, maxPartitionRows)
	oc.rating = make([]int64, 0, maxPartitionRows)
	oc.startNS = make([]int64, 0, maxPartitionRows)
	oc.callID = make([]uint64, 0, maxPartitionRows)
	oc.userID = make([]uint64, 0, maxPartitionRows)
	return oc
}

// sealedCols is the compressed column set of a sealed partition. Float
// columns stay raw (the compression spec covers timestamps, small ints, and
// strings); bools become bitsets; code and small-int columns are min-offset
// bit-packed with O(1) random access; the cold ID columns are
// successive-delta packed and decoded only by Materialize.
type sealedCols struct {
	floats   [NumFloatCols][]float64
	bools    [numBoolCols][]uint64
	platform packed
	country  packed
	isp      packed
	meeting  packed // zigzag-transformed
	rating   packed // zigzag-transformed
	startNS  packed // zigzag-transformed
	callID   packed // delta
	userID   packed // delta
}

// Partition boundary policy. A partition prefers to be one contiguous
// ingest-order day run: when ingest arrives in day order (the production
// shape — telemetry batches land as the day they describe closes), a day
// change seals the tail and the mirror holds pure single-day partitions.
// But ingest order is whatever the feed delivers, and a feed that
// interleaves days must not shatter the mirror into per-record partitions —
// per-partition overhead would swamp every sweep. So a day change only cuts
// a partition that has already reached minDayRun records; shorter runs
// absorb the new day and the partition is marked mixed. maxPartitionRows
// bounds every partition regardless. Boundaries depend only on the record
// sequence, so identically-ingested stores partition identically.
const (
	minDayRun        = 2048
	maxPartitionRows = 8192
)

// Partition is one contiguous ingest-order run — a single calendar day when
// ingest arrives day-ordered, a bounded mixed run otherwise. Exactly one
// partition — the last — may be open (seal == nil); sealed partitions are
// immutable.
type Partition struct {
	day     timeline.Day // day of the first record
	lastDay timeline.Day // day of the last record appended so far
	mixed   bool         // records span more than one day
	start   int          // absolute index of the partition's first record
	n       int
	open    *openCols
	seal    *sealedCols
}

// Day returns the calendar day of the partition's first record (the only
// day present unless Mixed reports true).
func (pt *Partition) Day() timeline.Day { return pt.day }

// Mixed reports whether the partition holds more than one calendar day —
// the out-of-order-ingest shape.
func (pt *Partition) Mixed() bool { return pt.mixed }

// Base returns the absolute record index of the partition's first record.
func (pt *Partition) Base() int { return pt.start }

// Len returns the partition's record count (fixed at snapshot time for the
// open tail).
func (pt *Partition) Len() int { return pt.n }

// Sealed reports whether the partition is compressed.
func (pt *Partition) Sealed() bool { return pt.seal != nil }

// Floats returns the column's raw values. Identical representation sealed or
// open: float columns are never transformed.
func (pt *Partition) Floats(c FloatCol) []float64 {
	if pt.seal != nil {
		return pt.seal.floats[c]
	}
	return pt.open.floats[c]
}

func (pt *Partition) boolAt(c BoolCol, i int) bool {
	if pt.seal != nil {
		return pt.seal.bools[c][i>>6]>>(uint(i)&63)&1 == 1
	}
	return pt.open.bools[c][i]
}

// andBool ANDs the bool column's bits [from, from+n) into sel[0..n).
func (pt *Partition) andBool(c BoolCol, sel []uint64, from, n int) {
	if pt.seal != nil {
		andBitsInto(sel, pt.seal.bools[c], from, n)
		return
	}
	bl := pt.open.bools[c]
	// sel is all-ones here (enterprise is the first clause), so build each
	// word densely instead of iterating set bits.
	for k := range sel {
		if sel[k] == 0 {
			continue
		}
		base := from + k<<6
		lim := n - k<<6
		if lim > 64 {
			lim = 64
		}
		var m uint64
		for j := 0; j < lim; j++ {
			if bl[base+j] {
				m |= 1 << uint(j)
			}
		}
		sel[k] &= m
	}
}

// PlatformCode returns the record's platform dictionary code.
func (pt *Partition) PlatformCode(i int) uint32 {
	if pt.seal != nil {
		return uint32(pt.seal.platform.directAt(i))
	}
	return uint32(pt.open.platform[i])
}

func (pt *Partition) countryCode(i int) uint32 {
	if pt.seal != nil {
		return uint32(pt.seal.country.directAt(i))
	}
	return uint32(pt.open.country[i])
}

func (pt *Partition) ispCode(i int) uint32 {
	if pt.seal != nil {
		return uint32(pt.seal.isp.directAt(i))
	}
	return pt.open.isp[i]
}

// MeetingSize returns the record's participant count.
func (pt *Partition) MeetingSize(i int) int {
	if pt.seal != nil {
		return int(unzigzag(pt.seal.meeting.directAt(i)))
	}
	return int(pt.open.meeting[i])
}

func (pt *Partition) ratingAt(i int) int {
	if pt.seal != nil {
		return int(unzigzag(pt.seal.rating.directAt(i)))
	}
	return int(pt.open.rating[i])
}

// StartNanos returns the record's start instant as Unix nanoseconds.
func (pt *Partition) StartNanos(i int) int64 {
	if pt.seal != nil {
		return unzigzag(pt.seal.startNS.directAt(i))
	}
	return pt.open.startNS[i]
}

// Store is a columnar copy of a record sequence. Append, Snapshot, SealTail,
// and Stats rely on the caller for synchronization; only the dictionaries
// carry their own locks, because they are read after snapshot release.
type Store struct {
	platform dict
	country  dict
	isp      dict
	parts    []*Partition
	total    int
}

// New creates an empty mirror.
func New() *Store { return &Store{} }

// Len returns the mirrored record count. Caller synchronizes.
func (s *Store) Len() int { return s.total }

// Append copies a batch in. Caller holds the owner's write lock. On error
// (dictionary overflow) the store is inconsistent and must be discarded.
func (s *Store) Append(recs []telemetry.SessionRecord) error {
	for i := range recs {
		r := &recs[i]
		day := timeline.DayOf(r.Start)
		tail := s.tail()
		cut := tail == nil || tail.seal != nil || tail.n >= maxPartitionRows ||
			(tail.lastDay != day && tail.n >= minDayRun)
		if cut {
			s.SealTail()
			tail = &Partition{day: day, lastDay: day, start: s.total, open: newOpenCols()}
			s.parts = append(s.parts, tail)
		} else if tail.lastDay != day {
			tail.mixed = true
			tail.lastDay = day
		}
		pc, ok1 := s.platform.code(r.Platform, maxSmallDict)
		cc, ok2 := s.country.code(r.Country, maxSmallDict)
		ic, ok3 := s.isp.code(r.ISP, maxISPDict)
		if !ok1 || !ok2 || !ok3 {
			return fmt.Errorf("colstore: dictionary overflow")
		}
		oc := tail.open
		oc.floats[FLatencyMean] = append(oc.floats[FLatencyMean], r.Net.LatencyMean)
		oc.floats[FLatencyMedian] = append(oc.floats[FLatencyMedian], r.Net.LatencyMedian)
		oc.floats[FLatencyP95] = append(oc.floats[FLatencyP95], r.Net.LatencyP95)
		oc.floats[FLossMean] = append(oc.floats[FLossMean], r.Net.LossMean)
		oc.floats[FLossMedian] = append(oc.floats[FLossMedian], r.Net.LossMedian)
		oc.floats[FLossP95] = append(oc.floats[FLossP95], r.Net.LossP95)
		oc.floats[FJitterMean] = append(oc.floats[FJitterMean], r.Net.JitterMean)
		oc.floats[FJitterMedian] = append(oc.floats[FJitterMedian], r.Net.JitterMedian)
		oc.floats[FJitterP95] = append(oc.floats[FJitterP95], r.Net.JitterP95)
		oc.floats[FBWMean] = append(oc.floats[FBWMean], r.Net.BWMean)
		oc.floats[FBWMedian] = append(oc.floats[FBWMedian], r.Net.BWMedian)
		oc.floats[FBWP95] = append(oc.floats[FBWP95], r.Net.BWP95)
		oc.floats[FDurationSec] = append(oc.floats[FDurationSec], r.DurationSec)
		oc.floats[FPresencePct] = append(oc.floats[FPresencePct], r.PresencePct)
		oc.floats[FCamOnPct] = append(oc.floats[FCamOnPct], r.CamOnPct)
		oc.floats[FMicOnPct] = append(oc.floats[FMicOnPct], r.MicOnPct)
		oc.bools[BLeftEarly] = append(oc.bools[BLeftEarly], r.LeftEarly)
		oc.bools[BRated] = append(oc.bools[BRated], r.Rated)
		oc.bools[BEnterprise] = append(oc.bools[BEnterprise], r.Enterprise)
		oc.platform = append(oc.platform, uint16(pc))
		oc.country = append(oc.country, uint16(cc))
		oc.isp = append(oc.isp, ic)
		oc.meeting = append(oc.meeting, int64(r.MeetingSize))
		oc.rating = append(oc.rating, int64(r.Rating))
		oc.startNS = append(oc.startNS, r.Start.UnixNano())
		oc.callID = append(oc.callID, r.CallID)
		oc.userID = append(oc.userID, r.UserID)
		tail.n++
		s.total++
	}
	return nil
}

func (s *Store) tail() *Partition {
	if len(s.parts) == 0 {
		return nil
	}
	return s.parts[len(s.parts)-1]
}

// SealTail compresses the open tail partition, if any. Called automatically
// on day transitions; exposed so tests and benchmarks can measure the
// all-sealed shape. Caller holds the owner's write lock. The old open
// partition object is left intact — live snapshots hold clones of it.
func (s *Store) SealTail() {
	tail := s.tail()
	if tail == nil || tail.seal != nil {
		return
	}
	oc := tail.open
	sc := &sealedCols{}
	for c := FloatCol(0); c < NumFloatCols; c++ {
		vals := oc.floats[c][:tail.n]
		if cap(oc.floats[c]) >= tail.n+tail.n/2 {
			// The open columns are preallocated a full partition's capacity;
			// a short partition (day-boundary cut) would pin the whole
			// backing array behind a clipped header forever. Copy those to
			// exact size; full partitions share the backing array as before.
			vals = append(make([]float64, 0, tail.n), vals...)
		}
		sc.floats[c] = vals[:len(vals):len(vals)]
	}
	for c := BoolCol(0); c < numBoolCols; c++ {
		sc.bools[c] = packBools(oc.bools[c][:tail.n])
	}
	sc.platform = packDirect(widen16(oc.platform[:tail.n]))
	sc.country = packDirect(widen16(oc.country[:tail.n]))
	sc.isp = packDirect(widen32(oc.isp[:tail.n]))
	sc.meeting = packDirect(zigzags(oc.meeting[:tail.n]))
	sc.rating = packDirect(zigzags(oc.rating[:tail.n]))
	sc.startNS = packDirect(zigzags(oc.startNS[:tail.n]))
	sc.callID = packDelta(oc.callID[:tail.n])
	sc.userID = packDelta(oc.userID[:tail.n])
	s.parts[len(s.parts)-1] = &Partition{day: tail.day, lastDay: tail.lastDay, mixed: tail.mixed, start: tail.start, n: tail.n, seal: sc}
}

func widen16(xs []uint16) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}

func widen32(xs []uint32) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}

func zigzags(xs []int64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = zigzag(x)
	}
	return out
}

// Snapshot is an immutable view of the mirror at a point in time. Sealed
// partitions are shared; the open tail is captured as a clone with clipped
// column headers, so later appends (which only ever extend slices) are
// invisible and race-free.
type Snapshot struct {
	store *Store
	parts []*Partition
	total int
}

// Snapshot captures the current state. Caller holds the owner's lock (read
// suffices).
func (s *Store) Snapshot() Snapshot {
	snap := Snapshot{store: s, total: s.total}
	if len(s.parts) == 0 {
		return snap
	}
	snap.parts = make([]*Partition, len(s.parts))
	copy(snap.parts, s.parts)
	last := snap.parts[len(snap.parts)-1]
	if last.seal == nil {
		clone := Partition{day: last.day, lastDay: last.lastDay, mixed: last.mixed, start: last.start, n: last.n}
		oc := *last.open
		clipOpen(&oc, last.n)
		clone.open = &oc
		snap.parts[len(snap.parts)-1] = &clone
	}
	return snap
}

func clipOpen(oc *openCols, n int) {
	for c := range oc.floats {
		oc.floats[c] = oc.floats[c][:n:n]
	}
	for c := range oc.bools {
		oc.bools[c] = oc.bools[c][:n:n]
	}
	oc.platform = oc.platform[:n:n]
	oc.country = oc.country[:n:n]
	oc.isp = oc.isp[:n:n]
	oc.meeting = oc.meeting[:n:n]
	oc.rating = oc.rating[:n:n]
	oc.startNS = oc.startNS[:n:n]
	oc.callID = oc.callID[:n:n]
	oc.userID = oc.userID[:n:n]
}

// Len returns the snapshot's record count.
func (s Snapshot) Len() int { return s.total }

// Scan walks the partitions overlapping absolute record range [lo, hi),
// calling fn with partition-local index bounds. Visits run in ascending
// record order — the ingest order — which is what keeps columnar folds
// bit-identical to row scans.
func (s Snapshot) Scan(lo, hi int, fn func(pt *Partition, from, to int)) {
	if hi > s.total {
		hi = s.total
	}
	for _, pt := range s.parts {
		if pt.start >= hi {
			return
		}
		if pt.start+pt.n <= lo {
			continue
		}
		from, to := 0, pt.n
		if lo > pt.start {
			from = lo - pt.start
		}
		if hi < pt.start+pt.n {
			to = hi - pt.start
		}
		fn(pt, from, to)
	}
}

// AppendRecords materializes the snapshot back into row records, appending
// to dst. This is the cold path (fuzz verification, export); it decodes the
// delta-packed ID columns partition by partition.
func (s Snapshot) AppendRecords(dst []telemetry.SessionRecord) []telemetry.SessionRecord {
	var callIDs, userIDs []uint64
	for _, pt := range s.parts {
		if pt.seal != nil {
			callIDs = pt.seal.callID.unpackDelta(callIDs)
			userIDs = pt.seal.userID.unpackDelta(userIDs)
		} else {
			callIDs, userIDs = pt.open.callID, pt.open.userID
		}
		for i := 0; i < pt.n; i++ {
			dst = append(dst, telemetry.SessionRecord{
				CallID:      callIDs[i],
				UserID:      userIDs[i],
				Platform:    s.store.platform.name(pt.PlatformCode(i)),
				MeetingSize: pt.MeetingSize(i),
				Start:       time.Unix(0, pt.StartNanos(i)).UTC(),
				DurationSec: pt.Floats(FDurationSec)[i],
				Net: telemetry.NetAggregates{
					LatencyMean: pt.Floats(FLatencyMean)[i], LatencyMedian: pt.Floats(FLatencyMedian)[i], LatencyP95: pt.Floats(FLatencyP95)[i],
					LossMean: pt.Floats(FLossMean)[i], LossMedian: pt.Floats(FLossMedian)[i], LossP95: pt.Floats(FLossP95)[i],
					JitterMean: pt.Floats(FJitterMean)[i], JitterMedian: pt.Floats(FJitterMedian)[i], JitterP95: pt.Floats(FJitterP95)[i],
					BWMean: pt.Floats(FBWMean)[i], BWMedian: pt.Floats(FBWMedian)[i], BWP95: pt.Floats(FBWP95)[i],
				},
				PresencePct: pt.Floats(FPresencePct)[i],
				CamOnPct:    pt.Floats(FCamOnPct)[i],
				MicOnPct:    pt.Floats(FMicOnPct)[i],
				LeftEarly:   pt.boolAt(BLeftEarly, i),
				Rated:       pt.boolAt(BRated, i),
				Rating:      pt.ratingAt(i),
				Country:     s.store.country.name(pt.countryCode(i)),
				Enterprise:  pt.boolAt(BEnterprise, i),
				ISP:         s.store.isp.name(pt.ispCode(i)),
			})
		}
	}
	return dst
}

// Stats reports the mirror's resident footprint. Caller holds the owner's
// lock.
type Stats struct {
	Records          int
	Partitions       int
	SealedPartitions int
	OpenBytes        int64
	SealedBytes      int64
	DictBytes        int64
}

// Stats computes the resident-bytes breakdown.
func (s *Store) Stats() Stats {
	st := Stats{Records: s.total, Partitions: len(s.parts)}
	st.DictBytes = s.platform.memBytes() + s.country.memBytes() + s.isp.memBytes()
	for _, pt := range s.parts {
		if pt.seal != nil {
			st.SealedPartitions++
			sc := pt.seal
			var b int64
			for c := range sc.floats {
				b += int64(len(sc.floats[c])) * 8
			}
			for c := range sc.bools {
				b += int64(len(sc.bools[c])) * 8
			}
			b += sc.platform.memBytes() + sc.country.memBytes() + sc.isp.memBytes() +
				sc.meeting.memBytes() + sc.rating.memBytes() + sc.startNS.memBytes() +
				sc.callID.memBytes() + sc.userID.memBytes()
			st.SealedBytes += b
		} else {
			oc := pt.open
			var b int64
			for c := range oc.floats {
				b += int64(len(oc.floats[c])) * 8
			}
			for c := range oc.bools {
				b += int64(len(oc.bools[c]))
			}
			b += int64(len(oc.platform))*2 + int64(len(oc.country))*2 + int64(len(oc.isp))*4
			b += int64(len(oc.meeting)+len(oc.rating)+len(oc.startNS)+len(oc.callID)+len(oc.userID)) * 8
			st.OpenBytes += b
		}
	}
	return st
}
