package usaas

import (
	"usersignals/internal/telemetry"
)

// This file holds the chunked session row store. The PR-9 profile showed
// ~24% of ingest CPU going to growing the flat session slice: every
// doubling reallocates, zeroes, and copies the whole array under sessMu.
// Storing rows in fixed-size blocks makes append allocate one new block
// and copy only the incoming batch — published rows are never moved or
// re-zeroed again, which is also what lets readers hold a Rows snapshot
// while ingest keeps appending. This is the only in-memory copy of a
// session: every fold, snapshot and read goes through it.

const (
	rowBlockShift = 12
	rowBlockSize  = 1 << rowBlockShift // 4096
	rowBlockMask  = rowBlockSize - 1
)

type rowBlock [rowBlockSize]telemetry.SessionRecord

// rowStore is the mutable owner, guarded by sessMu. Indexes below n are
// immutable once published: append only writes indexes >= n, and the block
// directory only grows, so a snapshot taken under RLock stays valid (and
// race-free) after the lock is released.
type rowStore struct {
	blocks []*rowBlock
	n      int
}

// append copies recs into the tail block(s), allocating blocks as needed.
// Caller holds sessMu.
func (rs *rowStore) append(recs []telemetry.SessionRecord) {
	for len(recs) > 0 {
		bi, off := rs.n>>rowBlockShift, rs.n&rowBlockMask
		if bi == len(rs.blocks) {
			rs.blocks = append(rs.blocks, new(rowBlock))
		}
		c := copy(rs.blocks[bi][off:], recs)
		rs.n += c
		recs = recs[c:]
	}
}

// snapshot captures an immutable view. Caller holds sessMu (read or write).
func (rs *rowStore) snapshot() Rows {
	return Rows{blocks: rs.blocks, n: rs.n}
}

// Rows is an immutable snapshot of the session rows at some generation:
// a block directory plus a count. Copy-free to take and to hold; records
// are shared with the store and must be treated as read-only.
type Rows struct {
	blocks []*rowBlock
	n      int
}

// Len returns the number of rows in the snapshot.
func (r Rows) Len() int { return r.n }

// At returns the i-th row (read-only).
func (r Rows) At(i int) *telemetry.SessionRecord {
	return &r.blocks[i>>rowBlockShift][i&rowBlockMask]
}

// AppendTo materializes the snapshot into dst (flat copy), block by block.
func (r Rows) AppendTo(dst []telemetry.SessionRecord) []telemetry.SessionRecord {
	for lo := 0; lo < r.n; lo += rowBlockSize {
		hi := lo + rowBlockSize
		if hi > r.n {
			hi = r.n
		}
		dst = append(dst, r.blocks[lo>>rowBlockShift][:hi-lo]...)
	}
	return dst
}

// Each calls fn for rows [lo, hi) in order.
func (r Rows) Each(lo, hi int, fn func(*telemetry.SessionRecord)) {
	for i := lo; i < hi; i++ {
		fn(r.At(i))
	}
}

// Rows returns a snapshot of the live session rows, fenced so every batch
// sequenced before the call is visible. This replaces the old
// SessionsShared flat-slice accessor: the snapshot is copy-free and stays
// consistent while ingest appends behind it.
func (s *Store) Rows() Rows {
	s.fenceSessions()
	s.sessMu.RLock()
	defer s.sessMu.RUnlock()
	return s.sessions.snapshot()
}
