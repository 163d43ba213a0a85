// Package colstore is a columnar layout for session records: a
// struct-of-arrays copy of every hot SessionRecord field, partitioned into
// contiguous ingest-order runs — single calendar days when ingest arrives
// day-ordered, bounded mixed runs otherwise (see the boundary policy in
// colstore.go) — with light compression on sealed partitions. Analyses
// sweep dense per-column blocks instead of 248-byte row structs, and
// filters compile to per-partition predicates over dictionary codes and
// bitsets (plan.go).
//
// The store preserves ingest order exactly: partitions are contiguous
// spans of the record sequence, so the concatenation of partitions IS the
// row slice. That is what keeps columnar folds bit-identical to the row
// scans — the canonical chunk fold (parallel.ChunkSize boundaries over
// absolute record indices) visits values in the same order either way, and
// Welford accumulation is order-dependent.
package colstore

import "math/bits"

// packed is a fixed-width bit-packed uint64 stream. Two transforms:
//
//   - direct (min-offset): each stored field is value-base, where base is the
//     minimum. Supports O(1) random access via at(), which is what lets
//     predicates probe sealed columns without decoding whole partitions.
//   - delta: the first value is base; stored field i is the zigzag of the
//     successive difference. Sequential decode only (unpackDelta); used for
//     the cold ID columns, which only record materialization reads.
//
// Fields pack little-endian into 64-bit words at bit offset i*width.
type packed struct {
	n     int
	width uint
	mask  uint64
	base  uint64
	words []uint64
}

// packFields bit-packs pre-transformed fields (each < 1<<width).
func packFields(fields []uint64, width uint) []uint64 {
	if width == 0 || len(fields) == 0 {
		return nil
	}
	words := make([]uint64, (len(fields)*int(width)+63)/64)
	for i, v := range fields {
		pos := i * int(width)
		w, off := pos>>6, uint(pos&63)
		words[w] |= v << off
		if off+width > 64 {
			words[w+1] = v >> (64 - off)
		}
	}
	return words
}

// at extracts stored field i (the transformed value, before base is applied).
func (p *packed) at(i int) uint64 {
	if p.width == 0 {
		return 0
	}
	pos := i * int(p.width)
	w, off := pos>>6, uint(pos&63)
	v := p.words[w] >> off
	if off+p.width > 64 {
		v |= p.words[w+1] << (64 - off)
	}
	return v & p.mask
}

// directAt is random access into a direct-packed column.
func (p *packed) directAt(i int) uint64 { return p.base + p.at(i) }

// packDirect builds a min-offset direct pack of vals.
func packDirect(vals []uint64) packed {
	p := packed{n: len(vals)}
	if len(vals) == 0 {
		return p
	}
	min, max := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	p.base = min
	p.width = uint(bits.Len64(max - min))
	if p.width > 0 {
		p.mask = 1<<p.width - 1
		fields := make([]uint64, len(vals))
		for i, v := range vals {
			fields[i] = v - min
		}
		p.words = packFields(fields, p.width)
	}
	return p
}

// packDelta builds a successive-delta pack: base is vals[0] and field i is
// zigzag(vals[i+1]-vals[i]). Differences use wrapping uint64 arithmetic, so
// any value sequence round-trips.
func packDelta(vals []uint64) packed {
	p := packed{n: len(vals)}
	if len(vals) == 0 {
		return p
	}
	p.base = vals[0]
	if len(vals) == 1 {
		return p
	}
	fields := make([]uint64, len(vals)-1)
	var maxZ uint64
	for i := 1; i < len(vals); i++ {
		z := zigzag(int64(vals[i] - vals[i-1]))
		fields[i-1] = z
		if z > maxZ {
			maxZ = z
		}
	}
	p.width = uint(bits.Len64(maxZ))
	if p.width > 0 {
		p.mask = 1<<p.width - 1
		p.words = packFields(fields, p.width)
	}
	return p
}

// unpackDelta decodes the whole delta-packed column into dst (resized as
// needed).
func (p *packed) unpackDelta(dst []uint64) []uint64 {
	if cap(dst) < p.n {
		dst = make([]uint64, p.n)
	}
	dst = dst[:p.n]
	if p.n == 0 {
		return dst
	}
	prev := p.base
	dst[0] = prev
	for i := 1; i < p.n; i++ {
		prev += uint64(unzigzag(p.at(i - 1)))
		dst[i] = prev
	}
	return dst
}

// memBytes is the packed column's resident size (words only; struct header
// is negligible and identical either way).
func (p *packed) memBytes() int64 { return int64(len(p.words)) * 8 }

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// packBools packs a bool column into a bitset ([]uint64, little-endian bit
// order).
func packBools(vals []bool) []uint64 {
	words := make([]uint64, (len(vals)+63)/64)
	for i, v := range vals {
		if v {
			words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return words
}

// fillOnes sets the first n bits of sel and clears the rest of the last
// touched word. sel must have at least (n+63)/64 words.
func fillOnes(sel []uint64, n int) {
	full := n >> 6
	for i := 0; i < full; i++ {
		sel[i] = ^uint64(0)
	}
	if tail := uint(n & 63); tail != 0 {
		sel[full] = 1<<tail - 1
	}
}

// andBitsInto ANDs bits [from, from+n) of the packed bitset src into
// sel[0..n). Bits of src beyond its data read as zero, which can only clear
// sel bits that fillOnes already masked off.
func andBitsInto(sel []uint64, src []uint64, from, n int) {
	w, off := from>>6, uint(from&63)
	for k := 0; k*64 < n; k++ {
		var v uint64
		if w+k < len(src) {
			v = src[w+k] >> off
		}
		if off != 0 && w+k+1 < len(src) {
			v |= src[w+k+1] << (64 - off)
		}
		sel[k] &= v
	}
}

// trailing is the lowest set bit's index (64 when m is 0).
func trailing(m uint64) int { return bits.TrailingZeros64(m) }
