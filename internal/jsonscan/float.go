package jsonscan

import (
	"math"
	"math/bits"
)

//go:generate go run gen_pow10.go

// The power-of-ten table's range, both ends inclusive.
const (
	pow10Min = -348
	pow10Max = 347
)

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// Float reads a number at the cursor in one pass, for the tokens it can
// convert exactly: plain JSON spellings of up to 19 significant digits
// whose value Clinger's exact path or Eisel–Lemire settles. It returns
// ok=false with the cursor unmoved for everything else — null, more
// digits, an exponent out of range, an ambiguous halfway case, or a
// spelling NumberToken would cut differently (a leading zero, a '+', a
// second '.') — and the caller falls back to NumberToken and
// strconv.ParseFloat. Whenever ok, the value has the bits
// strconv.ParseFloat gives NumberToken's token, and is finite.
func (s *Scanner) Float() (f float64, ok bool) {
	d, i := s.data, s.pos
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	var man uint64
	nd, exp := 0, 0 // significant digits in man; decimal exponent
	// Integer part: 0 or [1-9][0-9]*.
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
			if nd == 19 {
				return 0, false
			}
			man = man*10 + uint64(d[i]-'0')
			nd++
		}
	default:
		return 0, false
	}
	// Fraction: leading zeros of a zero integer part only move the exponent.
	if i < len(d) && d[i] == '.' {
		i++
		start := i
		for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
			if man == 0 && d[i] == '0' {
				exp--
				continue
			}
			if nd == 19 {
				return 0, false
			}
			man = man*10 + uint64(d[i]-'0')
			nd++
			exp--
		}
		if i == start {
			return 0, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		eneg := false
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			eneg = d[i] == '-'
			i++
		}
		start := i
		e := 0
		for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
			if e < 10000 { // far past the table either way
				e = e*10 + int(d[i]-'0')
			}
		}
		if i == start {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if i < len(d) && isNumberByte(d[i]) {
		return 0, false // NumberToken would take more: not this token
	}
	if f, ok = decimalToFloat(man, exp, neg); ok {
		s.pos = i
	}
	return f, ok
}

// decimalToFloat returns man × 10^exp rounded to nearest-even, or ok=false
// where neither exact path decides it.
func decimalToFloat(man uint64, exp int, neg bool) (float64, bool) {
	// Clinger: both operands exact, so the one rounding is the right one.
	if man < 1<<53 && exp >= -22 && exp <= 22 {
		f := float64(man)
		if exp >= 0 {
			f *= exactPow10[exp]
		} else {
			f /= exactPow10[-exp]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire(man, exp, neg)
}

// eiselLemire converts man × 10^exp10 with the Eisel–Lemire algorithm
// (https://nigeltao.github.io/blog/2020/eisel-lemire.html), the same one
// strconv uses after its exact path. It gives up (ok=false) on a product
// too close to a rounding boundary to decide from 128 bits, and on
// results that are subnormal or overflow.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	// Normalize man to [2^63, 2^64); 217706/2^16 ≈ log2(10) gives 10^exp10's
	// binary exponent.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	pow := &pow10Mant[exp10-pow10Min]
	hi, lo := bits.Mul64(man, pow[1])
	// When the low 9 bits of hi are all ones, the truncated table entry's
	// low half can still carry into them: widen to the full 128 bits.
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	// Keep 54 bits: the 53 of the result and one to round with.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	// Exactly halfway between two floats: the truncated bits cannot say
	// which way ties-to-even goes.
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // subnormal (exp2 ≤ 0, wrapped) or Inf/NaN
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// Uint reads a plain JSON integer of at most 19 digits — no sign, no
// fraction or exponent, no leading zero — as json.Unmarshal would into an
// unsigned field. Anything else leaves the cursor and returns ok=false.
func (s *Scanner) Uint() (v uint64, ok bool) {
	d, i := s.data, s.pos
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		for n := 0; i < len(d) && d[i] >= '0' && d[i] <= '9'; i, n = i+1, n+1 {
			if n == 19 {
				return 0, false
			}
			v = v*10 + uint64(d[i]-'0')
		}
	default:
		return 0, false
	}
	if i < len(d) && isNumberByte(d[i]) {
		return 0, false
	}
	s.pos = i
	return v, true
}

// Int reads a plain JSON integer that fits an int64, as json.Unmarshal
// would into a signed field; otherwise it leaves the cursor and returns
// ok=false.
func (s *Scanner) Int() (int64, bool) {
	start := s.pos
	neg := s.peekIs('-')
	if neg {
		s.pos++
	}
	v, ok := s.Uint()
	if !ok || v > math.MaxInt64 {
		s.pos = start
		return 0, false
	}
	if neg {
		return -int64(v), true
	}
	return int64(v), true
}
