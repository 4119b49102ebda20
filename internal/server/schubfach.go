package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// The shortest-float kernel behind appendJSONFloat: Giulietti's Schubfach
// algorithm (R. Giulietti, "The Schubfach way to render doubles", 2020;
// the algorithm behind Java's Double.toString since JDK 19). For a
// positive normal float64 v = c·2^q it finds the shortest decimal d·10^e
// that reads back as v, the one closest to v when several are shortest and
// the even one on a tie — the digits strconv's shortest formatting
// ('f' or 'e' with precision -1) writes. Three 128×64-bit products
// rounded to odd, against one precomputed power of ten, scale the
// rounding interval's bounds and centre to decimal; two comparisons then
// pick the answer. strconv's Ryū spends most of its time trimming digits
// one at a time and rendering into an intermediate decimal; here the
// digits come out eight per 64-bit division.
//
// jsonFloatStrconv (render.go) is the oracle: the differential tests and
// FuzzJSONFloat hold the two byte-identical. Zero, subnormals, NaN and
// ±Inf never reach the kernel.

// pow10Min and pow10Max bound the powers of ten the kernel scales by:
// -k for k = ⌊log10(2^q)⌋ over every normal exponent q.
const (
	pow10Min = -292
	pow10Max = 324
)

// pow10Table holds, for each K in [pow10Min, pow10Max], g(K) = ⌊β⌋ + 1,
// where 10^K = β·2^r with β in [2^127, 2^128): a 128-bit upper
// approximation of 10^K (the paper's g, at 128 rather than 126 bits). It
// is built once from exact integer arithmetic, not committed as a literal.
var pow10Table = buildPow10Table()

type uint128 struct{ hi, lo uint64 }

func buildPow10Table() *[pow10Max - pow10Min + 1]uint128 {
	var t [pow10Max - pow10Min + 1]uint128
	ten := big.NewInt(10)
	one := big.NewInt(1)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	p := big.NewInt(1) // 10^|K|
	beta := new(big.Int)
	set := func(K int) {
		n := p.BitLen()
		if K >= 0 {
			// β = 10^K · 2^(128-n): a left shift while 10^K has fewer than
			// 128 bits, a truncating right shift after.
			if n <= 128 {
				beta.Lsh(p, uint(128-n))
			} else {
				beta.Rsh(p, uint(n-128))
			}
		} else {
			// β = 2^(127+n) / 10^|K|, truncated.
			beta.Lsh(one, uint(127+n))
			beta.Quo(beta, p)
		}
		beta.Add(beta, one)
		lo := new(big.Int).And(beta, mask)
		hi := new(big.Int).Rsh(beta, 64)
		t[K-pow10Min] = uint128{hi: hi.Uint64(), lo: lo.Uint64()}
	}
	for K := 0; K <= max(pow10Max, -pow10Min); K++ {
		if K <= pow10Max {
			set(K)
		}
		if K > 0 && -K >= pow10Min {
			set(-K)
		}
		p.Mul(p, ten)
	}
	return &t
}

// floorLog10Pow2 is ⌊log10(2^q)⌋ and floorLog10ThreeQuartersPow2 is
// ⌊log10(¾·2^q)⌋, for |q| ≤ 1500; floorLog2Pow10 is ⌊log2(10^K)⌋, for
// |K| ≤ 1233. TestSchubfachLogApproximations checks each over the range
// the kernel uses against exact integer arithmetic.
func floorLog10Pow2(q int) int              { return (q * 1262611) >> 22 }
func floorLog10ThreeQuartersPow2(q int) int { return (q*1262611 - 524031) >> 22 }
func floorLog2Pow10(K int) int              { return (K * 1741647) >> 19 }

// roundToOdd returns ⌊g·cp / 2^128⌋ with its lowest bit set when the
// discarded fraction is non-zero. The bits below 2^64 are not inspected:
// they hold g's approximation error, never a non-zero fraction of the
// exact product (the paper's §9 bound).
func roundToOdd(g uint128, cp uint64) uint64 {
	x1, _ := bits.Mul64(g.lo, cp)
	y1, y0 := bits.Mul64(g.hi, cp)
	z, carry := bits.Add64(y0, x1, 0)
	y1 += carry
	return y1 | (z|-z)>>63
}

// shortestDecimal returns the shortest decimal d·10^e that rounds to the
// positive normal float64 with bit pattern u; among several shortest it
// returns the closest to the float, the even one on a tie. d may carry
// trailing zeros.
func shortestDecimal(u uint64) (d uint64, e int) {
	const (
		fracBits = 52
		hidden   = 1 << fracBits
		bias     = 1023 + fracBits
	)
	biased := int(u >> fracBits & 0x7ff)
	c := u&(hidden-1) | hidden
	q := biased - bias
	// An integer below 2^53 is its own shortest decimal: its neighbours
	// are at most one apart, so no shorter decimal lies between them.
	if q <= 0 && q > -fracBits-1 && c&(1<<uint(-q)-1) == 0 {
		return c >> uint(-q), 0
	}

	out := c & 1 // an odd significand excludes the interval's bounds
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != hidden || biased == 1 {
		cbl = cb - 2
		k = floorLog10Pow2(q)
	} else {
		// A power of two: the float below is half as far as the one above.
		cbl = cb - 1
		k = floorLog10ThreeQuartersPow2(q)
	}
	h := q + floorLog2Pow10(-k) + 1 // in [1, 4]
	g := pow10Table[-k-pow10Min]
	vb := roundToOdd(g, cb<<h)
	vbl := roundToOdd(g, cbl<<h) + out
	vbr := roundToOdd(g, cbr<<h) - out

	// vb, vbl and vbr are 4·v, 4·v⁻ and 4·v⁺ over 10^k, rounded to odd;
	// s = ⌊v/10^k⌋ lies in [2^52, 10^17), 16 or 17 digits. The interval
	// holds at most one multiple of 10: if it does, that one-digit-shorter
	// decimal wins.
	s := vb >> 2
	sp := s / 10 * 10
	upIn := vbl <= sp<<2
	wpIn := (sp+10)<<2 <= vbr
	if upIn != wpIn {
		return sp + 10*b2u(wpIn), k
	}
	// Otherwise s or s+1: s+1 when the interval holds it and either not
	// s or s+1 is the closer (the even one on a tie). The choice is
	// computed without branches; it is a coin toss for noisy values.
	mid := s<<2 + 2
	up := b2u((s+1)<<2 <= vbr) & (b2u(vbl > s<<2) | b2u(vb > mid) | b2u(vb == mid)&s)
	return s + up, k
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// appendShortest appends the positive normal float64 with bit pattern u
// in the layout strconv.AppendFloat(buf, v, fmt, -1, 64) gives with fmt
// 'e' when exp is set and 'f' otherwise, except that an 'e' exponent is
// written without a leading zero: e-7, not e-07 (encoding/json's form).
func appendShortest(buf []byte, u uint64, exp bool) []byte {
	d, e := shortestDecimal(u)
	var tmp [17]byte
	put17(&tmp, d)
	i, end := 0, len(tmp)
	for tmp[i] == '0' {
		i++
	}
	for tmp[end-1] == '0' {
		end--
		e++
	}
	digs := tmp[i:end]
	n := len(digs)
	dp := n + e // the value is 0.digs × 10^dp
	if exp {
		buf = append(buf, digs[0])
		if n > 1 {
			buf = append(buf, '.')
			buf = append(buf, digs[1:]...)
		}
		x := dp - 1
		if x < 0 {
			buf = append(buf, 'e', '-')
			x = -x
		} else {
			buf = append(buf, 'e', '+')
		}
		// The 'e' form covers exponents from 21 up and from -7 down, so
		// strconv's two-digit minimum never pads a positive one.
		if x >= 100 {
			buf = append(buf, byte('0'+x/100))
			x %= 100
			return append(buf, byte('0'+x/10), byte('0'+x%10))
		}
		if x >= 10 {
			return append(buf, byte('0'+x/10), byte('0'+x%10))
		}
		return append(buf, byte('0'+x))
	}
	switch {
	case dp <= 0:
		buf = append(buf, '0', '.')
		for ; dp < 0; dp++ {
			buf = append(buf, '0')
		}
		return append(buf, digs...)
	case dp < n:
		buf = append(buf, digs[:dp]...)
		buf = append(buf, '.')
		return append(buf, digs[dp:]...)
	default:
		buf = append(buf, digs...)
		for ; n < dp; n++ {
			buf = append(buf, '0')
		}
		return buf
	}
}

// put17 writes d < 10^17 as exactly 17 digits: one, then two blocks of
// eight, each block from one 64-bit division.
func put17(tmp *[17]byte, d uint64) {
	hi := d / 1e8
	top := hi / 1e8
	tmp[0] = byte('0' + top)
	binary.LittleEndian.PutUint64(tmp[1:9], eightDigits(uint32(hi-top*1e8)))
	binary.LittleEndian.PutUint64(tmp[9:17], eightDigits(uint32(d-hi*1e8)))
}

// eightDigits returns the eight ASCII digits of r < 10^8, first digit in
// the lowest byte. It splits r into two four-digit halves in 32-bit lanes,
// each half into two-digit quarters in 16-bit lanes and each quarter into
// digits in bytes, dividing every lane at once by a multiply and shift:
// x/100 = x·10486 >> 20 for x < 10^4 and x/10 = x·103 >> 10 for x < 100,
// neither product reaching the next lane.
func eightDigits(r uint32) uint64 {
	v := uint64(r/10000) | uint64(r%10000)<<32
	q := v * 10486 >> 20 & 0x0000007f_0000007f
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0x000f000f_000f000f
	v = q | (v-q*10)<<8
	return v | 0x30303030_30303030
}
