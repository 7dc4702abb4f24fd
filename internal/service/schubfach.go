package service

import (
	"math/big"
	"math/bits"
	"sync"
)

// shortestDecimal converts a normal double to the decimal m·10^e that
// strconv.AppendFloat(f, 'e', -1, 64) prints: the shortest decimal that
// rounds to the double, and among several of that length the one closest
// to it, ties to an even m. m has no trailing zeros.
//
// It is Schubfach (R. Giulietti, "The Schubfach way to render doubles",
// 2020; the algorithm behind JDK 19's Double.toString), whose names the
// code keeps. The double is v = c·2^q with c = 2^52 | frac and q =
// biasedExp − 1075. Its rounding interval [vl, vr] and v itself are scaled
// by 4·10^−k, k = ⌊log₁₀ 2^q⌋, into integers rounded to odd, which keeps
// every comparison with a multiple of four exact. The interval is
// narrower than 10^(k+1), so at most one multiple of 10^(k+1) lies in it;
// when one does, it is the shortest decimal once its zeros are stripped.
// Otherwise the answer is s·10^k or (s+1)·10^k, s = ⌊v·10^−k⌋: the one in
// the interval, or the closer when both are.
//
// Subnormals are not handled: the one-digit-shorter probe below misses the
// shortest form of some of them (8e-323 would come out as 7.9e-323).
func shortestDecimal(biasedExp int, frac uint64) (m uint64, e int) {
	const p = 53 // significand bits
	c := 1<<(p-1) | frac
	q := biasedExp - 1075
	if mq := -q; 0 < mq && mq < p {
		// An integer below 2^53 prints in full.
		if f := c >> mq; f<<mq == c {
			return stripZeros(f, 0)
		}
	}
	out := c & 1 // an odd c's interval excludes its ends
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<(p-1) || biasedExp == 1 {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// A power of two has a closer lower neighbour.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &schubfachTable()[k-schubfachKMin]
	vb := roundToOdd(g, cb<<h)
	vbl := roundToOdd(g, cbl<<h)
	vbr := roundToOdd(g, cbr<<h)

	s := vb >> 2 // at least 16 digits for a normal double
	// One digit shorter: the multiples of ten around s.
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return stripZeros(sp10, k)
		}
		return stripZeros(tp10, k)
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return stripZeros(s, k)
		}
		return stripZeros(t, k)
	}
	// Both lie in the interval: the closer one, ties to even.
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return stripZeros(s, k)
	}
	return stripZeros(t, k)
}

func stripZeros(m uint64, e int) (uint64, int) {
	for m%10 == 0 {
		m /= 10
		e++
	}
	return m, e
}

// roundToOdd returns ⌊g·cp·2^−127⌋, with its lowest bit set when the
// product is not exact, for g = g[0]·2^63 + g[1].
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	const mask63 = 1<<63 - 1
	return vbp | (z&mask63+mask63)>>63
}

// flog10pow2 is ⌊log₁₀ 2^e⌋, flog10ThreeQuartersPow2 is ⌊log₁₀(¾·2^e)⌋
// and flog2pow10 is ⌊log₂ 10^e⌋, each exact over the exponents a double
// needs.
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// The decimal exponents k that normal doubles need.
const (
	schubfachKMin = -324
	schubfachKMax = 292
)

// schubfachG holds g(k) = ⌊10^−k·2^(125−⌊log₂ 10^−k⌋)⌋ + 1, a 126-bit
// integer, for each k from schubfachKMin to schubfachKMax, as its high and
// low 63 bits. schubfachTable computes it exactly with math/big on its
// first call, so a process that never formats a float does not pay for it.
var (
	schubfachOnce sync.Once
	schubfachG    [schubfachKMax - schubfachKMin + 1][2]uint64
)

func schubfachTable() *[schubfachKMax - schubfachKMin + 1][2]uint64 {
	schubfachOnce.Do(func() {
		low63 := new(big.Int).SetUint64(1<<63 - 1)
		for k := schubfachKMin; k <= schubfachKMax; k++ {
			num, den := big.NewInt(1), big.NewInt(1)
			if k <= 0 {
				num.Exp(big.NewInt(10), big.NewInt(int64(-k)), nil)
			} else {
				den.Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
			}
			if shift := 125 - flog2pow10(-k); shift >= 0 {
				num.Lsh(num, uint(shift))
			} else {
				den.Lsh(den, uint(-shift))
			}
			g := num.Quo(num, den)
			g.Add(g, big.NewInt(1))
			schubfachG[k-schubfachKMin] = [2]uint64{new(big.Int).Rsh(g, 63).Uint64(), g.And(g, low63).Uint64()}
		}
	})
	return &schubfachG
}
