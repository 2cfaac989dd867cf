package dashboard

import (
	"math"
	"strconv"
)

// pow10 holds the scales appendFixed's fast path can use: 10^prec must
// be exact, and |v|·10^prec below 2^53 with |v| >= 1 leaves prec <= 15.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// appendFixed appends v exactly as strconv.AppendFloat(dst, v, 'f',
// prec, 64) does, without strconv's slow path for that format.
//
// strconv sends every 'f' format with an explicit precision (fmt's
// %.1f, %.0f) to its multiprecision bigFtoa; only 'e' and 'g' reach the
// Ryu fixed-precision algorithm. 'f' rounds the exact binary value of v
// to prec decimals, half to even. For 1 <= |v| with t = |v|·10^prec
// below 2^53 that is t rounded to an integer q, written with a point
// before its last prec digits. The product p = |v|·10^prec is t rounded
// to a double, so q = RoundToEven(p) is one off when rounding carried t
// across a half; FMA gives the exact residual t−q (an integer multiple
// of |v|'s ulp, fewer than 2^53 of them, so representable), and only
// |t−q| > 1/2 needs a step. An exact tie is already even: p is then t
// itself, or t's nearest double, an even integer where doubles are
// integers. Every other value — |v| < 1, ±0, huge magnitudes or
// precisions, NaN and ±Inf — keeps the strconv path.
func appendFixed(dst []byte, v float64, prec int) []byte {
	a := math.Abs(v)
	if prec < 0 || prec >= len(pow10) || !(a >= 1 && a*pow10[prec] < 1<<53) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	scale := pow10[prec]
	q := math.RoundToEven(a * scale)
	switch r := math.FMA(a, scale, -q); {
	case r > 0.5:
		q++
	case r < -0.5:
		q--
	}
	if v < 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, uint64(q), 10)
	if prec == 0 {
		return dst
	}
	// q >= 10^prec has more than prec digits: open a gap for the point.
	dst = append(dst, 0)
	end := len(dst)
	copy(dst[end-prec:], dst[end-prec-1:end-1])
	dst[end-prec-1] = '.'
	return dst
}
