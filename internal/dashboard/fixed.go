package dashboard

import (
	"math"
	"strconv"
)

// pow10 holds the scales appendFixed's fast path can use: 10^prec must
// be an exact integer below 2^53, which leaves prec <= 15.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// appendFixed appends v exactly as strconv.AppendFloat(dst, v, 'f',
// prec, 64) does, without strconv's slow path for that format.
//
// strconv sends every 'f' format with an explicit precision (fmt's
// %.1f, %.0f) to its multiprecision bigFtoa; only 'e' and 'g' reach the
// Ryu fixed-precision algorithm. 'f' rounds the exact binary value of v
// to prec decimals, half to even: it writes q, the exact product
// t = |v|·10^prec rounded half to even to an integer, with a point
// before its last prec digits. For t below 2^53 and |v| >= 2^-500 (so
// nothing underflows), q comes from doubles:
//
//   - p = |v|·10^prec is t rounded to a double, and the FMA residual
//     e = t − p is exact (the error of a product is a double whenever
//     the product does not underflow), so t = p + e, |e| <= ulp(p)/2;
//   - q0 = RoundToEven(p), and f = p − q0 in [−1/2, 1/2] is exact (q0 is
//     0, or within a factor 2 of p);
//   - where ulp(p) <= 1/2 (p < 2^52), f and 1/2 are multiples of
//     ulp(p), so |f| < 1/2 means |f| <= 1/2 − ulp(p) and |t − q0| < 1/2:
//     q = q0. Rounding to nearest cannot carry t across a half-integer,
//     which is a double there, only onto it: f = ±1/2, where the sign
//     of e tells which side of the half t is (e = 0 is a tie, already
//     broken to even by RoundToEven);
//   - from 2^52 doubles are integers: f = 0, and q = p, since an exact
//     tie t = p ± 1/2 rounded to the even neighbour, which is p.
//
// Every other value — ±0, subnormal-small or huge magnitudes, huge
// precisions, NaN and ±Inf — keeps the strconv path.
func appendFixed(dst []byte, v float64, prec int) []byte {
	a := math.Abs(v)
	if prec < 0 || prec >= len(pow10) || !(a >= 0x1p-500 && a*pow10[prec] < 1<<53) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	scale := pow10[prec]
	p := a * scale
	q := math.RoundToEven(p)
	switch e := math.FMA(a, scale, -p); p - q {
	case 0.5:
		if e > 0 {
			q++
		}
	case -0.5:
		if e < 0 {
			q--
		}
	}
	if v < 0 {
		dst = append(dst, '-')
	}
	u, s := uint64(q), uint64(scale)
	dst = strconv.AppendUint(dst, u/s, 10)
	if prec == 0 {
		return dst
	}
	// The fraction behind a leading 1 has exactly prec+1 digits; the 1
	// becomes the point.
	dst = strconv.AppendUint(dst, u%s+s, 10)
	dst[len(dst)-prec-1] = '.'
	return dst
}
