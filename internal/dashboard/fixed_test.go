package dashboard

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// fixedEdges are the values where a fixed-precision formatter can go
// wrong: carries into a new integer digit, exact binary ties, ±0, NaN,
// ±Inf, subnormals, the fast path's 2^53 bound on |v|·10^prec and its
// neighbours at each precision, 1e15, and the largest magnitudes.
var fixedEdges = []float64{
	9.95, 99.95, 0.95, 999.9995, 9.96, 9.5, 99.5, 9999999.95, 0.5, 1.5, 2.5, 0.125, 0.25, 0.375, 1.125, 2.675,
	1, 10, 100, 1e14, 99999999999999.9, 999999999999999.9,
	1 << 53, 1<<53 - 1, 1<<53 + 2, 1<<53/10 + 0.5, 1<<53/100 + 0.25, 1<<53/1000 + 0.125, 900719925474099.1, 9007199254740.99,
	1e15, math.Nextafter(1e15, 0), math.Nextafter(1e15, math.Inf(1)), 1e16, 1e17, 1e22, math.MaxFloat64,
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 4.9e-324 * 3,
	math.Nextafter(1, 0), math.Nextafter(1, 2), math.Nextafter(10, 0), math.Nextafter(10, 20),
	520, 270, 35.9, 454.6, -97.5, -96.5, -0.5, 3.3, 0.0005,
	// Below 1: decimal half-way ties at each precision, the carry into 1,
	// and the fast path's lower bound.
	0.05, 0.15, 0.45, 0.55, 0.005, 0.015, 0.025, 0.995, 0.9995, 0.9999, 0.0015, 0.0025, 0.0035,
	0.001, 0.009, 0.000499, 1e-9, 0x1p-500, math.Nextafter(0x1p-500, 0), math.Nextafter(0x1p-500, 1),
}

func checkFixed(t *testing.T, v float64, prec int) {
	t.Helper()
	want := string(strconv.AppendFloat(nil, v, 'f', prec, 64))
	if got := string(appendFixed([]byte("x"), v, prec)); got != "x"+want {
		t.Fatalf("appendFixed(%v (%#x), %d) = %q, want %q", v, math.Float64bits(v), prec, got[1:], want)
	}
}

// TestAppendFixedEdges checks the edge values, both signs, at the
// precisions the dashboard uses and one beyond.
func TestAppendFixedEdges(t *testing.T) {
	for _, v := range fixedEdges {
		for prec := 0; prec <= 3; prec++ {
			checkFixed(t, v, prec)
			checkFixed(t, -v, prec)
		}
	}
}

// TestAppendFixedRandom compares against strconv on random magnitudes
// across and beyond the fast path's range, random binary ties
// (multiples of 1/8, 1/16, …), random carries (values just under a
// power of ten) and the doubles nearest to decimal half-points, where
// |v|·10^prec rounds onto or across the half.
func TestAppendFixedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 400_000; i++ {
		var v float64
		switch i % 4 {
		case 0:
			v = math.Pow(10, rng.Float64()*19-2) * (rng.Float64() + 0.5)
		case 1:
			v = float64(rng.Int63n(1<<40)) / float64(int64(1)<<rng.Intn(30))
		case 2:
			p := math.Pow(10, float64(rng.Intn(16)))
			v = p - p*rng.Float64()*1e-3
		default:
			v = (float64(rng.Int63n(1<<40)) + 0.5) / math.Pow(10, float64(rng.Intn(4)))
			v = math.Nextafter(v, v+float64(rng.Intn(3)-1))
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		checkFixed(t, v, rng.Intn(4))
	}
}

// TestAppendFixedBelowOne covers 0 < |v| < 1, where the product with
// 10^prec carries less than |v|'s own precision: every decimal half-way
// point k+1/2 over 10^prec below 1 at precisions 0–3 with its two
// neighbouring doubles, then random values log-uniform down to 1e-12 at
// precisions 0–15.
func TestAppendFixedBelowOne(t *testing.T) {
	for prec := 0; prec <= 3; prec++ {
		scale := math.Pow(10, float64(prec))
		for k := 0.0; k < scale; k++ {
			v := (k + 0.5) / scale
			for _, w := range []float64{math.Nextafter(v, 0), v, math.Nextafter(v, 1)} {
				checkFixed(t, w, prec)
				checkFixed(t, -w, prec)
			}
		}
	}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 200_000; i++ {
		v := math.Pow(10, -12*rng.Float64())
		if rng.Intn(2) == 0 {
			v = -v
		}
		checkFixed(t, v, rng.Intn(16))
	}
}

// FuzzAppendFixed is the differential check against
// strconv.AppendFloat(…, 'f', prec, 64) for prec 0–3.
func FuzzAppendFixed(f *testing.F) {
	for _, v := range fixedEdges {
		f.Add(v, uint8(1))
	}
	f.Fuzz(func(t *testing.T, v float64, prec uint8) {
		checkFixed(t, v, int(prec%4))
	})
}

func BenchmarkAppendFixed(b *testing.B) {
	vals := []float64{454.6, 35.9, 270.0001, -97.25, 9.96, 123456.789}
	buf := make([]byte, 0, 32)
	b.Run("appendFixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = appendFixed(buf[:0], vals[i%len(vals)], 1)
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], vals[i%len(vals)], 'f', 1, 64)
		}
	})
}
