package tsdb

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// encodeDecode round-trips samples through the codec and fails on any
// bit-level mismatch. Timestamps must be non-decreasing (the store
// sorts heads before sealing).
func encodeDecode(t *testing.T, cols int, ts []float64, vals [][]float64) *Chunk {
	t.Helper()
	var enc Encoder
	enc.Reset(cols)
	for i := range ts {
		enc.AppendVals(ts[i], vals[i])
	}
	c := enc.Chunk()
	if c.Count != len(ts) {
		t.Fatalf("chunk count = %d, want %d", c.Count, len(ts))
	}
	it := c.Iter()
	for i := range ts {
		if !it.Next() {
			t.Fatalf("iterator ended at sample %d of %d", i, len(ts))
		}
		if got, want := math.Float64bits(it.TS()), math.Float64bits(ts[i]); got != want {
			t.Fatalf("sample %d: ts bits %x, want %x (%v vs %v)", i, got, want, it.TS(), ts[i])
		}
		for col := 0; col < cols; col++ {
			if got, want := math.Float64bits(it.Value(col)), math.Float64bits(vals[i][col]); got != want {
				t.Fatalf("sample %d col %d: value bits %x, want %x (%v vs %v)",
					i, col, got, want, it.Value(col), vals[i][col])
			}
		}
	}
	if it.Next() {
		t.Fatalf("iterator yielded more than %d samples", len(ts))
	}
	return c
}

func singleCol(vals []float64) [][]float64 {
	out := make([][]float64, len(vals))
	for i, v := range vals {
		out[i] = []float64{v}
	}
	return out
}

// TestChunkRoundTripAdversarial covers the streams most likely to break
// a bit-level codec: constants, specials, duplicates, huge jumps.
func TestChunkRoundTripAdversarial(t *testing.T) {
	inf, ninf, nan := math.Inf(1), math.Inf(-1), math.NaN()
	cases := []struct {
		name string
		ts   []float64
		vals []float64
	}{
		{"empty-ish single point", []float64{42.5}, []float64{-0.0}},
		{"two points", []float64{0, 0}, []float64{1, 1}},
		{"constant series", []float64{10, 20, 30, 40, 50}, []float64{3.14, 3.14, 3.14, 3.14, 3.14}},
		{"constant timestamps", []float64{7, 7, 7, 7}, []float64{1, 2, 3, 4}},
		{"nan and inf values", []float64{1, 2, 3, 4, 5}, []float64{nan, inf, ninf, nan, 0}},
		{"nan timestamps sort last", []float64{1, 2, nan, nan}, []float64{1, 2, 3, 4}},
		{"negative and huge jumps", []float64{-1e300, -5, 0, 1e-300, 1e300}, []float64{inf, -1e308, 5e-324, -5e-324, 1e308}},
		{"regular cadence", []float64{0, 10, 20, 30, 40, 50, 60}, []float64{21.5, 21.5, 21.6, 21.4, 21.5, 21.5, 21.7}},
		{"signed zeros", []float64{1, 2, 3}, []float64{0.0, math.Copysign(0, -1), 0.0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			encodeDecode(t, 1, tc.ts, singleCol(tc.vals))
		})
	}
}

// TestChunkRoundTripQuick drives the codec with randomized streams via
// testing/quick: sorted random timestamps (with duplicates and special
// values mixed in) against adversarially distributed values.
func TestChunkRoundTripQuick(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	gen := func(seed int64, n uint8, cols uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nSamples := int(n%200) + 1
		nCols := int(cols%maxChunkCols) + 1
		ts := make([]float64, nSamples)
		for i := range ts {
			switch rng.Intn(4) {
			case 0:
				ts[i] = float64(rng.Intn(100)) // duplicates likely
			case 1:
				ts[i] = rng.Float64() * 1e9
			case 2:
				ts[i] = -rng.Float64() * 1e9
			default:
				ts[i] = math.Float64frombits(rng.Uint64()) // anything, incl. NaN payloads
			}
		}
		sort.Slice(ts, func(i, j int) bool {
			a, b := ts[i], ts[j]
			if math.IsNaN(a) {
				return false // NaNs sort last, like sortHead leaves them
			}
			if math.IsNaN(b) {
				return true
			}
			return a < b
		})
		vals := make([][]float64, nSamples)
		for i := range vals {
			row := make([]float64, nCols)
			for c := range row {
				switch rng.Intn(3) {
				case 0:
					row[c] = special[rng.Intn(len(special))]
				case 1:
					row[c] = math.Float64frombits(rng.Uint64())
				default:
					row[c] = 20 + rng.Float64() // gauge-like
				}
			}
			vals[i] = row
		}
		encodeDecode(t, nCols, ts, vals)
		return !t.Failed()
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkCompressionRatio pins the headline property: regular
// telemetry compresses far below the 16 raw bytes per sample.
func TestChunkCompressionRatio(t *testing.T) {
	n := 1000
	ts := make([]float64, n)
	vals := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i) * 10 // fixed cadence
		vals[i] = 21.0          // constant gauge
	}
	c := encodeDecode(t, 1, ts, singleCol(vals))
	perSample := float64(len(c.Data)) / float64(n)
	if perSample > 2 {
		t.Fatalf("regular telemetry compressed to %.2f B/sample, want <= 2", perSample)
	}
}

// TestChunkTruncatedStream checks that a corrupt (short) stream stops
// the iterator instead of fabricating samples or panicking.
func TestChunkTruncatedStream(t *testing.T) {
	ts := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	vals := make([]float64, len(ts))
	for i := range vals {
		vals[i] = math.Float64frombits(rand.New(rand.NewSource(1)).Uint64() + uint64(i))
	}
	c := encodeDecode(t, 1, ts, singleCol(vals))
	for cut := 0; cut < len(c.Data); cut++ {
		short := &Chunk{Cols: 1, Count: c.Count, MinTS: c.MinTS, MaxTS: c.MaxTS, Data: c.Data[:cut]}
		it := short.Iter()
		seen := 0
		for it.Next() {
			seen++
		}
		if seen >= c.Count {
			t.Fatalf("cut=%d: truncated chunk still yielded all %d samples", cut, seen)
		}
	}
}

// TestDBOutOfOrderAcrossSeals appends shuffled timestamps through small
// seal windows, so sealed chunks overlap in time, and checks Query
// still returns everything sorted.
func TestDBOutOfOrderAcrossSeals(t *testing.T) {
	db := New()
	db.SetSealEvery(8)
	rng := rand.New(rand.NewSource(7))
	n := 100
	perm := rng.Perm(n)
	for _, i := range perm {
		db.Append("m", Labels{"node": "a"}, float64(i), float64(i)*2)
	}
	res, ok := db.QueryOne("m", Labels{"node": "a"}, 0, float64(n))
	if !ok {
		t.Fatal("series missing")
	}
	if len(res.Points) != n {
		t.Fatalf("got %d points, want %d", len(res.Points), n)
	}
	for i, p := range res.Points {
		if p.TS != float64(i) || p.Value != float64(i)*2 {
			t.Fatalf("point %d = %+v, want {%d %d}", i, p, i, i*2)
		}
	}
	// Aggregate pushdown must agree with the materialised view.
	if got, want := db.AggregateRange("m", nil, 0, float64(n), AggCount), float64(n); got != want {
		t.Fatalf("AggregateRange count = %v, want %v", got, want)
	}
	wantSum := 0.0
	for i := 0; i < n; i++ {
		wantSum += float64(i) * 2
	}
	if got := db.AggregateRange("m", nil, 0, float64(n), AggSum); got != wantSum {
		t.Fatalf("AggregateRange sum = %v, want %v", got, wantSum)
	}
}

// FuzzChunkRoundTrip feeds arbitrary bytes as (timestamp, value) pairs
// through the codec — the adversarial stream generator CI's fuzz corpus
// grows over time.
func FuzzChunkRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0xf8, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 16
		if n == 0 {
			return
		}
		if n > 4096 {
			n = 4096
		}
		ts := make([]float64, n)
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			var tb, vb uint64
			for j := 0; j < 8; j++ {
				tb = tb<<8 | uint64(raw[i*16+j])
				vb = vb<<8 | uint64(raw[i*16+8+j])
			}
			ts[i] = math.Float64frombits(tb)
			vals[i] = math.Float64frombits(vb)
		}
		sort.Slice(ts, func(i, j int) bool {
			a, b := ts[i], ts[j]
			if math.IsNaN(a) {
				return false
			}
			if math.IsNaN(b) {
				return true
			}
			return a < b
		})
		encodeDecode(t, 1, ts, singleCol(vals))
	})
}
