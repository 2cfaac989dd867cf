package tsdb

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkAppend(b *testing.B) {
	db := New()
	lbl := Labels{"node": "N0001"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Append("m", lbl, float64(i), float64(i))
	}
}

func BenchmarkQueryNarrowWindow(b *testing.B) {
	db := New()
	for s := 0; s < 10; s++ {
		lbl := Labels{"node": fmt.Sprintf("N%04X", s+1)}
		for i := 0; i < 100_000; i++ {
			db.Append("m", lbl, float64(i), float64(i))
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Query("m", nil, 49_000, 50_000)
	}
}

func BenchmarkDownsample(b *testing.B) {
	pts := make([]Point, 100_000)
	for i := range pts {
		pts[i] = Point{TS: float64(i), Value: float64(i % 97)}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Downsample(pts, 0, 1000, AggAvg)
	}
}

// BenchmarkRetainNothingExpired is the retention call the collector
// makes after every accepted batch, on a 10 000-series tiered store
// whose horizons reach far beyond its data.
func BenchmarkRetainNothingExpired(b *testing.B) {
	db := New()
	db.ConfigureTiers(Retention{Rollup1mS: 86400})
	for s := 0; s < 10_000; s++ {
		h := db.Series("m", Labels{"node": fmt.Sprintf("N%04X", s)})
		for i := 0; i < 20; i++ {
			h.Append(float64(i*60), 1)
		}
	}
	db.Retain(7200)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Retain(7200)
	}
}

// BenchmarkAppendOutOfOrder appends batches that each carry 32 samples
// from a 10 s window in shuffled order, as an agent's packet records
// arrive, to one series; windows follow each other in time.
func BenchmarkAppendOutOfOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const batch = 32
	ts := make([]float64, batch*64)
	for i := range ts {
		ts[i] = float64(i/batch)*10 + 10*rng.Float64()
	}
	db := New()
	h := db.Series("m", Labels{"node": "N0001"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ts)
		h.Append(ts[k]+float64(i/len(ts))*640, float64(i%97))
	}
}

// BenchmarkQueryHead reads a whole 300-sample series that has not
// sealed yet: the open head is the only chunk.
func BenchmarkQueryHead(b *testing.B) {
	db := New()
	lbl := Labels{"node": "N0001"}
	for i := 0; i < 300; i++ {
		db.Append("m", lbl, float64(i), float64(i%13))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, ok := db.QueryOne("m", lbl, 0, 300); !ok || len(res.Points) != 300 {
			b.Fatal("short read")
		}
	}
}
