package tsdb

import (
	"fmt"
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
