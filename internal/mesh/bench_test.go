package mesh

import (
	"testing"
	"time"

	"lorameshmon/internal/phy"
	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
)

// BenchmarkMeshHour measures simulator throughput: one hour of a busy
// 8-node line mesh per iteration.
func BenchmarkMeshHour(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := simkit.New(7)
		medium := radio.NewMedium(sim, testMediumConfig())
		var routers []*Router
		for j := 0; j < 8; j++ {
			rad, err := medium.AttachRadio(radio.ID(j+1),
				phy.Point{X: float64(j) * testSpacing}, phy.DefaultParams(), phy.Unregulated())
			if err != nil {
				b.Fatal(err)
			}
			r := NewRouter(sim, rad, Config{})
			r.Start()
			routers = append(routers, r)
		}
		sim.RunFor(10 * time.Minute)
		done := sim.Every(time.Minute, func() {
			routers[7].Send(1, []byte("reading"), false) //nolint:errcheck
		})
		sim.RunFor(50 * time.Minute)
		done.Stop()
		b.ReportMetric(float64(sim.EventsFired()), "events")
	}
}

// BenchmarkTableHello measures the routing-table side of one HELLO: a
// router holding 500 routes merges a neighbour's 500 ascending ads
// (learnRoles plus the table walk), alternating two neighbours so both
// refreshes and rejected equal-metric offers are exercised.
func BenchmarkTableHello(b *testing.B) {
	sim := simkit.New(1)
	medium := radio.NewMedium(sim, testMediumConfig())
	rad, err := medium.AttachRadio(1, phy.Point{}, phy.DefaultParams(), phy.Unregulated())
	if err != nil {
		b.Fatal(err)
	}
	r := NewRouter(sim, rad, Config{})
	ads := make([]RouteAd, 500)
	for i := range ads {
		ads[i] = RouteAd{Addr: radio.ID(10 + i), Metric: uint8(1 + i%5), Via: radio.ID(9)}
	}
	hellos := [2]Packet{
		{Type: TypeHello, Src: 2, Dst: radio.Broadcast, Via: radio.Broadcast, TTL: 1, Routes: ads},
		{Type: TypeHello, Src: 3, Dst: radio.Broadcast, Via: radio.Broadcast, TTL: 1, Routes: ads},
	}
	r.onHello(hellos[0], radio.RxInfo{From: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.onHello(hellos[i%2], radio.RxInfo{From: hellos[i%2].Src})
	}
}
