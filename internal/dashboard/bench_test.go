package dashboard

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// BenchmarkOverviewRender is one uncached overview render of a
// 300-node registry, every node with a stats report (half of them
// battery-powered) — the page the dashboard re-renders after each
// ingest invalidates the cache.
func BenchmarkOverviewRender(b *testing.B) {
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	for n := 1; n <= 300; n++ {
		id := wire.NodeID(n)
		ts := float64(100 + n)
		err := c.Ingest(wire.Batch{
			Node: id, SeqNo: 1, SentAt: ts,
			Heartbeats: []wire.Heartbeat{{TS: ts, Node: id, UptimeS: ts, Firmware: fmt.Sprintf("fw-%d", n%4)}},
			Stats: []wire.NodeStats{{
				TS: ts, Node: id, UptimeS: ts, RouteCount: n % 17, QueueLen: n % 5, DutyCycleUsed: 0.001 * float64(n%9),
				Energy: n%2 == 0, BatteryFrac: float64(n%100) / 100, BatteryV: 3.3 + float64(n%10)/10,
			}},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	h := New(c, nil, Config{DisableCache: true}).Handler()
	req := httptest.NewRequest("GET", "/", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatal(rec.Code)
		}
	}
}

// BenchmarkTopologyRender is one uncached /topology render of
// dash_read's link table: 300 nodes, each hearing HELLOs from ten ring
// neighbours, so 3 000 links folded into 1 500 drawn pairs.
func BenchmarkTopologyRender(b *testing.B) {
	h := New(ringCollector(b, 300, 1), nil, Config{DisableCache: true}).Handler()
	req := httptest.NewRequest("GET", "/topology", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatal(rec.Code)
		}
	}
}
