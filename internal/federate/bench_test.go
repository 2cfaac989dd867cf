package federate

import (
	"fmt"
	"testing"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// BenchmarkFederatedQueryRange charts fleet-wide mean RSSI (64 avg
// buckets) over a 2-member federation holding 2 h of one sample per
// node every 10 s, partitioned by node; "node" charts one node at 640
// buckets. allocs/op must grow linearly with the fleet.
func BenchmarkFederatedQueryRange(b *testing.B) {
	const span, every = 7200.0, 10.0
	for _, nodes := range []int{150, 300} {
		members := []*collector.Collector{
			collector.New(tsdb.New(), collector.DefaultConfig()),
			collector.New(tsdb.New(), collector.DefaultConfig()),
		}
		for id := 1; id <= nodes; id++ {
			db := members[id%2].TSDB()
			labels := tsdb.Labels{"node": wire.NodeID(id).String()}
			for ts := 0.0; ts < span; ts += every {
				db.Append("mesh_packet_rssi", labels, ts, -120+float64((id*7+int(ts))%50))
			}
		}
		fed, err := NewView([]MemberView{{Name: "m0", View: members[0]}, {Name: "m1", View: members[1]}}, ViewConfig{})
		if err != nil {
			b.Fatal(err)
		}
		q := fed.DB()
		b.Run(fmt.Sprintf("fleet/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rs := q.QueryRange("mesh_packet_rssi", nil, 0, span, span/64, tsdb.AggAvg); len(rs) != nodes {
					b.Fatalf("%d series, want %d", len(rs), nodes)
				}
			}
		})
		b.Run(fmt.Sprintf("node/nodes=%d", nodes), func(b *testing.B) {
			labels := tsdb.Labels{"node": wire.NodeID(1).String()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rs := q.QueryRange("mesh_packet_rssi", labels, 0, span, span/640, tsdb.AggAvg); len(rs) != 1 {
					b.Fatalf("%d series, want 1", len(rs))
				}
			}
		})
	}
}
