package collector

import (
	"reflect"
	"testing"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

func pktRecord(node wire.NodeID, ts float64, ev wire.Event) wire.PacketRecord {
	r := wire.PacketRecord{
		TS: ts, Node: node, Event: ev, Type: "DATA",
		Src: node, Dst: 2, Via: 2, Seq: 1, TTL: 10, Size: 30,
	}
	switch ev {
	case wire.EventRx:
		r.RSSIdBm, r.SNRdB, r.ForUs = -100, 5, true
	case wire.EventTx:
		r.AirtimeMS = 56.6
	case wire.EventDrop:
		r.Reason = "no-route"
	}
	return r
}

func newCollector() *Collector { return New(tsdb.New(), DefaultConfig()) }

func TestIngestRegistersNode(t *testing.T) {
	c := newCollector()
	err := c.Ingest(wire.Batch{
		Node: 1, SeqNo: 1, SentAt: 10,
		Heartbeats: []wire.Heartbeat{{TS: 9, Node: 1, UptimeS: 100, Firmware: "fw1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Nodes()
	if len(nodes) != 1 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	n := nodes[0]
	if n.ID != 1 || n.LastBeatTS != 9 || n.UptimeS != 100 || n.Firmware != "fw1" {
		t.Fatalf("node info = %+v", n)
	}
	if n.BatchesOK != 1 || n.Records != 1 {
		t.Fatalf("node counters = %+v", n)
	}
	if _, ok := c.Node(1); !ok {
		t.Fatal("Node(1) lookup failed")
	}
	if _, ok := c.Node(9); ok {
		t.Fatal("Node(9) exists")
	}
}

func TestIngestRejectsInvalid(t *testing.T) {
	c := newCollector()
	if err := c.Ingest(wire.Batch{Node: 1, SentAt: -1}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if c.Stats().BatchesRejected != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestSequenceGapAndDuplicateDetection(t *testing.T) {
	c := newCollector()
	hb := func(ts float64) []wire.Heartbeat { return []wire.Heartbeat{{TS: ts, Node: 1}} }
	c.Ingest(wire.Batch{Node: 1, SeqNo: 1, SentAt: 1, Heartbeats: hb(1)})
	c.Ingest(wire.Batch{Node: 1, SeqNo: 2, SentAt: 2, Heartbeats: hb(2)})
	// Gap: 3 and 4 lost.
	c.Ingest(wire.Batch{Node: 1, SeqNo: 5, SentAt: 5, Heartbeats: hb(5)})
	// Duplicate of 5.
	c.Ingest(wire.Batch{Node: 1, SeqNo: 5, SentAt: 5, Heartbeats: hb(5)})
	n, _ := c.Node(1)
	if n.BatchesLost != 2 {
		t.Fatalf("BatchesLost = %d, want 2", n.BatchesLost)
	}
	if n.BatchesDup != 1 {
		t.Fatalf("BatchesDup = %d, want 1", n.BatchesDup)
	}
	if n.BatchesOK != 3 {
		t.Fatalf("BatchesOK = %d, want 3", n.BatchesOK)
	}
	// Agent restart: seq resets to 1 and is accepted.
	if err := c.Ingest(wire.Batch{Node: 1, SeqNo: 1, SentAt: 6, Heartbeats: hb(6)}); err != nil {
		t.Fatal(err)
	}
	n, _ = c.Node(1)
	if n.BatchesOK != 4 {
		t.Fatalf("restart batch not accepted: %+v", n)
	}
}

func TestPacketRecordsMaterialised(t *testing.T) {
	c := newCollector()
	err := c.Ingest(wire.Batch{
		Node: 1, SeqNo: 1, SentAt: 20,
		Packets: []wire.PacketRecord{
			pktRecord(1, 10, wire.EventTx),
			pktRecord(1, 11, wire.EventRx),
			pktRecord(1, 12, wire.EventDrop),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := c.DB()
	if got := db.Query("mesh_packets", tsdb.Labels{"node": "N0001"}, 0, 100); len(got) != 3 {
		t.Fatalf("mesh_packets series = %d, want 3 (tx/rx/drop)", len(got))
	}
	rssi, ok := db.QueryOne("mesh_packet_rssi", tsdb.Labels{"node": "N0001"}, 0, 100)
	if !ok || len(rssi.Points) != 1 || rssi.Points[0].Value != -100 {
		t.Fatalf("rssi = %+v", rssi)
	}
	air, ok := db.QueryOne("mesh_airtime_ms", tsdb.Labels{"node": "N0001", "type": "DATA"}, 0, 100)
	if !ok || air.Points[0].Value != 56.6 {
		t.Fatalf("airtime = %+v", air)
	}
	drops, ok := db.QueryOne("mesh_drops", tsdb.Labels{"node": "N0001", "reason": "no-route"}, 0, 100)
	if !ok || len(drops.Points) != 1 {
		t.Fatalf("drops = %+v", drops)
	}
	if c.MaxTS() != 12 {
		t.Fatalf("MaxTS = %v, want 12", c.MaxTS())
	}
}

func TestStatsAndRoutesMaterialised(t *testing.T) {
	c := newCollector()
	err := c.Ingest(wire.Batch{
		Node: 1, SeqNo: 1, SentAt: 30,
		Stats: []wire.NodeStats{{
			TS: 25, Node: 1, UptimeS: 25, HelloSent: 7, DataSent: 3,
			RouteCount: 2, DutyCycleUsed: 0.004,
		}},
		Routes: []wire.RouteSnapshot{{
			TS: 26, Node: 1,
			Routes: []wire.RouteEntry{
				{Dst: 2, NextHop: 2, Metric: 1, AgeS: 5},
				{Dst: 3, NextHop: 2, Metric: 2, AgeS: 9},
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := c.DB()
	hello, ok := db.QueryOne("node_hello_sent", tsdb.Labels{"node": "N0001"}, 0, 100)
	if !ok || hello.Points[0].Value != 7 {
		t.Fatalf("node_hello_sent = %+v", hello)
	}
	duty, _ := db.QueryOne("node_duty_cycle", tsdb.Labels{"node": "N0001"}, 0, 100)
	if duty.Points[0].Value != 0.004 {
		t.Fatalf("duty = %+v", duty)
	}
	n, _ := c.Node(1)
	if n.LastStats == nil || n.LastStats.HelloSent != 7 {
		t.Fatalf("LastStats = %+v", n.LastStats)
	}
	if n.LastRoutes == nil || len(n.LastRoutes.Routes) != 2 || len(n.RouteHistory) != 0 {
		t.Fatalf("LastRoutes = %+v, history %+v after the baseline", n.LastRoutes, n.RouteHistory)
	}
	// The next table moves N0003 to next hop N0004 and loses N0002.
	err = c.Ingest(wire.Batch{
		Node: 1, SeqNo: 2, SentAt: 150,
		Routes: []wire.RouteSnapshot{{
			TS: 146, Node: 1,
			Routes: []wire.RouteEntry{{Dst: 3, NextHop: 4, Metric: 3, AgeS: 1}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, _ = c.Node(1)
	want := []RouteChange{
		{TS: 146, Dst: 2, OldNextHop: 2, OldMetric: 1},
		{TS: 146, Dst: 3, OldNextHop: 2, NewNextHop: 4, OldMetric: 2, NewMetric: 3},
	}
	if !reflect.DeepEqual(n.RouteHistory, want) {
		t.Fatalf("RouteHistory = %+v, want %+v", n.RouteHistory, want)
	}
	rc, ok := db.QueryOne("mesh_route_changes", tsdb.Labels{"node": "N0001"}, 0, 200)
	if !ok || !reflect.DeepEqual(rc.Points, []tsdb.Point{{TS: 26, Value: 0}, {TS: 146, Value: 2}}) {
		t.Fatalf("mesh_route_changes = %+v", rc)
	}
}

func TestRecentRingBuffer(t *testing.T) {
	c := New(tsdb.New(), Config{RecentPackets: 5})
	var pkts []wire.PacketRecord
	for i := 0; i < 8; i++ {
		pkts = append(pkts, pktRecord(1, float64(i), wire.EventTx))
	}
	if err := c.Ingest(wire.Batch{Node: 1, SeqNo: 1, SentAt: 10, Packets: pkts}); err != nil {
		t.Fatal(err)
	}
	recent := c.Recent(0)
	if len(recent) != 5 {
		t.Fatalf("recent = %d, want 5", len(recent))
	}
	if recent[0].TS != 7 || recent[4].TS != 3 {
		t.Fatalf("recent order wrong: first=%v last=%v", recent[0].TS, recent[4].TS)
	}
	if got := c.Recent(2); len(got) != 2 || got[0].TS != 7 {
		t.Fatalf("limited recent = %+v", got)
	}
}

func TestRetentionPruning(t *testing.T) {
	c := New(tsdb.New(), Config{RetentionS: 10})
	for i := 1; i <= 30; i++ {
		c.Ingest(wire.Batch{Node: 1, SeqNo: uint64(i), SentAt: float64(i),
			Heartbeats: []wire.Heartbeat{{TS: float64(i), Node: 1}}})
	}
	res, _ := c.DB().QueryOne("node_uptime", tsdb.Labels{"node": "N0001"}, 0, 100)
	if len(res.Points) == 0 || res.Points[0].TS < 20 {
		t.Fatalf("retention not applied: first ts %v", res.Points[0].TS)
	}
}

func TestParseNodeID(t *testing.T) {
	cases := []struct {
		in   string
		want wire.NodeID
		ok   bool
	}{
		{"N0001", 1, true},
		{"n00ff", 255, true},
		{"42", 42, true},
		{"Nxyz", 0, false},
		{"NP", 0, false},
		{"70000", 0, false},
		{"", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseNodeID(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseNodeID(%q) err = %v, ok want %v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseNodeID(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestBumpEpochAllocationFree: an epoch advance nobody waits on or
// subscribes to allocates nothing, so ingest into a collector without a
// federated view or SSE watcher pays nothing for the push path.
func TestBumpEpochAllocationFree(t *testing.T) {
	c := New(tsdb.New(), DefaultConfig())
	if n := testing.AllocsPerRun(1000, c.bumpEpoch); n != 0 {
		t.Fatalf("bumpEpoch: %v allocations per call, want 0", n)
	}
}
