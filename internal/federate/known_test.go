package federate

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wal"
	"lorameshmon/internal/wire"
)

// countingMember counts the member reads that copy and sort the whole
// registry or link table. It embeds the concrete collector, so the
// push half (Subscribe) that NewView requires is promoted.
type countingMember struct {
	*collector.Collector
	calls atomic.Int64
}

func (m *countingMember) Nodes() []collector.NodeInfo {
	m.calls.Add(1)
	return m.Collector.Nodes()
}

func (m *countingMember) Links(from float64) []collector.LinkObs {
	m.calls.Add(1)
	return m.Collector.Links(from)
}

// snapshotOf ingests batches into a fresh collector and returns its
// snapshot.
func snapshotOf(t *testing.T, batches ...wire.Batch) []byte {
	t.Helper()
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	for _, b := range batches {
		if err := c.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFederateKnownCounts checks the federation's distinct-count cache
// against the merged lists it stands in for. The federation holds two
// live owners, the legacy member of a handoff (its nodes also live on
// the owners) and a member restored from a snapshot. After every step
// of a seeded random stream, Stats().NodesKnown and LinksKnown must
// equal len(Nodes()) and len(Links(0)); a steady-state Stats call must
// not read any member's Nodes or Links; and re-restoring a member to
// different sets of the same sizes must still be noticed.
func TestFederateKnownCounts(t *testing.T) {
	dir, _ := handoffFixture(t, 6, 2, 4)
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	route, owners, ring := routeTo(t)
	res, err := Handoff(log, route, collector.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Legacy == nil {
		t.Fatal("no legacy collector despite a snapshot")
	}

	// Snapshot A adds two nodes and two links no other member has;
	// snapshot B has as many of each, all already on the owners.
	snapA := snapshotOf(t, viewBatch(41, 1), viewBatch(42, 1))
	snapB := snapshotOf(t, viewBatch(1, 1), viewBatch(2, 1))
	restored := collector.New(tsdb.New(), collector.DefaultConfig())
	if err := restored.RestoreSnapshot(bytes.NewReader(snapA)); err != nil {
		t.Fatal(err)
	}

	members := []*countingMember{
		{Collector: owners["m1"]}, {Collector: owners["m2"]}, {Collector: restored}, {Collector: res.Legacy},
	}
	fed, err := NewView([]MemberView{
		{Name: "m1", View: members[0]},
		{Name: "m2", View: members[1]},
		{Name: "restored", View: members[2]},
		{Name: "legacy", View: members[3]},
	}, ViewConfig{})
	if err != nil {
		t.Fatal(err)
	}
	calls := func() int64 {
		var n int64
		for _, m := range members {
			n += m.calls.Load()
		}
		return n
	}
	check := func(when string) collector.Stats {
		t.Helper()
		st := fed.Stats()
		if nodes, links := len(fed.Nodes()), len(fed.Links(0)); st.NodesKnown != nodes || st.LinksKnown != links {
			t.Fatalf("%s: Stats known %d nodes / %d links, merged lists %d / %d",
				when, st.NodesKnown, st.LinksKnown, nodes, links)
		}
		return st
	}
	check("before ingest")

	rng := rand.New(rand.NewSource(7))
	seq := make(map[wire.NodeID]uint64)
	for step := 1; step <= 200; step++ {
		node := wire.NodeID(1 + rng.Intn(30))
		if seq[node] == 0 {
			seq[node] = 10 // past the handoff fixture's sequence numbers
		}
		seq[node]++
		b := wire.Batch{Node: node, SeqNo: seq[node], SentAt: float64(100000 + step)}
		for k := rng.Intn(3); k > 0; k-- {
			b.Packets = append(b.Packets, wire.PacketRecord{
				TS: b.SentAt, Node: node, Event: wire.EventRx, Type: "HELLO",
				Src: wire.NodeID(1 + rng.Intn(30)), Dst: wire.BroadcastID, Via: wire.BroadcastID,
				TTL: 1, Size: 23, RSSIdBm: -90, SNRdB: 4, ForUs: true,
			})
		}
		if err := owners[ring.Owner(node)].Ingest(b); err != nil {
			t.Fatal(err)
		}
		check("step")
	}

	// Steady state: no member set has moved, so Stats is answered from
	// the cache — including after an ingest that adds no node or link.
	before := check("steady")
	n0 := calls()
	if st := fed.Stats(); st != before {
		t.Fatalf("repeated Stats differs: %+v then %+v", before, st)
	}
	seq[1]++
	if err := owners[ring.Owner(1)].Ingest(wire.Batch{Node: 1, SeqNo: seq[1], SentAt: 200000}); err != nil {
		t.Fatal(err)
	}
	st := fed.Stats()
	if n := calls() - n0; n != 0 {
		t.Fatalf("steady-state Stats made %d Nodes/Links calls on members, want 0", n)
	}
	if st.BatchesIngested != before.BatchesIngested+1 || st.NodesKnown != before.NodesKnown || st.LinksKnown != before.LinksKnown {
		t.Fatalf("after a set-neutral ingest: %+v, before %+v", st, before)
	}

	// Re-restoring the restored member to B keeps its sizes but drops
	// the two nodes and two links only A had.
	if err := restored.RestoreSnapshot(bytes.NewReader(snapB)); err != nil {
		t.Fatal(err)
	}
	after := check("after re-restore")
	if after.NodesKnown != before.NodesKnown-2 || after.LinksKnown != before.LinksKnown-2 {
		t.Fatalf("after re-restore: %d nodes / %d links, want %d / %d",
			after.NodesKnown, after.LinksKnown, before.NodesKnown-2, before.LinksKnown-2)
	}
}
