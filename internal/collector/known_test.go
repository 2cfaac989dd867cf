package collector

import (
	"bytes"
	"math/rand"
	"testing"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// randomKnownBatch draws one batch of a seeded stream over 40 nodes:
// a few received HELLOs from random neighbours (the only records that
// create links), a transmission, and a heartbeat. One in five batches
// re-sends the node's previous sequence number, which dedup drops as
// a duplicate.
func randomKnownBatch(rng *rand.Rand, seq map[wire.NodeID]uint64, step int) wire.Batch {
	node := wire.NodeID(1 + rng.Intn(40))
	if seq[node] == 0 || rng.Intn(5) > 0 {
		seq[node]++
	}
	ts := float64(step)
	b := wire.Batch{Node: node, SeqNo: seq[node], SentAt: ts}
	for k := rng.Intn(4); k > 0; k-- {
		p := pktRecord(node, ts, wire.EventRx)
		p.Type, p.Src = "HELLO", wire.NodeID(1+rng.Intn(40))
		b.Packets = append(b.Packets, p)
	}
	b.Packets = append(b.Packets, pktRecord(node, ts, wire.EventTx))
	b.Heartbeats = []wire.Heartbeat{{TS: ts, Node: node, UptimeS: ts}}
	return b
}

// TestKnownCountsMatchMaterialised: after every step of a seeded random
// batch stream, Stats().NodesKnown and LinksKnown equal the lengths of
// Nodes() and Links(0), at 1, 2 and 7 shards. Halfway through, the
// state is snapshotted and restored into a collector with another shard
// count, which must count the restore and keep matching.
func TestKnownCountsMatchMaterialised(t *testing.T) {
	for _, shards := range []int{1, 2, 7} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		c := New(tsdb.New(), cfg)
		rng := rand.New(rand.NewSource(int64(shards)))
		seq := make(map[wire.NodeID]uint64)
		for step := 1; step <= 300; step++ {
			if step == 150 {
				var buf bytes.Buffer
				if err := c.WriteSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				cfg.Shards = shards%3 + 1
				c = New(tsdb.New(), cfg)
				if err := c.RestoreSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				if got := c.Restores(); got != 1 {
					t.Fatalf("shards=%d: Restores() = %d after one restore", shards, got)
				}
			}
			if err := c.Ingest(randomKnownBatch(rng, seq, step)); err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if nodes, links := len(c.Nodes()), len(c.Links(0)); st.NodesKnown != nodes || st.LinksKnown != links {
				t.Fatalf("shards=%d step %d: Stats known %d nodes / %d links, materialised %d / %d",
					shards, step, st.NodesKnown, st.LinksKnown, nodes, links)
			}
		}
		if st := c.Stats(); st.LinksKnown < 100 {
			t.Fatalf("shards=%d: stream built only %d links; it should exercise growth", shards, st.LinksKnown)
		}
	}
}
