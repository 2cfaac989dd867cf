package collector

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// randomFleetBatch draws one batch from a random node of an n-node
// fleet: in-order uploads mixed with sequence gaps, late or duplicate
// retransmits and agent restarts; HELLO receptions from random
// neighbours with fractional RSSI/SNR, a transmission, an occasional
// drop, stats and a heartbeat. Timestamps repeat across neighbouring
// steps, so equal timestamps occur across nodes.
func randomFleetBatch(rng *rand.Rand, seq map[wire.NodeID]uint64, step, nodes int) wire.Batch {
	node := wire.NodeID(1 + rng.Intn(nodes))
	s := seq[node] + 1
	switch r := rng.Intn(10); {
	case seq[node] == 0 || r < 6:
	case r < 8:
		s += uint64(1 + rng.Intn(3)) // gap
	case r < 9:
		s = 1 + uint64(rng.Intn(int(seq[node]))) // late or duplicate
	default:
		s = 1 // agent restart
		seq[node] = 0
	}
	if s > seq[node] {
		seq[node] = s
	}
	ts := float64(step / 2)
	b := wire.Batch{Node: node, SeqNo: s, SentAt: ts}
	for k := rng.Intn(4); k > 0; k-- {
		p := pktRecord(node, ts, wire.EventRx)
		p.Type, p.Src = "HELLO", wire.NodeID(1+rng.Intn(nodes))
		p.RSSIdBm, p.SNRdB = -125+60*rng.Float64(), -12+20*rng.Float64()
		p.Seq = uint16(step)
		b.Packets = append(b.Packets, p)
	}
	b.Packets = append(b.Packets, pktRecord(node, ts, wire.EventTx))
	if rng.Intn(5) == 0 {
		b.Packets = append(b.Packets, pktRecord(node, ts, wire.EventDrop))
	}
	if rng.Intn(3) == 0 {
		b.Stats = []wire.NodeStats{{
			TS: ts, Node: node, UptimeS: ts, DataSent: uint64(rng.Intn(100)),
			Forwarded: uint64(rng.Intn(50)), Delivered: uint64(rng.Intn(80)),
			RouteCount: rng.Intn(nodes), QueueLen: rng.Intn(8), DutyCycleUsed: 0.01 * rng.Float64(),
		}}
	}
	hb := wire.Heartbeat{TS: ts, Node: node, UptimeS: ts}
	if rng.Intn(4) == 0 {
		hb.Firmware = fmt.Sprintf("v1.%d", rng.Intn(3))
	}
	b.Heartbeats = []wire.Heartbeat{hb}
	return b
}

// TestShardMergeMatchesParent: at 1, 3 and 8 shards, along a seeded
// random fleet stream with gaps, duplicates, late arrivals and restarts
// (and across a snapshot restore), Nodes, Links and the checkpoint dump
// built from per-shard runs through tsdb.MergeRuns equal the
// collect-and-sort code they replaced, element for element, Recent
// equals the ingest model, and the dump encodes to the same snapshot
// bytes as one whose ring and counters come from the model.
func TestShardMergeMatchesParent(t *testing.T) {
	const capacity = 37
	limits := []int{-1, 0, 1, capacity - 1, capacity, capacity + 1, 1000}
	for _, shards := range []int{1, 3, 8} {
		model := &ingestModel{}
		cfg := DefaultConfig()
		cfg.Shards, cfg.RecentPackets, cfg.OnIngest = shards, capacity, model.onIngest
		c := New(tsdb.New(), cfg)
		rng := rand.New(rand.NewSource(int64(100 + shards)))
		seq := make(map[wire.NodeID]uint64)
		check := func(step int) {
			where := fmt.Sprintf("shards=%d step %d", shards, step)
			if got, want := c.Nodes(), parentNodes(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Nodes\n got %+v\nwant %+v", where, got, want)
			}
			for _, from := range []float64{-1, 0, float64(step / 4), float64(step)} {
				if got, want := c.Links(from), parentLinks(c, from); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Links(%v)\n got %+v\nwant %+v", where, from, got, want)
				}
			}
			for _, limit := range limits {
				if got, want := c.Recent(limit), model.recent(capacity, limit); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Recent(%d)\n got %+v\nwant %+v", where, limit, got, want)
				}
			}
			c.lockAll()
			got, want := c.dumpAllLocked(), parentDump(c, model)
			c.unlockAll()
			// The store part is the same c.db.Dump() call on both sides,
			// in map order; compare the rest as encoded bytes.
			got.DB, want.DB = tsdb.SnapshotDump{}, tsdb.SnapshotDump{}
			if g, w := gobBytes(t, got), gobBytes(t, want); !bytes.Equal(g, w) {
				t.Fatalf("%s: snapshot bytes differ\n got %+v\nwant %+v", where, got, want)
			}
		}
		check(0)
		for step := 1; step <= 240; step++ {
			if step == 120 {
				var buf bytes.Buffer
				if err := c.WriteSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				c = New(tsdb.New(), cfg)
				if err := c.RestoreSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				check(step)
			}
			if err := c.Ingest(randomFleetBatch(rng, seq, step, 30)); err != nil {
				t.Fatal(err)
			}
			if step%7 == 0 || step == 240 {
				check(step)
			}
		}
	}
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// parentNodes, parentLinks and parentDump are the collect-and-sort
// reads the shard merge replaced, kept as references.

func parentNodes(c *Collector) []NodeInfo {
	var out []NodeInfo
	for _, s := range c.shards {
		s.mu.RLock()
		for _, n := range s.nodes {
			out = append(out, n.info)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func parentLinks(c *Collector, from float64) []LinkObs {
	var out []LinkObs
	for _, s := range c.shards {
		s.mu.RLock()
		for _, l := range append(slices.Clone(s.links), s.fresh...) {
			if l.LastTS >= from {
				out = append(out, l)
			}
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tx != out[j].Tx {
			return out[i].Tx < out[j].Tx
		}
		return out[i].Rx < out[j].Rx
	})
	return out
}

// parentDump is the checkpoint dump as it was built before the merge:
// every shard's state concatenated, then sorted. Its ring is the
// model's newest packets, oldest first, and its counters the model's
// sums with the known counts left 0, as the per-shard partial sums
// left them. Callers hold every shard lock.
func parentDump(c *Collector, model *ingestModel) snapshotDump {
	dump := snapshotDump{
		Version: collectorSnapshotVersion,
		Stats:   Stats{BatchesIngested: model.batches, RecordsIngested: model.records},
		MaxTS:   c.MaxTS(),
		DB:      c.db.Dump(),
	}
	dump.Recent = model.recent(c.cfg.RecentPackets, 0)
	slices.Reverse(dump.Recent)
	for _, sh := range c.shards {
		for _, st := range sh.nodes {
			nd := nodeDump{Info: st.info, LastSeq: st.lastSeq, Seen: st.seen}
			for s := range st.missing {
				nd.Missing = append(nd.Missing, s)
			}
			sort.Slice(nd.Missing, func(i, j int) bool { return nd.Missing[i] < nd.Missing[j] })
			dump.Nodes = append(dump.Nodes, nd)
		}
		dump.Links = append(append(dump.Links, sh.links...), sh.fresh...)
	}
	sort.Slice(dump.Nodes, func(i, j int) bool { return dump.Nodes[i].Info.ID < dump.Nodes[j].Info.ID })
	sort.Slice(dump.Links, func(i, j int) bool {
		if dump.Links[i].Tx != dump.Links[j].Tx {
			return dump.Links[i].Tx < dump.Links[j].Tx
		}
		return dump.Links[i].Rx < dump.Links[j].Rx
	})
	return dump
}
