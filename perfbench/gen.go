package main

import (
	"math/rand"

	"lorameshmon/internal/wire"
)

// batchGen generates telemetry batches from a seed: nodes 1..n, each with
// its own upload sequence, carrying received HELLO/DATA, transmitted and
// dropped packet records, a routing snapshot, and one stats summary and
// heartbeat per summary interval. HELLOs come from ten fixed radio
// neighbours and routes point at six fixed destinations, as in a settled
// mesh. Equal seeds give equal batch streams.
type batchGen struct {
	rng       *rand.Rand
	nodes     int
	packets   int     // packet records per batch
	spreadS   float64 // records carry timestamps in the spreadS before SentAt
	summaries int     // stats summaries and heartbeats per batch, spread evenly
	seq       []uint64
}

func newBatchGen(seed int64, nodes, packets int) *batchGen {
	return &batchGen{
		rng:       rand.New(rand.NewSource(seed)),
		nodes:     nodes,
		packets:   packets,
		spreadS:   10,
		summaries: 1,
		seq:       make([]uint64, nodes+1),
	}
}

// next returns the next batch from a node chosen by the seed, sent at ts.
func (g *batchGen) next(ts float64) wire.Batch {
	return g.from(wire.NodeID(g.rng.Intn(g.nodes)+1), ts)
}

// neighbour returns id's k-th neighbour, k in [1, 10]: the five nodes on
// either side of it in ID order.
func (g *batchGen) neighbour(id wire.NodeID, k int) wire.NodeID {
	off := k
	if k > 5 {
		off = g.nodes - (k - 5)
	}
	return wire.NodeID((int(id)-1+off)%g.nodes + 1)
}

// from returns the next batch of node id, sent at ts.
func (g *batchGen) from(id wire.NodeID, ts float64) wire.Batch {
	g.seq[id]++
	b := wire.Batch{Node: id, SeqNo: g.seq[id], SentAt: ts}
	at := func() float64 { return max(ts-g.spreadS*g.rng.Float64(), 0) }
	peer := func() wire.NodeID {
		p := wire.NodeID(g.rng.Intn(g.nodes) + 1)
		if p == id {
			p = g.neighbour(id, 1)
		}
		return p
	}
	for i := 0; i < g.packets; i++ {
		p := wire.PacketRecord{
			TS: at(), Node: id, Seq: uint16(g.rng.Intn(1 << 16)), TTL: uint8(1 + g.rng.Intn(9)),
			Via: wire.BroadcastID, Dst: wire.BroadcastID, Size: 23,
		}
		switch r := g.rng.Intn(10); {
		case r < 5: // HELLO from a radio neighbour: feeds the link table
			p.Event, p.Type, p.Src = wire.EventRx, "HELLO", g.neighbour(id, 1+g.rng.Intn(10))
			p.RSSIdBm, p.SNRdB, p.ForUs = -70-50*g.rng.Float64(), -5+15*g.rng.Float64(), true
		case r < 7:
			p.Event, p.Type, p.Src, p.Dst = wire.EventRx, "DATA", peer(), id
			p.Size = 20 + g.rng.Intn(40)
			p.RSSIdBm, p.SNRdB, p.ForUs = -70-50*g.rng.Float64(), -5+15*g.rng.Float64(), true
		case r < 9:
			p.Event, p.Type, p.Src, p.Dst = wire.EventTx, "DATA", id, peer()
			p.Size = 20 + g.rng.Intn(40)
			p.AirtimeMS = 40 + 40*g.rng.Float64()
		default:
			p.Event, p.Type, p.Src, p.Dst, p.Reason = wire.EventDrop, "DATA", peer(), peer(), "no_route"
		}
		b.Packets = append(b.Packets, p)
	}
	routes := wire.RouteSnapshot{TS: at(), Node: id}
	for k := 1; k <= 6; k++ {
		routes.Routes = append(routes.Routes, wire.RouteEntry{
			Dst: g.neighbour(id, k), NextHop: g.neighbour(id, 1+g.rng.Intn(10)),
			Metric: uint8(1 + g.rng.Intn(5)), AgeS: 60 * g.rng.Float64(),
		})
	}
	b.Routes = append(b.Routes, routes)
	for k := 0; k < g.summaries; k++ {
		t := max(ts-float64(k)*g.spreadS/float64(g.summaries), 0)
		b.Stats = append(b.Stats, wire.NodeStats{
			TS: t, Node: id, UptimeS: t,
			HelloSent: uint64(t / 60), DataSent: uint64(g.rng.Intn(100)), Forwarded: uint64(g.rng.Intn(100)),
			HelloRecv: uint64(g.rng.Intn(500)), DataRecv: uint64(g.rng.Intn(100)), Delivered: uint64(g.rng.Intn(100)),
			RouteCount: 6, QueueLen: g.rng.Intn(4),
			AirtimeMS: 1000 * g.rng.Float64(), DutyCycleUsed: 0.005 * g.rng.Float64(),
		})
		b.Heartbeats = append(b.Heartbeats, wire.Heartbeat{TS: t, Node: id, UptimeS: t, Firmware: "meshmon-sim/1.0"})
	}
	return b
}
