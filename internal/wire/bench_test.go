package wire

import (
	"encoding/json"
	"math/rand"
	"testing"
)

func benchBatch() Batch {
	b := Batch{Node: 1, SeqNo: 9, SentAt: 100}
	for i := 0; i < 32; i++ {
		b.Packets = append(b.Packets, PacketRecord{
			TS: float64(i), Node: 1, Event: EventRx, Type: "HELLO",
			Src: 2, Dst: BroadcastID, Via: BroadcastID, Seq: uint16(i), TTL: 1,
			Size: 23, RSSIdBm: -100, SNRdB: 5, ForUs: true, AirtimeMS: 46,
		})
	}
	return b
}

// routeBatch is one settled agent's route snapshot in a 500-node mesh:
// 450 entries at the agent's register resolution (whole-second ages,
// SNR in 0.25 dB steps).
func routeBatch() Batch {
	rng := rand.New(rand.NewSource(1))
	s := RouteSnapshot{TS: 3600, Node: 1, Routes: make([]RouteEntry, 450)}
	for i := range s.Routes {
		s.Routes[i] = RouteEntry{
			Dst: NodeID(2 + i), NextHop: NodeID(2 + rng.Intn(500)), Metric: uint8(1 + rng.Intn(12)),
			AgeS: float64(rng.Intn(600)), SNRdB: float64(rng.Intn(120)-80) / 4,
		}
	}
	return Batch{Node: 1, SeqNo: 9, SentAt: 3600, Routes: []RouteSnapshot{s}}
}

func BenchmarkEncodeJSON(b *testing.B) {
	for _, c := range []struct {
		name  string
		batch Batch
	}{{"packets", benchBatch()}, {"routes450", routeBatch()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EncodeBatch(c.batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodedSize is the simulated uplink's per-batch cost.
func BenchmarkEncodedSize(b *testing.B) {
	batch := routeBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodedSize(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeBinary(b *testing.B) {
	batch := benchBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBatchBinary(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeJSON(b *testing.B) {
	data, _ := EncodeBatch(benchBatch())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(data); err != nil {
			b.Fatal(err)
		}
	}
}

// mixedBatch has the shape of a settled agent's upload: 32 packet
// records (rx HELLO and DATA, tx DATA, drops) with full-precision
// measurements, one 6-entry route snapshot, one stats record and one
// heartbeat, about 7 KB of JSON.
func mixedBatch() Batch {
	rng := rand.New(rand.NewSource(1))
	const id NodeID = 42
	b := Batch{Node: id, SeqNo: 1234, SentAt: 3600 + rng.Float64()}
	at := func() float64 { return 3590 + 10*rng.Float64() }
	for i := 0; i < 32; i++ {
		p := PacketRecord{
			TS: at(), Node: id, Seq: uint16(rng.Intn(1 << 16)), TTL: uint8(1 + rng.Intn(9)),
			Src: NodeID(1 + rng.Intn(200)), Dst: BroadcastID, Via: BroadcastID, Size: 23,
		}
		switch r := rng.Intn(10); {
		case r < 7:
			p.Event, p.Type, p.ForUs = EventRx, "HELLO", true
			if r >= 5 {
				p.Type, p.Dst, p.Size = "DATA", id, 20+rng.Intn(40)
			}
			p.RSSIdBm, p.SNRdB = -70-50*rng.Float64(), -5+15*rng.Float64()
		case r < 9:
			p.Event, p.Type, p.Src, p.Dst, p.Size = EventTx, "DATA", id, NodeID(1+rng.Intn(200)), 20+rng.Intn(40)
			p.AirtimeMS = 40 + 40*rng.Float64()
		default:
			p.Event, p.Type, p.Reason = EventDrop, "DATA", "no_route"
		}
		b.Packets = append(b.Packets, p)
	}
	s := RouteSnapshot{TS: at(), Node: id}
	for k := 1; k <= 6; k++ {
		s.Routes = append(s.Routes, RouteEntry{
			Dst: id + NodeID(k), NextHop: id + NodeID(1+rng.Intn(5)), Metric: uint8(1 + rng.Intn(5)), AgeS: 60 * rng.Float64(),
		})
	}
	b.Routes = []RouteSnapshot{s}
	b.Stats = []NodeStats{{
		TS: b.SentAt, Node: id, UptimeS: b.SentAt, HelloSent: 60, DataSent: uint64(rng.Intn(100)),
		Forwarded: uint64(rng.Intn(100)), HelloRecv: uint64(rng.Intn(500)), DataRecv: uint64(rng.Intn(100)),
		Delivered: uint64(rng.Intn(100)), RouteCount: 6, QueueLen: rng.Intn(4),
		AirtimeMS: 1000 * rng.Float64(), DutyCycleUsed: 0.005 * rng.Float64(),
	}}
	b.Heartbeats = []Heartbeat{{TS: b.SentAt, Node: id, UptimeS: b.SentAt, Firmware: "meshmon-sim/1.0"}}
	return b
}

// BenchmarkDecodeJSONMixed decodes the canonical bytes agents send: the
// single-pass parser's case.
func BenchmarkDecodeJSONMixed(b *testing.B) {
	data, err := EncodeBatch(mixedBatch())
	if err != nil {
		b.Fatal(err)
	}
	benchmarkDecodeJSON(b, data)
}

// BenchmarkDecodeJSONFallback decodes the same batch indented, which the
// single-pass parser refuses at its second byte: encoding/json's case.
func BenchmarkDecodeJSONFallback(b *testing.B) {
	data, err := json.MarshalIndent(mixedBatch(), "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	benchmarkDecodeJSON(b, data)
}

func benchmarkDecodeJSON(b *testing.B, data []byte) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBinary(b *testing.B) {
	data, _ := EncodeBatchBinary(benchBatch())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatchBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}
