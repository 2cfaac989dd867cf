package wire

import (
	"math"
	"testing"
	"testing/quick"
)

// fullBatch exercises every record kind and event.
func fullBatch() Batch {
	return Batch{
		Node: 0x0012, SeqNo: 99, SentAt: 1234.5,
		Packets: []PacketRecord{
			{TS: 1.5, Node: 0x0012, Event: EventRx, Type: "HELLO", Src: 3, Dst: BroadcastID,
				Via: BroadcastID, Seq: 9, TTL: 1, Size: 23, RSSIdBm: -101.5, SNRdB: 4.25,
				ForUs: true, AirtimeMS: 46.25},
			{TS: 2.5, Node: 0x0012, Event: EventTx, Type: "DATA", Src: 0x0012, Dst: 7,
				Via: 5, Seq: 10, TTL: 10, Size: 31, AirtimeMS: 56.5},
			{TS: 3.5, Node: 0x0012, Event: EventDrop, Type: "FRAG", Src: 2, Dst: 7,
				Via: 5, Seq: 11, TTL: 1, Size: 200, Reason: "ttl-expired"},
			{TS: 4.5, Node: 0x0012, Event: EventTx, Type: "CUSTOM", Src: 0x0012, Dst: 7,
				Via: 5, Seq: 12, TTL: 3, Size: 17, AirtimeMS: 30},
		},
		Routes: []RouteSnapshot{{TS: 5, Node: 0x0012, Routes: []RouteEntry{
			{Dst: 3, NextHop: 3, Metric: 1, AgeS: 30.5, SNRdB: 6.5},
			{Dst: 7, NextHop: 5, Metric: 3, AgeS: 61, SNRdB: -2.25},
		}}},
		Stats: []NodeStats{{
			TS: 6, Node: 0x0012, UptimeS: 3600.5,
			HelloSent: 60, DataSent: 30, AckSent: 2, Forwarded: 11,
			HelloRecv: 120, DataRecv: 40, AckRecv: 1, Overheard: 9,
			Delivered: 29, DupSuppressed: 1,
			DropNoRoute: 2, DropTTL: 1, DropQueueFull: 4, DropAckTimeout: 1,
			RetriesSpent: 5, SendFailures: 1,
			RouteCount: 7, QueueLen: 2, AirtimeMS: 4210.5, DutyCycleUsed: 0.0015,
			DutyBlocked: 3, RxMissWeak: 12, RxMissCollided: 8,
		}},
		Heartbeats: []Heartbeat{{TS: 7, Node: 0x0012, UptimeS: 3601, Firmware: "meshmon/1.0"}},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	b := fullBatch()
	data, err := EncodeBatchBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBinaryBatch(data) {
		t.Fatal("encoded batch not recognised as binary")
	}
	got, err := DecodeBatchBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != b.Node || got.SeqNo != b.SeqNo || got.SentAt != b.SentAt {
		t.Fatalf("envelope mismatch: %+v", got)
	}
	if got.Len() != b.Len() {
		t.Fatalf("record count %d, want %d", got.Len(), b.Len())
	}
	// Measurements travel as f32; compare with tolerance, exact for the rest.
	for i, p := range got.Packets {
		want := b.Packets[i]
		if p.Event != want.Event || p.Type != want.Type || p.Src != want.Src ||
			p.Dst != want.Dst || p.Via != want.Via || p.Seq != want.Seq ||
			p.TTL != want.TTL || p.Size != want.Size || p.ForUs != want.ForUs ||
			p.Reason != want.Reason || p.TS != want.TS {
			t.Fatalf("packet %d mismatch:\n got %+v\nwant %+v", i, p, want)
		}
		if math.Abs(p.RSSIdBm-want.RSSIdBm) > 0.01 || math.Abs(p.SNRdB-want.SNRdB) > 0.01 ||
			math.Abs(p.AirtimeMS-want.AirtimeMS) > 0.01 {
			t.Fatalf("packet %d measurements drifted: %+v", i, p)
		}
	}
	if got.Routes[0].Routes[1] != (RouteEntry{Dst: 7, NextHop: 5, Metric: 3, AgeS: 61, SNRdB: -2.25}) {
		t.Fatalf("route entry mismatch: %+v", got.Routes[0].Routes[1])
	}
	gs, ws := got.Stats[0], b.Stats[0]
	if gs.HelloSent != ws.HelloSent || gs.RxMissCollided != ws.RxMissCollided ||
		gs.RouteCount != ws.RouteCount || math.Abs(gs.DutyCycleUsed-ws.DutyCycleUsed) > 1e-6 {
		t.Fatalf("stats mismatch:\n got %+v\nwant %+v", gs, ws)
	}
	if got.Heartbeats[0].Firmware != "meshmon/1.0" {
		t.Fatalf("heartbeat mismatch: %+v", got.Heartbeats[0])
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	b := fullBatch()
	jsonSize, err := EncodedSize(b)
	if err != nil {
		t.Fatal(err)
	}
	binSize, err := EncodedSizeBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	if binSize*3 >= jsonSize {
		t.Fatalf("binary %dB not at least 3x smaller than JSON %dB", binSize, jsonSize)
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	data, err := EncodeBatchBinary(fullBatch())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte{'X', 'Y'}, data[2:]...),
		"bad version": append([]byte{'M', 'B', 99}, data[3:]...),
		"truncated":   data[:len(data)/2],
		"trailing":    append(append([]byte(nil), data...), 0xFF),
	}
	for name, corrupt := range cases {
		if _, err := DecodeBatchBinary(corrupt); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestBinaryRejectsInvalidBatch(t *testing.T) {
	if _, err := EncodeBatchBinary(Batch{Node: 1, SentAt: -1}); err == nil {
		t.Fatal("invalid batch encoded")
	}
}

func TestIsBinaryBatch(t *testing.T) {
	if IsBinaryBatch([]byte(`{"node":1}`)) {
		t.Fatal("JSON recognised as binary")
	}
	if IsBinaryBatch([]byte{'M'}) {
		t.Fatal("short prefix recognised as binary")
	}
}

// Property: heartbeat-only batches of any size round-trip exactly.
func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(node uint16, seq uint64, n uint8, fw string) bool {
		if len(fw) > 200 {
			fw = fw[:200]
		}
		b := Batch{Node: NodeID(node), SeqNo: seq, SentAt: 3}
		for i := 0; i < int(n)%50; i++ {
			b.Heartbeats = append(b.Heartbeats, Heartbeat{
				TS: float64(i), Node: NodeID(node), UptimeS: float64(i), Firmware: fw,
			})
		}
		data, err := EncodeBatchBinary(b)
		if err != nil {
			return false
		}
		got, err := DecodeBatchBinary(data)
		if err != nil {
			return false
		}
		if got.Len() != b.Len() || got.SeqNo != seq {
			return false
		}
		for i, h := range got.Heartbeats {
			if h.Firmware != b.Heartbeats[i].Firmware || h.TS != b.Heartbeats[i].TS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary input.
func TestPropertyBinaryDecoderRobust(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("decoder panicked on %x", data)
			}
		}()
		DecodeBatchBinary(data) //nolint:errcheck // errors expected
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeBatchBinary: the binary decoder never panics, and a batch it
// accepts re-encodes and decodes back to the same batch.
func FuzzDecodeBatchBinary(f *testing.F) {
	for _, b := range []Batch{fullBatch(), mixedBatch(), {Node: 1, SentAt: 1}} {
		data, err := EncodeBatchBinary(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatchBinary(data)
		if err != nil {
			return
		}
		again, err := EncodeBatchBinary(b)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v\n%+v", err, b)
		}
		got, err := DecodeBatchBinary(again)
		if err != nil || !sameBatch(got, b) {
			t.Fatalf("re-decode: %v\n got %+v\nwant %+v", err, got, b)
		}
	})
}
