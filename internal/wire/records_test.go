package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func validPacket() PacketRecord {
	return PacketRecord{
		TS: 12.5, Node: 1, Event: EventRx, Type: "DATA",
		Src: 2, Dst: 1, Via: 1, Seq: 7, TTL: 9, Size: 31,
		RSSIdBm: -101.5, SNRdB: 4.2, ForUs: true, AirtimeMS: 56.6,
	}
}

func TestPacketRecordValidate(t *testing.T) {
	if err := validPacket().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*PacketRecord)
	}{
		{"negative ts", func(r *PacketRecord) { r.TS = -1 }},
		{"NaN ts", func(r *PacketRecord) { r.TS = math.NaN() }},
		{"+Inf ts", func(r *PacketRecord) { r.TS = math.Inf(1) }},
		{"-Inf ts", func(r *PacketRecord) { r.TS = math.Inf(-1) }},
		{"bad event", func(r *PacketRecord) { r.Event = "teleport" }},
		{"empty type", func(r *PacketRecord) { r.Type = "" }},
		{"negative size", func(r *PacketRecord) { r.Size = -1 }},
		{"drop without reason", func(r *PacketRecord) { r.Event = EventDrop; r.Reason = "" }},
	}
	for _, tc := range cases {
		r := validPacket()
		tc.mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Every other timestamp a batch carries is refused non-finite too.
	for _, ts := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, err := range map[string]error{
			"route snapshot": RouteSnapshot{TS: ts, Node: 1}.Validate(),
			"node stats":     NodeStats{TS: ts, Node: 1}.Validate(),
			"heartbeat":      Heartbeat{TS: ts, Node: 1}.Validate(),
			"sent_at":        Batch{Node: 1, SentAt: ts}.Validate(),
		} {
			if err == nil {
				t.Errorf("%s with timestamp %v: accepted", name, ts)
			}
		}
	}
}

// TestLoggedBatchKeepsNonFiniteTimestamps: write-ahead logs written
// before Validate refused non-finite timestamps may hold NaN and +Inf
// ones (-Inf was refused as negative), and DecodeLoggedBatch still
// replays such a batch, while DecodeBatchBinary refuses it and a
// logged batch with a negative timestamp is refused as before.
func TestLoggedBatchKeepsNonFiniteTimestamps(t *testing.T) {
	b := Batch{Node: 1, SeqNo: 3, SentAt: math.Inf(1),
		Packets:    []PacketRecord{validPacket()},
		Routes:     []RouteSnapshot{{TS: math.NaN(), Node: 1}},
		Stats:      []NodeStats{{TS: math.Inf(1), Node: 1}},
		Heartbeats: []Heartbeat{{TS: math.NaN(), Node: 1}},
	}
	b.Packets[0].TS = math.NaN()
	var w binWriter
	w.encode(b)
	if _, err := DecodeBatchBinary(w.buf); err == nil {
		t.Fatal("DecodeBatchBinary accepted non-finite timestamps")
	}
	got, err := DecodeLoggedBatch(w.buf)
	if err != nil {
		t.Fatalf("DecodeLoggedBatch: %v", err)
	}
	stamps := func(b Batch) string {
		return fmt.Sprint(b.SentAt, b.Packets[0].TS, b.Routes[0].TS, b.Stats[0].TS, b.Heartbeats[0].TS)
	}
	if stamps(got) != stamps(b) {
		t.Fatalf("DecodeLoggedBatch timestamps %s, want %s", stamps(got), stamps(b))
	}
	for _, neg := range []float64{-1, math.Inf(-1)} {
		b.Heartbeats[0].TS = neg
		w = binWriter{}
		w.encode(b)
		if _, err := DecodeLoggedBatch(w.buf); err == nil {
			t.Fatalf("DecodeLoggedBatch accepted timestamp %v", neg)
		}
	}
}

func TestRouteSnapshotValidate(t *testing.T) {
	s := RouteSnapshot{TS: 5, Node: 1, Routes: []RouteEntry{{Dst: 2, NextHop: 2, Metric: 1, AgeS: 3}}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.Routes[0].Metric = 0
	if err := s.Validate(); err == nil {
		t.Fatal("zero metric accepted")
	}
	s.Routes[0].Metric = 1
	s.Routes[0].AgeS = -1
	if err := s.Validate(); err == nil {
		t.Fatal("negative age accepted")
	}
}

// TestRouteEntryNonFiniteRefusedUnlessLogged: a NaN or ±Inf age or SNR
// is refused on the wire, binary codec included, yet a logged batch
// holding one still decodes with the value intact.
func TestRouteEntryNonFiniteRefusedUnlessLogged(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, field := range []string{"age", "snr"} {
			e := RouteEntry{Dst: 2, NextHop: 2, Metric: 1, AgeS: 3, SNRdB: 4}
			if field == "age" {
				e.AgeS = v
			} else {
				e.SNRdB = v
			}
			b := Batch{Node: 1, SeqNo: 1, SentAt: 5,
				Routes: []RouteSnapshot{{TS: 5, Node: 1, Routes: []RouteEntry{e}}}}
			if err := b.Routes[0].Validate(); err == nil {
				t.Fatalf("%s %v accepted by Validate", field, v)
			}
			var w binWriter
			w.encode(b)
			if _, err := DecodeBatchBinary(w.buf); err == nil {
				t.Fatalf("%s %v accepted by DecodeBatchBinary", field, v)
			}
			if field == "age" && v < 0 {
				continue // a negative age was never accepted
			}
			got, err := DecodeLoggedBatch(w.buf)
			if err != nil {
				t.Fatalf("%s %v: DecodeLoggedBatch: %v", field, v, err)
			}
			if g := got.Routes[0].Routes[0]; fmt.Sprint(g.AgeS, g.SNRdB) != fmt.Sprint(e.AgeS, e.SNRdB) {
				t.Fatalf("%s %v: logged entry %+v, want %+v", field, v, g, e)
			}
		}
	}
}

func TestNodeStatsValidate(t *testing.T) {
	s := NodeStats{TS: 1, Node: 1, UptimeS: 100, DutyCycleUsed: 0.004}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.DutyCycleUsed = 1.5
	if err := s.Validate(); err == nil {
		t.Fatal("duty cycle > 1 accepted")
	}
	s.DutyCycleUsed = 0.004
	s.UptimeS = -1
	if err := s.Validate(); err == nil {
		t.Fatal("negative uptime accepted")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	b := Batch{
		Node: 1, SeqNo: 42, SentAt: 100,
		Packets:    []PacketRecord{validPacket()},
		Routes:     []RouteSnapshot{{TS: 99, Node: 1}},
		Stats:      []NodeStats{{TS: 100, Node: 1, UptimeS: 100, DutyCycleUsed: 0.002}},
		Heartbeats: []Heartbeat{{TS: 100, Node: 1, UptimeS: 100, Firmware: "sim-1.0"}},
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	data, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != b.Node || got.SeqNo != b.SeqNo || got.Len() != b.Len() {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Packets[0] != b.Packets[0] {
		t.Fatalf("packet record mismatch: %+v vs %+v", got.Packets[0], b.Packets[0])
	}
}

func TestBatchRejectsForeignRecords(t *testing.T) {
	foreign := validPacket()
	foreign.Node = 9
	b := Batch{Node: 1, Packets: []PacketRecord{foreign}}
	if err := b.Validate(); err == nil {
		t.Fatal("foreign packet record accepted")
	}
	b = Batch{Node: 1, Heartbeats: []Heartbeat{{TS: 1, Node: 9}}}
	if err := b.Validate(); err == nil {
		t.Fatal("foreign heartbeat accepted")
	}
	b = Batch{Node: 1, Stats: []NodeStats{{TS: 1, Node: 9}}}
	if err := b.Validate(); err == nil {
		t.Fatal("foreign stats accepted")
	}
	b = Batch{Node: 1, Routes: []RouteSnapshot{{TS: 1, Node: 9}}}
	if err := b.Validate(); err == nil {
		t.Fatal("foreign route snapshot accepted")
	}
}

func TestEncodeBatchRejectsInvalid(t *testing.T) {
	bad := validPacket()
	bad.Event = "nope"
	if _, err := EncodeBatch(Batch{Node: 1, Packets: []PacketRecord{bad}}); err == nil {
		t.Fatal("invalid batch encoded")
	}
}

func TestDecodeBatchRejectsGarbage(t *testing.T) {
	if _, err := DecodeBatch([]byte("{not json")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := DecodeBatch([]byte(`{"node":1,"sent_at":-5}`)); err == nil {
		t.Fatal("invalid envelope decoded")
	}
}

func TestJSONFieldNamesAreStable(t *testing.T) {
	data, err := EncodeBatch(Batch{Node: 1, SeqNo: 1, SentAt: 2, Packets: []PacketRecord{validPacket()}})
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, field := range []string{
		`"node"`, `"seq_no"`, `"sent_at"`, `"packets"`, `"ts"`, `"event"`,
		`"rssi_dbm"`, `"snr_db"`, `"airtime_ms"`, `"size_bytes"`,
	} {
		if !strings.Contains(s, field) {
			t.Errorf("encoded batch missing field %s: %s", field, s)
		}
	}
}

func TestEncodedSizeMatchesEncoding(t *testing.T) {
	b := Batch{Node: 1, Packets: []PacketRecord{validPacket()}}
	n, err := EncodedSize(b)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := EncodeBatch(b)
	if n != len(data) {
		t.Fatalf("EncodedSize = %d, len = %d", n, len(data))
	}
}

func TestNodeIDString(t *testing.T) {
	if got := NodeID(0x1A2B).String(); got != "N1A2B" {
		t.Fatalf("String = %q", got)
	}
	for id := 0; id < 1<<16; id++ {
		if got, want := string(NodeID(id).Append([]byte("x"))), "x"+fmt.Sprintf("N%04X", id); got != want {
			t.Fatalf("Append(%d) = %q, want %q", id, got, want)
		}
	}
}

// Property: any batch built from structurally valid records survives an
// encode/decode round trip with record counts intact.
func TestPropertyBatchRoundTrip(t *testing.T) {
	f := func(node uint16, seq uint64, nPkts, nHB uint8) bool {
		b := Batch{Node: NodeID(node), SeqNo: seq, SentAt: 1}
		for i := 0; i < int(nPkts)%20; i++ {
			p := validPacket()
			p.Node = NodeID(node)
			p.Seq = uint16(i)
			b.Packets = append(b.Packets, p)
		}
		for i := 0; i < int(nHB)%20; i++ {
			b.Heartbeats = append(b.Heartbeats, Heartbeat{TS: float64(i), Node: NodeID(node)})
		}
		data, err := EncodeBatch(b)
		if err != nil {
			return false
		}
		got, err := DecodeBatch(data)
		if err != nil {
			return false
		}
		return got.Len() == b.Len() && got.SeqNo == b.SeqNo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the JSON decoder never panics and never returns an invalid
// batch on arbitrary input.
func TestPropertyJSONDecoderRobust(t *testing.T) {
	f := func(data []byte) bool {
		b, err := DecodeBatch(data)
		if err != nil {
			return true
		}
		return b.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedSizeMatchesMarshal(t *testing.T) {
	batches := []Batch{
		{Node: 5, SeqNo: 1, SentAt: 10},
		{Node: 5, SeqNo: 2, SentAt: 20, Packets: []PacketRecord{{
			TS: 1, Node: 5, Event: EventRx, Type: "DATA", Src: 1, Dst: 5,
			RSSIdBm: -100.5, SNRdB: 3.25, ForUs: true, AirtimeMS: 46,
		}}, Heartbeats: []Heartbeat{{TS: 2, Node: 5, UptimeS: 2, Firmware: "fw/1 <&>"}}},
	}
	for _, b := range batches {
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		size, err := EncodedSize(b)
		if err != nil {
			t.Fatal(err)
		}
		if size != len(data) {
			t.Fatalf("EncodedSize = %d, len(json.Marshal) = %d", size, len(data))
		}
	}
}

func TestEncodedSizeConcurrent(t *testing.T) {
	b := Batch{Node: 5, SeqNo: 2, SentAt: 20, Packets: []PacketRecord{{
		TS: 1, Node: 5, Event: EventTx, Type: "HELLO", AirtimeMS: 46,
	}}}
	want, _ := EncodedSize(b)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				got, err := EncodedSize(b)
				if err != nil || got != want {
					t.Errorf("EncodedSize = %d (%v), want %d", got, err, want)
					return
				}
				gotBin, err := EncodedSizeBinary(b)
				wantBin, _ := EncodeBatchBinary(b)
				if err != nil || gotBin != len(wantBin) {
					t.Errorf("EncodedSizeBinary = %d (%v), want %d", gotBin, err, len(wantBin))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReadBatchSizeHint: whatever the hint (exact, short, long, unknown
// or past the limit), ReadBatch returns the whole body and its batch,
// and a body over MaxBatchBytes is refused.
func TestReadBatchSizeHint(t *testing.T) {
	data, err := EncodeBatch(fullBatch())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(data))
	for _, hint := range []int64{n, 0, n / 2, n - 1, n + 1, 10 * n, -1, MaxBatchBytes + 1} {
		b, body, err := ReadBatch(bytes.NewReader(data), hint)
		if err != nil || !bytes.Equal(body, data) || !sameBatch(b, fullBatch()) {
			t.Fatalf("hint %d: err %v, body %d of %d bytes", hint, err, len(body), n)
		}
	}
	limit := append(data, bytes.Repeat([]byte{' '}, MaxBatchBytes-len(data))...)
	if _, body, err := ReadBatch(bytes.NewReader(limit), MaxBatchBytes); err != nil || len(body) != MaxBatchBytes {
		t.Fatalf("body of MaxBatchBytes: err %v, %d bytes", err, len(body))
	}
	over := append(limit, ' ')
	for _, hint := range []int64{-1, MaxBatchBytes, MaxBatchBytes + 1} {
		if _, body, err := ReadBatch(bytes.NewReader(over), hint); !errors.Is(err, ErrBatchTooLarge) || body != nil {
			t.Fatalf("hint %d: oversized body gave %v and %d bytes", hint, err, len(body))
		}
	}
}
