package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lorameshmon/internal/wire"
)

// TestRecorderWritesEncoderLines: the recorder writes the lines
// json.Encoder would, and counts only the batches it wrote.
func TestRecorderWritesEncoderLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.jsonl")
	r, err := newBatchRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	good := wire.Batch{Node: 3, SeqNo: 1, SentAt: 12.5,
		Packets:    []wire.PacketRecord{{TS: 12, Node: 3, Event: wire.EventRx, Type: "HELLO", RSSIdBm: -101.25, ForUs: true}},
		Heartbeats: []wire.Heartbeat{{TS: 12.5, Node: 3, UptimeS: 12.5, Firmware: "fw <&>"}}}
	unencodable := good
	unencodable.SeqNo = 2
	unencodable.Packets = []wire.PacketRecord{{TS: 12, Node: 3, Event: wire.EventRx, Type: "HELLO", RSSIdBm: math.NaN()}}
	last := good
	last.SeqNo = 3
	for _, b := range []wire.Batch{good, unencodable, last} {
		r.record(b)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, b := range []wire.Batch{good, unencodable, last} {
		enc.Encode(b) //nolint:errcheck // the NaN batch fails and writes nothing
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("recorded\n%s\njson.Encoder\n%s", got, want.Bytes())
	}
	if r.count != 2 {
		t.Fatalf("count = %d, want 2", r.count)
	}
}
