package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lorameshmon/internal/metrics"
	"lorameshmon/internal/wire"
)

// testBatch builds a small, varied batch whose binary encoding differs
// per sequence number.
func testBatch(node wire.NodeID, seq uint64) wire.Batch {
	ts := float64(seq)
	return wire.Batch{
		Node: node, SeqNo: seq, SentAt: ts,
		Packets: []wire.PacketRecord{{
			TS: ts, Node: node, Event: wire.EventRx, Type: "HELLO",
			Src: node + 1, Dst: wire.BroadcastID, Via: wire.BroadcastID,
			Seq: uint16(seq), TTL: 1, Size: 23,
			RSSIdBm: -90 - float64(seq), SNRdB: 5, ForUs: true, AirtimeMS: 46,
		}},
		Heartbeats: []wire.Heartbeat{{TS: ts, Node: node, UptimeS: ts, Firmware: "fw1"}},
	}
}

func replayAll(t *testing.T, l *Log) []wire.Batch {
	t.Helper()
	var got []wire.Batch
	if _, err := l.Replay(func(b wire.Batch) error {
		got = append(got, b)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []wire.Batch
	for seq := uint64(1); seq <= 20; seq++ {
		b := testBatch(1, seq)
		want = append(want, b)
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testBatch(1, 99)); !errors.Is(err, ErrSealed) {
		t.Fatalf("append after seal = %v, want ErrSealed", err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch: got %d batches, want %d", len(got), len(want))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation every couple of batches.
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for seq := uint64(1); seq <= n; seq++ {
		if err := l.Append(testBatch(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >=3 segments, got %d", len(segs))
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l2); len(got) != n || got[n-1].SeqNo != n {
		t.Fatalf("replay across segments: %d batches", len(got))
	}
}

// TestCrashPointProperty is the crash-point property test: truncating
// the log at EVERY byte offset must recover without panicking and
// restore exactly the complete-record prefix.
func TestCrashPointProperty(t *testing.T) {
	master := t.TempDir()
	l, err := Open(master, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	var want []wire.Batch
	var ends []int64 // cumulative frame end offsets
	for seq := uint64(1); seq <= n; seq++ {
		b := testBatch(1, seq)
		want = append(want, b)
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
		payload, _ := wire.EncodeBatchBinary(b)
		prev := int64(len(segMagic))
		if len(ends) > 0 {
			prev = ends[len(ends)-1]
		}
		ends = append(ends, prev+frameHeader+int64(len(payload)))
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(master, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("expected 1 segment, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != ends[len(ends)-1] {
		t.Fatalf("offset bookkeeping: file %d bytes, computed %d", len(data), ends[len(ends)-1])
	}

	complete := func(off int64) int {
		k := 0
		for _, e := range ends {
			if off >= e {
				k++
			}
		}
		return k
	}
	for off := int64(0); off <= int64(len(data)); off++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("offset %d: open: %v", off, err)
		}
		got := replayAll(t, l2)
		wantN := complete(off)
		if len(got) != wantN {
			t.Fatalf("offset %d: recovered %d batches, want %d", off, len(got), wantN)
		}
		if wantN > 0 && !reflect.DeepEqual(got, want[:wantN]) {
			t.Fatalf("offset %d: recovered prefix differs", off)
		}
		// Recovery must leave the log appendable: the torn tail is gone.
		if err := l2.Append(testBatch(1, 100)); err != nil {
			t.Fatalf("offset %d: append after recovery: %v", off, err)
		}
		if err := l2.Seal(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorruptPayloadStopsAtValidPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(testBatch(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	data, _ := os.ReadFile(segs[0])
	// Flip one bit inside the last frame's payload: CRC fails, the tail
	// is treated as torn, the first two records survive.
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l2); len(got) != 2 {
		t.Fatalf("recovered %d batches, want 2", len(got))
	}
	if l2.Truncated() == 0 {
		t.Fatal("truncated bytes not reported")
	}
}

func TestCheckpointPrunesSegmentsAndKeepsSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 8; seq++ {
		if err := l.Append(testBatch(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	payload := []byte("snapshot-payload")
	if err := l.Checkpoint(func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) != 0 {
		t.Fatalf("covered segments survived checkpoint: %v", segs)
	}
	// Post-checkpoint appends land in fresh segments, replayed on top of
	// the snapshot.
	for seq := uint64(9); seq <= 10; seq++ {
		if err := l.Append(testBatch(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc, ok, err := l2.Snapshot()
	if err != nil || !ok {
		t.Fatalf("snapshot missing: ok=%v err=%v", ok, err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("snapshot payload = %q (%v)", got, err)
	}
	tail := replayAll(t, l2)
	if len(tail) != 2 || tail[0].SeqNo != 9 || tail[1].SeqNo != 10 {
		t.Fatalf("tail replay = %+v", tail)
	}
}

func TestCrashDropsUnsyncedData(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(testBatch(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(4); seq <= 6; seq++ {
		if err := l.Append(testBatch(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l2)
	if len(got) != 3 || got[2].SeqNo != 3 {
		t.Fatalf("post-crash replay = %d batches (want the 3 synced)", len(got))
	}
}

func TestCrashWithEveryBatchSyncLosesNothing(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.Append(testBatch(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l2); len(got) != 5 {
		t.Fatalf("acked batches lost under SyncEveryBatch: recovered %d/5", len(got))
	}
}

func TestSyncIntervalFlushesOnTimer(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncInterval, SyncEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testBatch(1, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		l.mu.Lock()
		synced := l.syncedLen == l.activeLen && l.activeLen > 0
		l.mu.Unlock()
		if synced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l2); len(got) != 1 {
		t.Fatalf("timer-synced batch lost: %d", len(got))
	}
}

func TestMetricsInstrumented(t *testing.T) {
	reg := metrics.NewRegistry()
	l, err := Open(t.TempDir(), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if err := l.Append(testBatch(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(func(io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"meshmon_wal_appends_total 4",
		"meshmon_wal_checkpoints_total 1",
		"meshmon_wal_bytes_total",
		"meshmon_wal_fsyncs_total",
		"meshmon_wal_segments",
	} {
		if !bytes.Contains(sb.Bytes(), []byte(want)) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"batch": SyncEveryBatch, "every-batch": SyncEveryBatch,
		"interval": SyncInterval, "off": SyncNone, "none": SyncNone,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
	if SyncEveryBatch.String() != "batch" || SyncNone.String() != "off" {
		t.Error("policy String() drifted from flag values")
	}
}

// TestOpenRejectsMidLogCorruption: a torn frame in a non-final segment
// cannot be explained by a crash (later segments were written after it)
// and must refuse to open rather than silently drop acked data.
func TestOpenRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if err := l.Append(testBatch(1, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("need >=2 segments, got %d", len(segs))
	}
	data, _ := os.ReadFile(segs[0])
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption: Open = %v, want ErrCorrupt", err)
	}
}

func TestTornHeaderOnlySegment(t *testing.T) {
	dir := t.TempDir()
	// A crash can leave a segment with only part of its magic written.
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), []byte("MW"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); len(got) != 0 {
		t.Fatalf("torn-header segment replayed %d batches", len(got))
	}
	if err := l.Append(testBatch(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDropsSegmentsCoveredBySnapshot(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testBatch(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(func(io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between the snapshot rename and the segment
	// deletes: resurrect a stale covered segment by hand.
	stale := filepath.Join(dir, "wal-00000001.log")
	if err := os.WriteFile(stale, []byte(segMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("covered segment not dropped at open")
	}
	if got := replayAll(t, l2); len(got) != 0 {
		t.Fatalf("covered segment replayed: %d batches", len(got))
	}
}

func TestReplayFnErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testBatch(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	if _, err := l2.Replay(func(wire.Batch) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("replay error = %v, want boom", err)
	}
}

// TestReplayKeepsNonFiniteTimestamps: ingest now refuses non-finite
// timestamps, but a log written before it did may hold one, and that
// log still replays in full.
func TestReplayKeepsNonFiniteTimestamps(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testBatch(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	const marker = 12345.5
	legacy := testBatch(1, 2)
	legacy.Heartbeats[0].TS = marker
	payload, err := wire.EncodeBatchBinary(legacy)
	if err != nil {
		t.Fatal(err)
	}
	le := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	payload = bytes.Replace(payload, le(marker), le(math.Inf(1)), 1)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l2)
	if len(got) != 2 || !math.IsInf(got[1].Heartbeats[0].TS, 1) {
		t.Fatalf("replayed %d batches, want 2 ending in a +Inf heartbeat", len(got))
	}
}
