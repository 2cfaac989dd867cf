package collector

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wal"
	"lorameshmon/internal/wire"
)

// trafficBatch builds a batch exercising every record type, so recovery
// has to reconstruct packets, routes, stats, heartbeats, links and the
// recent ring — not just counters. The batch is normalised through the
// wire binary codec (as every real uplink batch is) so float fields
// carry the codec's precision on both the original and the replay path.
func trafficBatch(node wire.NodeID, seq uint64) wire.Batch {
	ts := float64(seq) * 10
	b := wire.Batch{
		Node: node, SeqNo: seq, SentAt: ts,
		Packets: []wire.PacketRecord{
			{TS: ts, Node: node, Event: wire.EventTx, Type: "DATA",
				Src: node, Dst: 1, Via: 1, Seq: uint16(seq), TTL: 10, Size: 40, AirtimeMS: 56.6},
			{TS: ts + 1, Node: node, Event: wire.EventRx, Type: "HELLO",
				Src: node%3 + 1, Dst: wire.BroadcastID, Via: wire.BroadcastID,
				Seq: uint16(seq), TTL: 1, Size: 23, RSSIdBm: -80 - float64(seq), SNRdB: 6},
			{TS: ts + 2, Node: node, Event: wire.EventDrop, Type: "DATA",
				Src: node, Dst: 1, Via: 1, Seq: uint16(seq), TTL: 0, Size: 40, Reason: "ttl-expired"},
		},
		Routes: []wire.RouteSnapshot{{TS: ts, Node: node,
			Routes: []wire.RouteEntry{{Dst: 1, NextHop: 2, Metric: uint8(seq%4 + 1), AgeS: 5}}}},
		Stats: []wire.NodeStats{{TS: ts, Node: node,
			HelloSent: seq, DataSent: 2 * seq, RouteCount: 3,
			AirtimeMS: float64(seq) * 100, DutyCycleUsed: 0.01}},
		Heartbeats: []wire.Heartbeat{{TS: ts, Node: node, UptimeS: ts, Firmware: "fw2"}},
	}
	enc, err := wire.EncodeBatchBinary(b)
	if err != nil {
		panic(err)
	}
	dec, err := wire.DecodeBatchBinary(enc)
	if err != nil {
		panic(err)
	}
	return dec
}

// assertCollectorsEqual compares everything the collector exposes:
// registry, links, counters, recent ring and every time series.
func assertCollectorsEqual(t *testing.T, want, got *Collector) {
	t.Helper()
	if !reflect.DeepEqual(want.Nodes(), got.Nodes()) {
		t.Fatalf("node registry differs:\nwant %+v\ngot  %+v", want.Nodes(), got.Nodes())
	}
	if !reflect.DeepEqual(want.Links(0), got.Links(0)) {
		t.Fatalf("links differ:\nwant %+v\ngot  %+v", want.Links(0), got.Links(0))
	}
	if want.Stats() != got.Stats() {
		t.Fatalf("stats differ: want %+v, got %+v", want.Stats(), got.Stats())
	}
	if want.MaxTS() != got.MaxTS() {
		t.Fatalf("maxTS differs: want %v, got %v", want.MaxTS(), got.MaxTS())
	}
	if !reflect.DeepEqual(want.Recent(0), got.Recent(0)) {
		t.Fatalf("recent ring differs: want %d records, got %d",
			len(want.Recent(0)), len(got.Recent(0)))
	}
	a, b := want.TSDB(), got.TSDB()
	if a.PointCount() != b.PointCount() || a.SeriesCount() != b.SeriesCount() {
		t.Fatalf("tsdb size differs: %d/%d vs %d/%d points/series",
			a.PointCount(), a.SeriesCount(), b.PointCount(), b.SeriesCount())
	}
	namesA, namesB := a.MetricNames(), b.MetricNames()
	if !reflect.DeepEqual(namesA, namesB) {
		t.Fatalf("metric names differ: %v vs %v", namesA, namesB)
	}
	for _, name := range namesA {
		ra := a.Query(name, nil, 0, math.MaxFloat64)
		rb := b.Query(name, nil, 0, math.MaxFloat64)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("metric %s differs after recovery", name)
		}
	}
}

// TestRecoveryRoundTrip ingests varied traffic (with gaps, duplicates
// and a late reorder), checkpoints mid-run, keeps ingesting, crashes,
// and asserts a fresh collector recovered from disk is indistinguishable
// from the original.
func TestRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	wlog, err := wal.Open(dir, wal.Options{Sync: wal.SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.RecentPackets = 8 // force the ring to wrap
	cfg.WAL = wlog
	orig := New(tsdb.New(), cfg)

	feed := func(node wire.NodeID, seqs ...uint64) {
		for _, s := range seqs {
			if err := orig.Ingest(trafficBatch(node, s)); err != nil {
				t.Fatalf("ingest node %d seq %d: %v", node, s, err)
			}
		}
	}
	feed(1, 1, 2, 3)
	feed(2, 1, 2, 5, 5) // gap (3, 4 lost) plus a duplicate
	if err := orig.Checkpoint(wlog); err != nil {
		t.Fatal(err)
	}
	feed(1, 4, 5)
	feed(2, 3) // late reorder across the checkpoint boundary
	feed(3, 1)
	if err := wlog.Crash(); err != nil {
		t.Fatal(err)
	}

	wlog2, err := wal.Open(dir, wal.Options{Sync: wal.SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := DefaultConfig()
	cfg2.RecentPackets = 8
	cfg2.WAL = wlog2
	recovered := New(tsdb.New(), cfg2)
	stats, err := recovered.Recover(wlog2)
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint covered the first 6 accepted batches; only the tail
	// after it replays (4 accepted — the duplicate was never logged).
	if stats.Batches != 4 {
		t.Fatalf("replayed %d batches, want 4", stats.Batches)
	}
	assertCollectorsEqual(t, orig, recovered)

	// The recovered collector keeps working: in-order ingest continues
	// from the restored sequence state.
	if err := recovered.Ingest(trafficBatch(1, 6)); err != nil {
		t.Fatal(err)
	}
	n, _ := recovered.Node(1)
	if n.BatchesOK != 6 || n.BatchesDup != 0 {
		t.Fatalf("post-recovery ingest: %+v", n)
	}
}

// TestRecoveryWithoutCheckpoint replays a snapshot-less WAL from scratch.
func TestRecoveryWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	wlog, err := wal.Open(dir, wal.Options{Sync: wal.SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WAL = wlog
	orig := New(tsdb.New(), cfg)
	for seq := uint64(1); seq <= 9; seq++ {
		if err := orig.Ingest(trafficBatch(4, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := wlog.Crash(); err != nil {
		t.Fatal(err)
	}
	wlog2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered := New(tsdb.New(), DefaultConfig())
	stats, err := recovered.Recover(wlog2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Batches != 9 {
		t.Fatalf("replayed %d batches, want 9", stats.Batches)
	}
	assertCollectorsEqual(t, orig, recovered)
}

// TestCrashLosesNoAckedBatches is the acceptance criterion: with
// fsync-per-batch, a crash at an arbitrary point loses zero batches the
// collector acknowledged.
func TestCrashLosesNoAckedBatches(t *testing.T) {
	dir := t.TempDir()
	wlog, err := wal.Open(dir, wal.Options{Sync: wal.SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WAL = wlog
	c := New(tsdb.New(), cfg)
	acked := uint64(0)
	for seq := uint64(1); seq <= 25; seq++ {
		if err := c.Ingest(trafficBatch(5, seq)); err == nil {
			acked++
		}
	}
	if err := wlog.Crash(); err != nil { // power loss between two appends
		t.Fatal(err)
	}
	wlog2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered := New(tsdb.New(), DefaultConfig())
	if _, err := recovered.Recover(wlog2); err != nil {
		t.Fatal(err)
	}
	if got := recovered.Stats().BatchesIngested; got != acked {
		t.Fatalf("acked-data loss: acked %d batches, recovered %d", acked, got)
	}
}

// TestIngestDurabilityFailure checks a WAL append failure surfaces as
// ErrDurability (the HTTP 503 path) and leaves collector state untouched
// so the client's retry is clean — including for a node whose first
// batch is the refused one: it must not enter the registry.
func TestIngestDurabilityFailure(t *testing.T) {
	wlog, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WAL = wlog
	c := New(tsdb.New(), cfg)
	if err := c.Ingest(trafficBatch(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Seal(); err != nil { // every further append fails
		t.Fatal(err)
	}
	err = c.Ingest(trafficBatch(1, 2))
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("ingest with dead WAL = %v, want ErrDurability", err)
	}
	n, _ := c.Node(1)
	if n.BatchesOK != 1 || n.BatchesLost != 0 || n.BatchesDup != 0 {
		t.Fatalf("failed append mutated state: %+v", n)
	}
	epoch := c.Epoch()
	if err := c.Ingest(trafficBatch(7, 1)); !errors.Is(err, ErrDurability) {
		t.Fatalf("first batch of a new node with dead WAL = %v, want ErrDurability", err)
	}
	if n, ok := c.Node(7); ok {
		t.Fatalf("refused first batch registered its node: %+v", n)
	}
	if st := c.Stats(); st.BatchesIngested != 1 || st.NodesKnown != 1 || st.LinksKnown != 1 {
		t.Fatalf("Stats = %+v, want 1 batch, 1 node, 1 link", st)
	}
	if len(c.Nodes()) != 1 || c.Epoch() != epoch {
		t.Fatalf("refused batches left %d nodes and moved the epoch %d -> %d", len(c.Nodes()), epoch, c.Epoch())
	}
}

// TestRecoveryRoundTripTiered runs the same crash/recover cycle with
// rollup tiers and per-tier retention enabled: the checkpoint now
// carries compressed raw chunks plus rollup state, and the WAL tail
// replay must rebuild open rollup buckets bit-for-bit.
func TestRecoveryRoundTripTiered(t *testing.T) {
	dir := t.TempDir()
	wlog, err := wal.Open(dir, wal.Options{Sync: wal.SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WAL = wlog
	cfg.RetentionS = 2000 // raw keeps ~last 200 batches of record time
	cfg.Retain1mS = 100000
	cfg.Retain1hS = 0 // forever
	orig := New(tsdb.New(), cfg)
	for seq := uint64(1); seq <= 300; seq++ {
		if err := orig.Ingest(trafficBatch(1, seq)); err != nil {
			t.Fatal(err)
		}
		if seq == 150 {
			if err := orig.Checkpoint(wlog); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := wlog.Crash(); err != nil {
		t.Fatal(err)
	}

	wlog2, err := wal.Open(dir, wal.Options{Sync: wal.SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.WAL = wlog2
	recovered := New(tsdb.New(), cfg2)
	if _, err := recovered.Recover(wlog2); err != nil {
		t.Fatal(err)
	}
	assertCollectorsEqual(t, orig, recovered)

	// Rollup tiers are not part of assertCollectorsEqual's raw-query
	// comparison; check them explicitly across every aggregate.
	wantDB, gotDB := orig.TSDB(), recovered.TSDB()
	for _, metric := range wantDB.MetricNames() {
		for _, agg := range []tsdb.Agg{tsdb.AggSum, tsdb.AggCount, tsdb.AggMin, tsdb.AggMax, tsdb.AggLast} {
			want := wantDB.QueryRange(metric, nil, 0, math.MaxFloat64, 60, agg)
			got := gotDB.QueryRange(metric, nil, 0, math.MaxFloat64, 60, agg)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("metric %s agg %s: 1m rollups diverge after recovery", metric, agg)
			}
		}
	}
	// Raw retention actually evicted old samples on both sides.
	if got := gotDB.PickTier(0, 10); got != "1m" {
		t.Fatalf("PickTier(0, 10) after eviction = %q, want 1m (raw evicted at range start)", got)
	}
}
