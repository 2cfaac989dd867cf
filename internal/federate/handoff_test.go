package federate

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wal"
	"lorameshmon/internal/wire"
)

// handoffFixture runs a member through its life: ingest with a WAL,
// checkpoint mid-stream, ingest a tail, shut down. It returns the
// sealed log's directory plus a reference collector that saw all the
// same traffic directly.
func handoffFixture(t *testing.T, nodes int, checkpointAfter, lastSeq uint64) (string, *collector.Collector) {
	t.Helper()
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := collector.DefaultConfig()
	cfg.WAL = log
	departing := collector.New(tsdb.New(), cfg)
	ref := collector.New(tsdb.New(), collector.DefaultConfig())

	ingest := func(seq uint64) {
		for id := wire.NodeID(1); id <= wire.NodeID(nodes); id++ {
			b := viewBatch(id, seq)
			if err := departing.Ingest(b); err != nil {
				t.Fatal(err)
			}
			if err := ref.Ingest(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	for seq := uint64(1); seq <= checkpointAfter; seq++ {
		ingest(seq)
	}
	if err := departing.Checkpoint(log); err != nil {
		t.Fatal(err)
	}
	for seq := checkpointAfter + 1; seq <= lastSeq; seq++ {
		ingest(seq)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, ref
}

// routeTo builds the Handoff routing function over a fresh two-member
// federation and returns it with the member map.
func routeTo(t *testing.T) (func(wire.NodeID) (string, collector.Store), map[string]*collector.Collector, *Ring) {
	t.Helper()
	ring, err := NewRing([]string{"m1", "m2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]*collector.Collector{
		"m1": collector.New(tsdb.New(), collector.DefaultConfig()),
		"m2": collector.New(tsdb.New(), collector.DefaultConfig()),
	}
	return func(id wire.NodeID) (string, collector.Store) {
		name := ring.Owner(id)
		return name, owners[name]
	}, owners, ring
}

func TestHandoffReplaysTailThroughNewOwners(t *testing.T) {
	const nodes, checkpointAfter, lastSeq = 6, 3, 6
	dir, ref := handoffFixture(t, nodes, checkpointAfter, lastSeq)

	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	route, owners, _ := routeTo(t)
	res, err := Handoff(log, route, collector.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Legacy == nil {
		t.Fatal("no legacy collector despite a snapshot")
	}
	wantTail := uint64(nodes) * (lastSeq - checkpointAfter)
	if res.Replay.Batches != wantTail {
		t.Fatalf("replayed %d tail batches, want %d", res.Replay.Batches, wantTail)
	}
	replayed := 0
	for _, n := range res.Redistributed {
		replayed += n
	}
	if uint64(replayed) != wantTail {
		t.Fatalf("redistributed %d, want %d (%v)", replayed, wantTail, res.Redistributed)
	}

	// Mounted behind a federated view — owners first, legacy last — the
	// handed-off federation answers exactly like a collector that never
	// split.
	fed, err := NewView([]MemberView{
		{Name: "m1", View: owners["m1"]},
		{Name: "m2", View: owners["m2"]},
		{Name: "legacy", View: res.Legacy},
	}, ViewConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Nodes(), fed.Nodes()) {
		t.Fatalf("nodes differ:\nwant %+v\ngot  %+v", ref.Nodes(), fed.Nodes())
	}
	if !reflect.DeepEqual(ref.Links(0), fed.Links(0)) {
		t.Fatalf("links differ:\nwant %+v\ngot  %+v", ref.Links(0), fed.Links(0))
	}
	if ref.Stats() != fed.Stats() {
		t.Fatalf("stats differ: want %+v, got %+v", ref.Stats(), fed.Stats())
	}
	if ref.MaxTS() != fed.MaxTS() {
		t.Fatalf("maxTS differs: want %v, got %v", ref.MaxTS(), fed.MaxTS())
	}
	// The reference Recent ring orders by arrival; the phase-structured
	// fixture arrives out of timestamp order, so compare against the
	// reference re-sorted the way the federated merge orders (TS desc).
	wantRecent := append([]wire.PacketRecord(nil), ref.Recent(0)...)
	sort.SliceStable(wantRecent, func(i, j int) bool { return wantRecent[i].TS > wantRecent[j].TS })
	if !reflect.DeepEqual(wantRecent, fed.Recent(0)) {
		t.Fatalf("recent differs: want %d records, got %d", len(wantRecent), len(fed.Recent(0)))
	}
	a, b := ref.TSDB(), fed.DB()
	if got := memberPoints(fed); a.PointCount() != got {
		t.Fatalf("point count differs: want %d, got %d", a.PointCount(), got)
	}
	if got := memberMetricNames(fed); !reflect.DeepEqual(a.MetricNames(), got) {
		t.Fatalf("metric names differ: %v vs %v", a.MetricNames(), got)
	}
	for _, name := range a.MetricNames() {
		if !reflect.DeepEqual(a.Query(name, nil, 0, math.MaxFloat64), b.Query(name, nil, 0, math.MaxFloat64)) {
			t.Fatalf("query %s differs after handoff", name)
		}
	}
}

// Running the same handoff again — the crash-mid-handoff story — must
// change nothing: the snapshot restore builds a fresh legacy and the
// tail re-offer is absorbed as duplicates by the owners' dedup.
func TestHandoffIdempotentOnRerun(t *testing.T) {
	const nodes, checkpointAfter, lastSeq = 4, 2, 5
	dir, ref := handoffFixture(t, nodes, checkpointAfter, lastSeq)

	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	route, owners, ring := routeTo(t)
	first, err := Handoff(log, route, collector.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pointsAfterFirst := owners["m1"].TSDB().PointCount() + owners["m2"].TSDB().PointCount()

	second, err := Handoff(log, route, collector.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if second.Replay.Batches != first.Replay.Batches {
		t.Fatalf("reruns replayed different tails: %d vs %d", second.Replay.Batches, first.Replay.Batches)
	}
	if got := owners["m1"].TSDB().PointCount() + owners["m2"].TSDB().PointCount(); got != pointsAfterFirst {
		t.Fatalf("rerun changed stored points: %d -> %d", pointsAfterFirst, got)
	}
	for id := wire.NodeID(1); id <= nodes; id++ {
		owner := owners[ring.Owner(id)]
		info, ok := owner.Node(id)
		if !ok {
			t.Fatalf("node %d missing at new owner", id)
		}
		wantRecords := uint64(lastSeq-checkpointAfter) * uint64(viewBatch(id, 1).Len())
		if info.Records != wantRecords {
			t.Fatalf("node %d: owner holds %d records, want %d (double ingest?)", id, info.Records, wantRecords)
		}
		if info.BatchesDup != uint64(lastSeq-checkpointAfter) {
			t.Fatalf("node %d: dup count %d, want %d", id, info.BatchesDup, lastSeq-checkpointAfter)
		}
	}
	// The second legacy is equivalent to the first: same snapshot.
	w, g := first.Legacy.TSDB(), second.Legacy.TSDB()
	if w.PointCount() != g.PointCount() || w.SeriesCount() != g.SeriesCount() {
		t.Fatalf("legacy reruns differ: %d/%d vs %d/%d points/series",
			w.PointCount(), w.SeriesCount(), g.PointCount(), g.SeriesCount())
	}
	_ = ref
}

// A member that never checkpointed hands off everything through replay:
// no legacy, all batches re-routed.
func TestHandoffWithoutSnapshotReplaysEverything(t *testing.T) {
	const nodes, lastSeq = 3, 4
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := collector.DefaultConfig()
	cfg.WAL = log
	departing := collector.New(tsdb.New(), cfg)
	for seq := uint64(1); seq <= lastSeq; seq++ {
		for id := wire.NodeID(1); id <= nodes; id++ {
			if err := departing.Ingest(viewBatch(id, seq)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	route, owners, _ := routeTo(t)
	res, err := Handoff(reopened, route, collector.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Legacy != nil {
		t.Fatal("legacy collector without a snapshot")
	}
	if res.Replay.Batches != nodes*lastSeq {
		t.Fatalf("replayed %d, want %d", res.Replay.Batches, nodes*lastSeq)
	}
	total := owners["m1"].Stats().BatchesIngested + owners["m2"].Stats().BatchesIngested
	if total != nodes*lastSeq {
		t.Fatalf("owners ingested %d, want %d", total, nodes*lastSeq)
	}
}

// routeBatch is viewBatch plus a route snapshot whose table moves at
// every sequence number: next hops and metrics shift and one
// destination drops out in turn.
func routeBatch(node wire.NodeID, seq uint64) wire.Batch {
	b := viewBatch(node, seq)
	var routes []wire.RouteEntry
	for dst := uint64(1); dst <= 5; dst++ {
		if wire.NodeID(dst) == node || dst == seq%5+1 {
			continue
		}
		routes = append(routes, wire.RouteEntry{Dst: wire.NodeID(dst), NextHop: wire.NodeID(1 + (dst+seq)%3),
			Metric: uint8(1 + dst*seq%3), AgeS: float64(seq)})
	}
	b.Routes = []wire.RouteSnapshot{{TS: b.SentAt, Node: node, Routes: routes}}
	return b
}

// TestHandoffFoldsRouteHistory: after a handoff, the federated view
// folds each node's route history from the legacy member (changes up
// to the checkpoint) and its new owner (changes after), newest first.
// The owner's first snapshot is its baseline, so the one diff the
// federation does not hold is the one across the checkpoint — the same
// in mesh_route_changes, whose point there reads 0.
func TestHandoffFoldsRouteHistory(t *testing.T) {
	const nodes, checkpointAfter, lastSeq = 4, 4, 8
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := collector.DefaultConfig()
	cfg.WAL = log
	departing := collector.New(tsdb.New(), cfg)
	ref := collector.New(tsdb.New(), collector.DefaultConfig())
	for seq := uint64(1); seq <= lastSeq; seq++ {
		for id := wire.NodeID(1); id <= nodes; id++ {
			for _, c := range []*collector.Collector{departing, ref} {
				if err := c.Ingest(routeBatch(id, seq)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if seq == checkpointAfter {
			if err := departing.Checkpoint(log); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	route, owners, _ := routeTo(t)
	res, err := Handoff(reopened, route, collector.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fed, err := NewView([]MemberView{
		{Name: "m1", View: owners["m1"]},
		{Name: "m2", View: owners["m2"]},
		{Name: "legacy", View: res.Legacy},
	}, ViewConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for id := wire.NodeID(1); id <= nodes; id++ {
		want, _ := ref.Node(id)
		got, _ := fed.Node(id)
		across := routeBatch(id, checkpointAfter+1).SentAt
		var wantHist []collector.RouteChange
		for _, c := range want.RouteHistory {
			if c.TS != across {
				wantHist = append(wantHist, c)
			}
		}
		if len(want.RouteHistory) >= 32 || len(wantHist) == len(want.RouteHistory) || len(wantHist) == 0 {
			t.Fatalf("node %v: fixture history %d long, %d across the checkpoint", id, len(want.RouteHistory), len(want.RouteHistory)-len(wantHist))
		}
		if !reflect.DeepEqual(got.RouteHistory, wantHist) || !reflect.DeepEqual(got.LastRoutes, want.LastRoutes) {
			t.Fatalf("node %v: federated history\n got %+v\nwant %+v", id, got.RouteHistory, wantHist)
		}
		labels := tsdb.Labels{"node": id.String()}
		wantPts, _ := ref.TSDB().QueryOne("mesh_route_changes", labels, 0, math.MaxFloat64)
		gotPts, _ := fed.DB().QueryOne("mesh_route_changes", labels, 0, math.MaxFloat64)
		for i := range wantPts.Points {
			if wantPts.Points[i].TS == across {
				wantPts.Points[i].Value = 0
			}
		}
		if !reflect.DeepEqual(gotPts.Points, wantPts.Points) {
			t.Fatalf("node %v: federated mesh_route_changes %v, want %v", id, gotPts.Points, wantPts.Points)
		}
	}
}
