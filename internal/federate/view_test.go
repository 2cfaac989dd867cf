package federate

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"lorameshmon/internal/analysis"
	"lorameshmon/internal/collector"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// viewBatch is testBatch with timestamps unique per (node, seq), so the
// global newest-first Recent order is total and comparable against a
// single-collector reference.
func viewBatch(node wire.NodeID, seq uint64) wire.Batch {
	b := testBatch(node, seq)
	base := float64(node)*1000 + float64(seq)*10
	b.SentAt = base
	for i := range b.Packets {
		b.Packets[i].TS = base + float64(i)
	}
	for i := range b.Heartbeats {
		b.Heartbeats[i].TS = base
		b.Heartbeats[i].UptimeS = base
	}
	return b
}

// buildFederation ingests the same traffic into a partitioned
// federation and a single reference collector, returning both.
func buildFederation(t *testing.T, memberNames []string, nodes int, seqs uint64) (*View, *collector.Collector) {
	t.Helper()
	ring, err := NewRing(memberNames, 0)
	if err != nil {
		t.Fatal(err)
	}
	members := make(map[string]*collector.Collector, len(memberNames))
	var mvs []MemberView
	for _, name := range memberNames {
		c := collector.New(tsdb.New(), collector.DefaultConfig())
		members[name] = c
		mvs = append(mvs, MemberView{Name: name, View: c})
	}
	ref := collector.New(tsdb.New(), collector.DefaultConfig())
	// Node-major order makes arrival order equal timestamp order
	// (viewBatch stamps ts by node then seq), so the reference Recent
	// ring's newest-first-by-arrival equals the federated
	// newest-first-by-timestamp and the two compare exactly.
	for id := wire.NodeID(1); id <= wire.NodeID(nodes); id++ {
		for seq := uint64(1); seq <= seqs; seq++ {
			b := viewBatch(id, seq)
			if err := members[ring.Owner(id)].Ingest(b); err != nil {
				t.Fatal(err)
			}
			if err := ref.Ingest(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	fed, err := NewView(mvs, ViewConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return fed, ref
}

// memberPoints sums the members' stored points — exact, since members
// hold disjoint samples. Every test member is a *collector.Collector.
func memberPoints(v *View) int {
	n := 0
	for _, m := range v.members {
		n += m.View.(*collector.Collector).TSDB().PointCount()
	}
	return n
}

// memberMetricNames is the sorted union of the members' metric names.
func memberMetricNames(v *View) []string {
	var names []string
	for _, m := range v.members {
		names = append(names, m.View.(*collector.Collector).TSDB().MetricNames()...)
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// The headline contract: every read a consumer can make against a
// single collector returns the same answer from the federation.
func TestFederateViewMatchesSingleCollector(t *testing.T) {
	fed, ref := buildFederation(t, []string{"m1", "m2", "m3"}, 12, 3)

	if !reflect.DeepEqual(ref.Nodes(), fed.Nodes()) {
		t.Fatalf("nodes differ:\nwant %+v\ngot  %+v", ref.Nodes(), fed.Nodes())
	}
	for _, n := range ref.Nodes() {
		got, ok := fed.Node(n.ID)
		if !ok || !reflect.DeepEqual(n, got) {
			t.Fatalf("node %v differs: want %+v got %+v (ok=%v)", n.ID, n, got, ok)
		}
	}
	if !reflect.DeepEqual(ref.Links(0), fed.Links(0)) {
		t.Fatalf("links differ:\nwant %+v\ngot  %+v", ref.Links(0), fed.Links(0))
	}
	if !reflect.DeepEqual(ref.Recent(0), fed.Recent(0)) {
		t.Fatalf("recent differs: want %d records, got %d", len(ref.Recent(0)), len(fed.Recent(0)))
	}
	if ref.Stats() != fed.Stats() {
		t.Fatalf("stats differ: want %+v, got %+v", ref.Stats(), fed.Stats())
	}
	if ref.MaxTS() != fed.MaxTS() {
		t.Fatalf("maxTS differs: want %v, got %v", ref.MaxTS(), fed.MaxTS())
	}

	a, b := ref.TSDB(), fed.DB()
	if got := memberPoints(fed); a.PointCount() != got {
		t.Fatalf("point count differs: want %d, got %d", a.PointCount(), got)
	}
	if got := memberMetricNames(fed); !reflect.DeepEqual(a.MetricNames(), got) {
		t.Fatalf("metric names differ: %v vs %v", a.MetricNames(), got)
	}
	for _, name := range a.MetricNames() {
		ra, rb := a.Query(name, nil, 0, math.MaxFloat64), b.Query(name, nil, 0, math.MaxFloat64)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("query %s differs:\nwant %+v\ngot  %+v", name, ra, rb)
		}
		for _, agg := range []tsdb.Agg{tsdb.AggAvg, tsdb.AggSum, tsdb.AggCount, tsdb.AggMin, tsdb.AggMax} {
			qa := a.QueryRange(name, nil, 0, math.MaxFloat64, 500, agg)
			qb := b.QueryRange(name, nil, 0, math.MaxFloat64, 500, agg)
			if !reflect.DeepEqual(qa, qb) {
				t.Fatalf("query_range %s agg=%v differs:\nwant %+v\ngot  %+v", name, agg, qa, qb)
			}
			va := a.AggregateRange(name, nil, 0, math.MaxFloat64, agg)
			vb := b.AggregateRange(name, nil, 0, math.MaxFloat64, agg)
			if va != vb && !(math.IsNaN(va) && math.IsNaN(vb)) {
				t.Fatalf("aggregate %s agg=%v differs: want %v, got %v", name, agg, va, vb)
			}
		}
	}

	// Per-series paths on one concrete node.
	labels := tsdb.Labels{"node": wire.NodeID(1).String()}
	for _, name := range a.MetricNames() {
		pa, oka := a.Latest(name, labels)
		pb, okb := b.Latest(name, labels)
		if oka != okb || pa != pb {
			t.Fatalf("latest %s differs: (%v,%v) vs (%v,%v)", name, pa, oka, pb, okb)
		}
		ita, oka := a.IterOne(name, labels, 0, math.MaxFloat64)
		itb, okb := b.IterOne(name, labels, 0, math.MaxFloat64)
		if oka != okb {
			t.Fatalf("iter %s presence differs: %v vs %v", name, oka, okb)
		}
		if !oka {
			continue
		}
		for ita.Next() {
			if !itb.Next() {
				t.Fatalf("iter %s: federated stream shorter", name)
			}
			tsa, va := ita.At()
			tsb, vb := itb.At()
			if tsa != tsb || va != vb {
				t.Fatalf("iter %s: (%v,%v) vs (%v,%v)", name, tsa, va, tsb, vb)
			}
		}
		if itb.Next() {
			t.Fatalf("iter %s: federated stream longer", name)
		}
	}
}

// The analysis library runs on collector.View — it must produce the
// same answers over a federation.
func TestFederateViewDrivesAnalysisUnchanged(t *testing.T) {
	fed, ref := buildFederation(t, []string{"m1", "m2"}, 8, 2)

	wantTopo := analysis.InferTopology(ref, 0, 1)
	gotTopo := analysis.InferTopology(fed, 0, 1)
	if !reflect.DeepEqual(wantTopo, gotTopo) {
		t.Fatalf("topology differs: %+v vs %+v", wantTopo, gotTopo)
	}
	wantPDR, wok := analysis.NetworkPDRFromStats(ref)
	gotPDR, gok := analysis.NetworkPDRFromStats(fed)
	if wok != gok || wantPDR != gotPDR {
		t.Fatalf("pdr differs: (%v,%v) vs (%v,%v)", wantPDR, wok, gotPDR, gok)
	}
	if want, got := analysis.PacketEventsIngested(ref, 0, math.MaxFloat64),
		analysis.PacketEventsIngested(fed, 0, math.MaxFloat64); want != got {
		t.Fatalf("packet events differ: %d vs %d", want, got)
	}
	if want, got := analysis.SilentNodes(ref, ref.MaxTS(), 30),
		analysis.SilentNodes(fed, fed.MaxTS(), 30); !reflect.DeepEqual(want, got) {
		t.Fatalf("silent nodes differ: %v vs %v", want, got)
	}
	for id := wire.NodeID(1); id <= 8; id++ {
		want := analysis.Availability(ref, id, 0, ref.MaxTS(), 60)
		got := analysis.Availability(fed, id, 0, fed.MaxTS(), 60)
		if want != got {
			t.Fatalf("availability(%v) differs: %v vs %v", id, want, got)
		}
	}
}

// A handoff splits one node's history across two members in time. The
// federated merge must still agree with a single collector that saw
// everything — including range buckets straddling the split, which is
// where count-weighted avg recombination earns its keep.
func TestFederateQuerierMergesTimeSplitSeries(t *testing.T) {
	const node = wire.NodeID(5)
	older := collector.New(tsdb.New(), collector.DefaultConfig())
	newer := collector.New(tsdb.New(), collector.DefaultConfig())
	ref := collector.New(tsdb.New(), collector.DefaultConfig())
	for seq := uint64(1); seq <= 8; seq++ {
		b := viewBatch(node, seq)
		dest := older
		if seq > 4 {
			dest = newer
		}
		if err := dest.Ingest(b); err != nil {
			t.Fatal(err)
		}
		if err := ref.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	// Live owner first, legacy (older history) last — the documented
	// member ordering after a handoff.
	fed, err := NewView([]MemberView{
		{Name: "owner", View: newer},
		{Name: "legacy", View: older},
	}, ViewConfig{})
	if err != nil {
		t.Fatal(err)
	}

	a, b := ref.TSDB(), fed.DB()
	for _, name := range a.MetricNames() {
		if !reflect.DeepEqual(a.Query(name, nil, 0, math.MaxFloat64), b.Query(name, nil, 0, math.MaxFloat64)) {
			t.Fatalf("query %s differs across time-split members", name)
		}
		// A step large enough that one bucket spans both members' halves.
		for _, agg := range []tsdb.Agg{tsdb.AggSum, tsdb.AggCount, tsdb.AggMin, tsdb.AggMax, tsdb.AggAvg} {
			qa := a.QueryRange(name, nil, 0, math.MaxFloat64, 10_000, agg)
			qb := b.QueryRange(name, nil, 0, math.MaxFloat64, 10_000, agg)
			if len(qa) != len(qb) {
				t.Fatalf("query_range %s agg=%v: %d vs %d series", name, agg, len(qa), len(qb))
			}
			for i := range qa {
				if qa[i].Labels.String() != qb[i].Labels.String() || len(qa[i].Points) != len(qb[i].Points) {
					t.Fatalf("query_range %s agg=%v series %d shape differs", name, agg, i)
				}
				for j := range qa[i].Points {
					pa, pb := qa[i].Points[j], qb[i].Points[j]
					if pa.TS != pb.TS || math.Abs(pa.Value-pb.Value) > 1e-9 {
						t.Fatalf("query_range %s agg=%v bucket differs: %+v vs %+v", name, agg, pa, pb)
					}
				}
			}
		}
	}
	if got := memberPoints(fed); a.PointCount() != got {
		t.Fatalf("point count differs: %d vs %d", a.PointCount(), got)
	}
}

func TestFederateViewRejectsBadMembership(t *testing.T) {
	if _, err := NewView(nil, ViewConfig{}); err == nil {
		t.Fatal("empty view accepted")
	}
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	if _, err := NewView([]MemberView{{Name: "", View: c}}, ViewConfig{}); err == nil {
		t.Fatal("unnamed member accepted")
	}
	if _, err := NewView([]MemberView{
		{Name: "a", View: c}, {Name: "a", View: c},
	}, ViewConfig{}); err == nil {
		t.Fatal("duplicate member accepted")
	}
	// A member that only reads, with no way to push its epoch advances.
	if _, err := NewView([]MemberView{{Name: "a", View: struct{ collector.View }{c}}}, ViewConfig{}); err == nil {
		t.Fatal("member without Subscribe accepted")
	}
}
