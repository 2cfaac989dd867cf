package federate

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// mergeFixture builds a seeded federation of n members over a 12-node
// fleet plus node 13. Nodes partition by ID across the members, except
// that with two or more members every third node and node 13 are handed
// off mid-stream: their batches up to a cut step land on the last
// member (the legacy) and the rest on their owner, so their registry
// entries, links and series are time-split across two members — at a
// cut inside one timestamp, so equal timestamps straddle the split.
// Every tenth HELLO reports NaN RSSI/SNR; every fourth batch, and each
// of node 13's, carries a route snapshot. Members are listed live
// owners first, legacy last.
func mergeFixture(t *testing.T, n int, seed int64) (*View, []*collector.Collector) {
	t.Helper()
	cfg := collector.DefaultConfig()
	cfg.RecentPackets = 64
	cfg.Shards = 2
	members := make([]*collector.Collector, n)
	mvs := make([]MemberView, n)
	for i := range members {
		members[i] = collector.New(tsdb.New(), cfg)
		mvs[i] = MemberView{Name: fmt.Sprintf("m%d", i), View: members[i]}
	}
	const nodes, steps, cut = 12, 300, 150
	rng := rand.New(rand.NewSource(seed))
	seq := make(map[wire.NodeID]uint64)
	for step := 1; step <= steps; step++ {
		node := wire.NodeID(1 + rng.Intn(nodes))
		if step == cut || step == cut+1 {
			// Node 13 uploads only across the cut, one batch per side at
			// one timestamp: every fold it takes part in is an exact tie.
			node = 13
		}
		seq[node]++
		ts := float64(step / 2)
		if step%10 == 3 && step > 50 {
			ts -= 20 // a late upload: member Recent runs leave timestamp order
		}
		b := wire.Batch{Node: node, SeqNo: seq[node], SentAt: ts}
		for k := rng.Intn(4); k > 0; k-- {
			p := wire.PacketRecord{TS: ts, Node: node, Event: wire.EventRx, Type: "HELLO",
				Src: wire.NodeID(1 + rng.Intn(nodes)), Dst: wire.BroadcastID, Via: wire.BroadcastID,
				Seq: uint16(step), TTL: 1, Size: 23, ForUs: true,
				RSSIdBm: -125 + 60*rng.Float64(), SNRdB: -12 + 20*rng.Float64()}
			if rng.Intn(10) == 0 {
				p.RSSIdBm, p.SNRdB = math.NaN(), math.NaN()
			}
			b.Packets = append(b.Packets, p)
		}
		if node == 13 { // the same link heard on both sides of the cut
			b.Packets = append(b.Packets, wire.PacketRecord{TS: ts, Node: node, Event: wire.EventRx, Type: "HELLO",
				Src: 1, Dst: wire.BroadcastID, Via: wire.BroadcastID, Seq: uint16(step), TTL: 1, Size: 23,
				ForUs: true, RSSIdBm: -float64(step) / 2, SNRdB: float64(step) / 30})
		}
		b.Packets = append(b.Packets, wire.PacketRecord{TS: ts, Node: node, Event: wire.EventTx,
			Type: []string{"DATA", "FRAG", "FRAGACK"}[rng.Intn(3)], Src: node, Dst: 1, Via: 1,
			Seq: uint16(step), TTL: 10, Size: 40, AirtimeMS: 20 + 50*rng.Float64()})
		if rng.Intn(3) == 0 {
			b.Stats = []wire.NodeStats{{TS: ts, Node: node, UptimeS: ts,
				DataSent: uint64(rng.Intn(100)), RouteCount: rng.Intn(nodes), DutyCycleUsed: 0.01 * rng.Float64()}}
		}
		b.Heartbeats = []wire.Heartbeat{{TS: ts, Node: node, UptimeS: float64(step), Firmware: fmt.Sprintf("fw%d", step%3)}}
		if step%4 == 0 || node == 13 {
			// A route table that moves with the step, so handed-off
			// nodes hold route history on both sides of the cut. It
			// draws nothing from rng.
			b.Routes = []wire.RouteSnapshot{{TS: ts, Node: node, Routes: []wire.RouteEntry{
				{Dst: 1, NextHop: wire.NodeID(1 + step/4%3), Metric: uint8(1 + step%2), AgeS: 1},
				{Dst: wire.NodeID(2 + step/8%3), NextHop: 1, Metric: 2, AgeS: 1},
			}}}
		}

		dest := int(node) % n
		if n > 1 && (node%3 == 0 || node == 13) {
			dest = int(node) % (n - 1)
			if step <= cut {
				dest = n - 1
			}
		}
		if err := members[dest].Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	v, err := NewView(mvs, ViewConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return v, members
}

// TestFederatedMergeMatchesParent: over seeded federations of 1-4
// members with handoff-style time splits, equal timestamps across
// members, NaN values and series missing on some members, every View
// read and every federated query built on the shared sorted-run merge
// answers exactly what the map-and-sort merge it replaced answered
// (parentView, with its result order keyed on the canonical label
// string): same order, same float bits.
func TestFederatedMergeMatchesParent(t *testing.T) {
	limits := []int{-1, 0, 1, 37, math.MaxInt32}
	aggs := []tsdb.Agg{tsdb.AggSum, tsdb.AggAvg, tsdb.AggMin, tsdb.AggMax, tsdb.AggCount, tsdb.AggLast}
	for n := 1; n <= 4; n++ {
		for seed := int64(1); seed <= 2; seed++ {
			fed, members := mergeFixture(t, n, seed)
			ref := parentView{members: fed.members}
			where := fmt.Sprintf("members=%d seed=%d", n, seed)

			sameGob(t, where+" Nodes", ref.Nodes(), fed.Nodes())
			for id := wire.NodeID(0); id <= 14; id++ {
				want, wok := ref.Node(id)
				got, gok := fed.Node(id)
				if wok != gok {
					t.Fatalf("%s: Node(%v) presence %v vs %v", where, id, gok, wok)
				}
				sameGob(t, fmt.Sprintf("%s Node(%v)", where, id), want, got)
			}
			for _, from := range []float64{-1, 0, 40, 100, 1e9} {
				sameGob(t, fmt.Sprintf("%s Links(%v)", where, from), ref.Links(from), fed.Links(from))
			}
			for _, limit := range limits {
				sameGob(t, fmt.Sprintf("%s Recent(%d)", where, limit), ref.Recent(limit), fed.Recent(limit))
			}

			q, pq := fed.DB(), parentQuerier{ref}
			var names []string
			for _, m := range members {
				names = append(names, m.TSDB().MetricNames()...)
			}
			slices.Sort(names)
			names = slices.Compact(names)
			matchers := []tsdb.Labels{nil, {"node": "N0003"}, {"node": "N000D"}, {"type": "FRAG"}}
			ranges := [][2]float64{{0, math.MaxFloat64}, {20, 75.5}, {75, 75}}
			for _, name := range names {
				for _, m := range matchers {
					for _, r := range ranges {
						at := fmt.Sprintf("%s %s%v [%v,%v]", where, name, m, r[0], r[1])
						sameResults(t, at+" Query", pq.Query(name, m, r[0], r[1]), q.Query(name, m, r[0], r[1]))
						for _, agg := range aggs {
							for _, step := range []float64{-1, 0, 7, 60, 1000} {
								sameResults(t, fmt.Sprintf("%s QueryRange(step=%v,%s)", at, step, agg),
									pq.QueryRange(name, m, r[0], r[1], step, agg), q.QueryRange(name, m, r[0], r[1], step, agg))
							}
							want, got := pq.AggregateRange(name, m, r[0], r[1], agg), q.AggregateRange(name, m, r[0], r[1], agg)
							if math.Float64bits(want) != math.Float64bits(got) {
								t.Fatalf("%s AggregateRange(%s): %v vs %v", at, agg, got, want)
							}
						}
					}
				}
				// Per-series reads, on every series any member holds.
				for _, res := range pq.Query(name, nil, 0, math.MaxFloat64) {
					at := fmt.Sprintf("%s %s%v", where, name, res.Labels)
					for _, r := range ranges {
						want, wok := pq.QueryOne(name, res.Labels, r[0], r[1])
						got, gok := q.QueryOne(name, res.Labels, r[0], r[1])
						if wok != gok {
							t.Fatalf("%s QueryOne presence %v vs %v", at, gok, wok)
						}
						sameResults(t, at+" QueryOne", []tsdb.Result{want}, []tsdb.Result{got})
						wit, wok := pq.IterOne(name, res.Labels, r[0], r[1])
						git, gok := q.IterOne(name, res.Labels, r[0], r[1])
						if wok != gok {
							t.Fatalf("%s IterOne presence %v vs %v", at, gok, wok)
						}
						samePoints(t, at+" IterOne", drain(wit), drain(git))
					}
					want, wok := pq.Latest(name, res.Labels)
					got, gok := q.Latest(name, res.Labels)
					if wok != gok || math.Float64bits(want.TS) != math.Float64bits(got.TS) ||
						math.Float64bits(want.Value) != math.Float64bits(got.Value) {
						t.Fatalf("%s Latest: (%v,%v) vs (%v,%v)", at, got, gok, want, wok)
					}
				}
			}
		}
	}
}

// TestFederatedQueryOrderMatchesDB: a federation of one member lists a
// node's mesh_packets series in the order the member's own store does
// (canonical label string), even where one label value is a prefix of
// another (FRAG, FRAGACK, FRAGREQ).
func TestFederatedQueryOrderMatchesDB(t *testing.T) {
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	b := wire.Batch{Node: 1, SeqNo: 1, SentAt: 10}
	for i, typ := range []string{"FRAGREQ", "FRAG", "FRAGACK"} {
		b.Packets = append(b.Packets, wire.PacketRecord{TS: float64(i), Node: 1, Event: wire.EventTx,
			Type: typ, Src: 1, Dst: 2, Via: 2, Seq: uint16(i), TTL: 5, Size: 30, AirtimeMS: 40})
	}
	if err := c.Ingest(b); err != nil {
		t.Fatal(err)
	}
	fed, err := NewView([]MemberView{{Name: "m1", View: c}}, ViewConfig{})
	if err != nil {
		t.Fatal(err)
	}
	matcher := tsdb.Labels{"node": "N0001"}
	order := func(rs []tsdb.Result) []string {
		var out []string
		for _, r := range rs {
			out = append(out, r.Labels["type"])
		}
		return out
	}
	want := order(c.DB().Query("mesh_packets", matcher, 0, 100))
	if !slices.Equal(want, []string{"FRAG", "FRAGACK", "FRAGREQ"}) {
		t.Fatalf("member order = %v", want)
	}
	if got := order(fed.DB().Query("mesh_packets", matcher, 0, 100)); !slices.Equal(got, want) {
		t.Fatalf("federated Query order = %v, want %v", got, want)
	}
	for _, agg := range []tsdb.Agg{tsdb.AggSum, tsdb.AggAvg, tsdb.AggLast} {
		if got := order(fed.DB().QueryRange("mesh_packets", matcher, 0, 100, 10, agg)); !slices.Equal(got, want) {
			t.Fatalf("federated QueryRange(%s) order = %v, want %v", agg, got, want)
		}
	}
}

// sameGob requires a and b to encode identically: gob writes floats as
// their exact bits (so NaN payloads compare), and these types hold no
// maps, so equal values encode to equal bytes.
func sameGob[T any](t *testing.T, where string, want, got T) {
	t.Helper()
	enc := func(v T) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(struct{ V T }{v}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(enc(want), enc(got)) {
		t.Fatalf("%s differs:\n got %+v\nwant %+v", where, got, want)
	}
}

func sameResults(t *testing.T, where string, want, got []tsdb.Result) {
	t.Helper()
	if len(want) != len(got) || (want == nil) != (got == nil) {
		t.Fatalf("%s: %d results (nil %v), want %d (nil %v)", where, len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if want[i].Labels.String() != got[i].Labels.String() {
			t.Fatalf("%s: result %d is %v, want %v", where, i, got[i].Labels, want[i].Labels)
		}
		if (want[i].Points == nil) != (got[i].Points == nil) {
			t.Fatalf("%s %v: points nil %v, want %v", where, want[i].Labels, got[i].Points == nil, want[i].Points == nil)
		}
		samePoints(t, fmt.Sprintf("%s %v", where, want[i].Labels), want[i].Points, got[i].Points)
	}
}

func samePoints(t *testing.T, where string, want, got []tsdb.Point) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d points, want %d", where, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i].TS) != math.Float64bits(got[i].TS) ||
			math.Float64bits(want[i].Value) != math.Float64bits(got[i].Value) {
			t.Fatalf("%s: point %d is %+v, want %+v", where, i, got[i], want[i])
		}
	}
}

func drain(it tsdb.Iter) []tsdb.Point {
	var out []tsdb.Point
	for it.Next() {
		ts, v := it.At()
		out = append(out, tsdb.Point{TS: ts, Value: v})
	}
	return out
}

// parentView and parentQuerier are the map-and-sort federated merge the
// shared sorted-run merge replaced, kept as the reference. The one
// change: result lists order by the canonical label string *DB sorts
// by, not by Labels.String().
type parentView struct {
	members []MemberView
}

func canonicalKey(l tsdb.Labels) string {
	return strings.TrimSuffix(strings.TrimPrefix(l.String(), "{"), "}")
}

func parentMergeNodeInfo(a, b collector.NodeInfo) collector.NodeInfo {
	out := a
	if b.LastSeenTS > a.LastSeenTS {
		out.LastSeenTS = b.LastSeenTS
	}
	if b.FirstSeenTS < a.FirstSeenTS {
		out.FirstSeenTS = b.FirstSeenTS
	}
	if b.LastBeatTS > a.LastBeatTS {
		out.LastBeatTS = b.LastBeatTS
		out.UptimeS = b.UptimeS
		if b.Firmware != "" {
			out.Firmware = b.Firmware
		}
	}
	out.BatchesOK += b.BatchesOK
	out.BatchesLost += b.BatchesLost
	out.BatchesDup += b.BatchesDup
	out.BatchesLate += b.BatchesLate
	out.Records += b.Records
	if b.LastStats != nil && (out.LastStats == nil || b.LastStats.TS > out.LastStats.TS) {
		out.LastStats = b.LastStats
	}
	if b.LastRoutes != nil && (out.LastRoutes == nil || b.LastRoutes.TS > out.LastRoutes.TS) {
		out.LastRoutes = b.LastRoutes
	}
	// Route histories: newest first, a's entries first among equal
	// timestamps, at most 32.
	if len(b.RouteHistory) > 0 {
		hist := append(slices.Clone(out.RouteHistory), b.RouteHistory...)
		sort.SliceStable(hist, func(i, j int) bool { return hist[i].TS > hist[j].TS })
		out.RouteHistory = hist[:min(len(hist), 32)]
	}
	return out
}

func (v parentView) Nodes() []collector.NodeInfo {
	merged := make(map[wire.NodeID]collector.NodeInfo)
	for _, m := range v.members {
		for _, n := range m.View.Nodes() {
			if have, ok := merged[n.ID]; ok {
				merged[n.ID] = parentMergeNodeInfo(have, n)
			} else {
				merged[n.ID] = n
			}
		}
	}
	out := make([]collector.NodeInfo, 0, len(merged))
	for _, n := range merged {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (v parentView) Node(id wire.NodeID) (collector.NodeInfo, bool) {
	var out collector.NodeInfo
	found := false
	for _, m := range v.members {
		n, ok := m.View.Node(id)
		if !ok {
			continue
		}
		if !found {
			out, found = n, true
		} else {
			out = parentMergeNodeInfo(out, n)
		}
	}
	return out, found
}

func (v parentView) Links(from float64) []collector.LinkObs {
	type key struct{ tx, rx wire.NodeID }
	merged := make(map[key]collector.LinkObs)
	for _, m := range v.members {
		for _, l := range m.View.Links(from) {
			k := key{l.Tx, l.Rx}
			have, ok := merged[k]
			if !ok {
				merged[k] = l
				continue
			}
			total := have.Count + l.Count
			if total > 0 {
				have.MeanRSSI = (have.MeanRSSI*float64(have.Count) + l.MeanRSSI*float64(l.Count)) / float64(total)
				have.MeanSNR = (have.MeanSNR*float64(have.Count) + l.MeanSNR*float64(l.Count)) / float64(total)
			}
			have.Count = total
			if l.FirstTS < have.FirstTS {
				have.FirstTS = l.FirstTS
			}
			if l.LastTS > have.LastTS {
				have.LastTS = l.LastTS
				have.LastRSSI = l.LastRSSI
				have.LastSNR = l.LastSNR
			}
			merged[k] = have
		}
	}
	out := make([]collector.LinkObs, 0, len(merged))
	for _, l := range merged {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tx != out[j].Tx {
			return out[i].Tx < out[j].Tx
		}
		return out[i].Rx < out[j].Rx
	})
	return out
}

func (v parentView) Recent(limit int) []wire.PacketRecord {
	var all []wire.PacketRecord
	for _, m := range v.members {
		all = append(all, m.View.Recent(limit)...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].TS > all[j].TS })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all
}

type parentQuerier struct {
	v parentView
}

func (q parentQuerier) results(run func(tsdb.Querier) []tsdb.Result) [][]tsdb.Result {
	parts := make([][]tsdb.Result, len(q.v.members))
	for i, m := range q.v.members {
		parts[i] = run(m.View.DB())
	}
	return parts
}

func parentMergeResults(parts [][]tsdb.Result, mergePts func(existing, add []tsdb.Point) []tsdb.Point) []tsdb.Result {
	keys := make([]string, 0, 8)
	merged := make(map[string]*tsdb.Result)
	for _, part := range parts {
		for _, r := range part {
			k := canonicalKey(r.Labels)
			have, ok := merged[k]
			if !ok {
				cp := r
				cp.Points = append([]tsdb.Point(nil), r.Points...)
				merged[k] = &cp
				keys = append(keys, k)
				continue
			}
			have.Points = mergePts(have.Points, r.Points)
		}
	}
	sort.Strings(keys)
	out := make([]tsdb.Result, len(keys))
	for i, k := range keys {
		out[i] = *merged[k]
	}
	return out
}

func parentConcatSortPts(existing, add []tsdb.Point) []tsdb.Point {
	out := append(existing, add...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

func (q parentQuerier) Query(name string, matcher tsdb.Labels, from, to float64) []tsdb.Result {
	return parentMergeResults(q.results(func(db tsdb.Querier) []tsdb.Result {
		return db.Query(name, matcher, from, to)
	}), parentConcatSortPts)
}

func (q parentQuerier) QueryOne(name string, labels tsdb.Labels, from, to float64) (tsdb.Result, bool) {
	var out tsdb.Result
	found := false
	for _, m := range q.v.members {
		r, ok := m.View.DB().QueryOne(name, labels, from, to)
		if !ok {
			continue
		}
		if !found {
			out, found = r, true
			out.Points = append([]tsdb.Point(nil), r.Points...)
		} else {
			out.Points = parentConcatSortPts(out.Points, r.Points)
		}
	}
	return out, found
}

func (q parentQuerier) QueryRange(name string, matcher tsdb.Labels, from, to, step float64, agg tsdb.Agg) []tsdb.Result {
	if step <= 0 {
		return q.Query(name, matcher, from, to)
	}
	parts := q.results(func(db tsdb.Querier) []tsdb.Result {
		return db.QueryRange(name, matcher, from, to, step, agg)
	})
	var weights [][]tsdb.Result
	if agg == tsdb.AggAvg {
		weights = q.results(func(db tsdb.Querier) []tsdb.Result {
			return db.QueryRange(name, matcher, from, to, step, tsdb.AggCount)
		})
	}
	countAt := func(labelKey string, ts float64, memberIdx int) float64 {
		if weights == nil || memberIdx >= len(weights) {
			return 1
		}
		for _, r := range weights[memberIdx] {
			if canonicalKey(r.Labels) != labelKey {
				continue
			}
			for _, p := range r.Points {
				if p.TS == ts {
					return p.Value
				}
			}
		}
		return 1
	}
	latestTS := func(labels tsdb.Labels, memberIdx int) float64 {
		if p, ok := q.v.members[memberIdx].View.DB().Latest(name, labels); ok {
			return p.TS
		}
		return math.Inf(-1)
	}

	type cell struct {
		value  float64
		weight float64
		member int
	}
	keys := make([]string, 0, 8)
	merged := make(map[string]*tsdb.Result)
	cells := make(map[string]map[float64]cell)
	for mi, part := range parts {
		for _, r := range part {
			k := canonicalKey(r.Labels)
			if _, ok := merged[k]; !ok {
				merged[k] = &tsdb.Result{Labels: r.Labels}
				cells[k] = make(map[float64]cell)
				keys = append(keys, k)
			}
			byTS := cells[k]
			for _, p := range r.Points {
				have, dup := byTS[p.TS]
				if !dup {
					byTS[p.TS] = cell{value: p.Value, weight: countAt(k, p.TS, mi), member: mi}
					continue
				}
				switch agg {
				case tsdb.AggSum, tsdb.AggCount:
					have.value += p.Value
				case tsdb.AggMin:
					if p.Value < have.value {
						have.value = p.Value
					}
				case tsdb.AggMax:
					if p.Value > have.value {
						have.value = p.Value
					}
				case tsdb.AggAvg:
					wb := countAt(k, p.TS, mi)
					if have.weight+wb > 0 {
						have.value = (have.value*have.weight + p.Value*wb) / (have.weight + wb)
						have.weight += wb
					}
				case tsdb.AggLast:
					if latestTS(merged[k].Labels, mi) > latestTS(merged[k].Labels, have.member) {
						have.value, have.member = p.Value, mi
					}
				}
				byTS[p.TS] = have
			}
		}
	}
	sort.Strings(keys)
	out := make([]tsdb.Result, len(keys))
	for i, k := range keys {
		r := *merged[k]
		tss := make([]float64, 0, len(cells[k]))
		for ts := range cells[k] {
			tss = append(tss, ts)
		}
		sort.Float64s(tss)
		r.Points = make([]tsdb.Point, len(tss))
		for j, ts := range tss {
			r.Points[j] = tsdb.Point{TS: ts, Value: cells[k][ts].value}
		}
		out[i] = r
	}
	return out
}

func (q parentQuerier) aggs(name string, matcher tsdb.Labels, from, to float64, agg tsdb.Agg) []float64 {
	parts := make([]float64, len(q.v.members))
	for i, m := range q.v.members {
		parts[i] = m.View.DB().AggregateRange(name, matcher, from, to, agg)
	}
	return parts
}

func (q parentQuerier) AggregateRange(name string, matcher tsdb.Labels, from, to float64, agg tsdb.Agg) float64 {
	switch agg {
	case tsdb.AggCount, tsdb.AggSum:
		sum, any := 0.0, false
		for _, v := range q.aggs(name, matcher, from, to, agg) {
			if math.IsNaN(v) {
				continue
			}
			sum, any = sum+v, true
		}
		if !any && agg == tsdb.AggSum {
			return math.NaN()
		}
		return sum
	case tsdb.AggMin, tsdb.AggMax:
		out, any := 0.0, false
		for _, v := range q.aggs(name, matcher, from, to, agg) {
			if math.IsNaN(v) {
				continue
			}
			if !any || (agg == tsdb.AggMin && v < out) || (agg == tsdb.AggMax && v > out) {
				out, any = v, true
			}
		}
		if !any {
			return math.NaN()
		}
		return out
	case tsdb.AggAvg:
		sum := q.AggregateRange(name, matcher, from, to, tsdb.AggSum)
		count := q.AggregateRange(name, matcher, from, to, tsdb.AggCount)
		if count == 0 || math.IsNaN(sum) {
			return math.NaN()
		}
		return sum / count
	default:
		last, lastTS, any := 0.0, math.Inf(-1), false
		for _, r := range q.Query(name, matcher, from, to) {
			for _, p := range r.Points {
				if p.TS >= lastTS {
					last, lastTS, any = p.Value, p.TS, true
				}
			}
		}
		if !any {
			return math.NaN()
		}
		return last
	}
}

func (q parentQuerier) IterOne(name string, labels tsdb.Labels, from, to float64) (tsdb.Iter, bool) {
	var pts []tsdb.Point
	found := false
	for _, m := range q.v.members {
		it, ok := m.View.DB().IterOne(name, labels, from, to)
		if !ok {
			continue
		}
		found = true
		for it.Next() {
			ts, val := it.At()
			pts = append(pts, tsdb.Point{TS: ts, Value: val})
		}
	}
	if !found {
		return tsdb.Iter{}, false
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].TS < pts[j].TS })
	return tsdb.PointsIter(pts), true
}

func (q parentQuerier) Latest(name string, labels tsdb.Labels) (tsdb.Point, bool) {
	var out tsdb.Point
	found := false
	for _, m := range q.v.members {
		p, ok := m.View.DB().Latest(name, labels)
		if ok && (!found || p.TS > out.TS) {
			out, found = p, true
		}
	}
	return out, found
}
