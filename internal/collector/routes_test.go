package collector

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wal"
	"lorameshmon/internal/wire"
)

// refRouteLog is the map-based reference for one node's route state:
// the held table as a map (the last occurrence of a destination wins),
// the uncapped change history newest first, and the mesh_route_changes
// points.
type refRouteLog struct {
	held    bool
	last    wire.RouteSnapshot
	table   map[wire.NodeID]wire.RouteEntry
	history []RouteChange
	points  []tsdb.Point
}

func (r *refRouteLog) apply(s wire.RouteSnapshot) {
	if r.held && !(s.TS >= r.last.TS) {
		return
	}
	next := make(map[wire.NodeID]wire.RouteEntry, len(s.Routes))
	for _, e := range s.Routes {
		next[e.Dst] = e
	}
	var changes []RouteChange
	if r.held {
		var dsts []wire.NodeID
		for d := range r.table {
			dsts = append(dsts, d)
		}
		for d := range next {
			if _, ok := r.table[d]; !ok {
				dsts = append(dsts, d)
			}
		}
		slices.Sort(dsts)
		for _, d := range dsts {
			o, had := r.table[d]
			n, has := next[d]
			switch {
			case !has:
				changes = append(changes, RouteChange{TS: s.TS, Dst: d, OldNextHop: o.NextHop, OldMetric: o.Metric})
			case !had:
				changes = append(changes, RouteChange{TS: s.TS, Dst: d, NewNextHop: n.NextHop, NewMetric: n.Metric})
			case o.NextHop != n.NextHop || o.Metric != n.Metric:
				changes = append(changes, RouteChange{TS: s.TS, Dst: d,
					OldNextHop: o.NextHop, NewNextHop: n.NextHop, OldMetric: o.Metric, NewMetric: n.Metric})
			}
		}
	}
	r.history = append(changes, r.history...)
	r.points = append(r.points, tsdb.Point{TS: s.TS, Value: float64(len(changes))})
	r.held, r.last, r.table = true, s, next
}

// capped is the history the collector keeps.
func (r *refRouteLog) capped() []RouteChange {
	return r.history[:min(len(r.history), routeHistoryLen)]
}

// randomRoutes draws a node's next table from its current one: routes
// dropped, moved to another next hop or metric, or added, ages and SNRs
// always redrawn. Some tables come out nil or empty, some churn past the
// history bound at once, and some are shuffled or repeat destinations
// (the last occurrence carrying the table's value).
func randomRoutes(rng *rand.Rand, cur map[wire.NodeID]wire.RouteEntry) []wire.RouteEntry {
	var out []wire.RouteEntry
	switch r := rng.Intn(14); {
	case r == 0:
		return nil
	case r == 1:
		return []wire.RouteEntry{}
	case r == 2:
		for d := 1; d <= routeHistoryLen+8; d++ {
			out = append(out, wire.RouteEntry{Dst: wire.NodeID(d), NextHop: wire.NodeID(1 + rng.Intn(5)),
				Metric: uint8(1 + rng.Intn(15))})
		}
	default:
		dsts := make([]wire.NodeID, 0, len(cur))
		for d := range cur {
			dsts = append(dsts, d)
		}
		slices.Sort(dsts) // map order would make the seeds irreproducible
		for _, d := range dsts {
			e := cur[d]
			switch p := rng.Intn(20); {
			case p < 3:
				continue
			case p < 6:
				e.NextHop = wire.NodeID(1 + rng.Intn(5))
			case p < 8:
				e.Metric = uint8(1 + rng.Intn(15))
			}
			out = append(out, e)
		}
		for k := rng.Intn(3); k > 0; k-- {
			out = append(out, wire.RouteEntry{Dst: wire.NodeID(1 + rng.Intn(24)),
				NextHop: wire.NodeID(1 + rng.Intn(5)), Metric: uint8(1 + rng.Intn(15))})
		}
	}
	for i := range out {
		out[i].AgeS, out[i].SNRdB = 600*rng.Float64(), -10+20*rng.Float64()
	}
	if rng.Intn(3) > 0 {
		slices.SortStableFunc(out, func(a, b wire.RouteEntry) int { return int(a.Dst) - int(b.Dst) })
		out = slices.CompactFunc(out, func(a, b wire.RouteEntry) bool { return a.Dst == b.Dst })
	} else {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	if len(out) > 0 && rng.Intn(4) == 0 {
		// A repeated destination; the copy that comes last wins.
		e := out[rng.Intn(len(out))]
		e.NextHop, e.Metric = wire.NodeID(1+rng.Intn(5)), uint8(1+rng.Intn(15))
		out = slices.Insert(out, rng.Intn(len(out)+1), e)
	}
	return out
}

// routeFleet drives a fleet of nodes with random route snapshots, one
// to three per batch, at timestamps that advance, repeat or go back.
// With norm set, each batch passes through it before the reference
// sees it.
type routeFleet struct {
	rng  *rand.Rand
	seq  map[wire.NodeID]uint64
	ts   map[wire.NodeID]float64
	refs map[wire.NodeID]*refRouteLog
	norm func(wire.Batch) wire.Batch
}

func newRouteFleet(seed int64) *routeFleet {
	return &routeFleet{rng: rand.New(rand.NewSource(seed)), seq: map[wire.NodeID]uint64{},
		ts: map[wire.NodeID]float64{}, refs: map[wire.NodeID]*refRouteLog{}}
}

func (f *routeFleet) batch(nodes int) wire.Batch {
	node := wire.NodeID(1 + f.rng.Intn(nodes))
	ref := f.refs[node]
	if ref == nil {
		ref = &refRouteLog{}
		f.refs[node] = ref
	}
	f.seq[node]++
	b := wire.Batch{Node: node, SeqNo: f.seq[node]}
	for k := 1 + f.rng.Intn(3); k > 0; k-- {
		switch p := f.rng.Intn(8); {
		case p == 0: // older than the node's newest: ignored
			f.ts[node] -= float64(1 + f.rng.Intn(100))
		case p == 1: // equal: diffed
		default:
			f.ts[node] += float64(1 + f.rng.Intn(200))
		}
		ts := max(f.ts[node], 0)
		b.Routes = append(b.Routes, wire.RouteSnapshot{TS: ts, Node: node, Routes: randomRoutes(f.rng, ref.table)})
		b.SentAt = max(b.SentAt, ts)
	}
	if f.norm != nil {
		b = f.norm(b)
	}
	for _, s := range b.Routes {
		ref.apply(s)
	}
	return b
}

// checkRouteState compares a node's route state in c with its
// reference: the history, the snapshot held exactly as sent, and the
// canonical table, which aliases the snapshot when that is already
// sorted and unique.
func checkRouteState(t *testing.T, c *Collector, id wire.NodeID, ref *refRouteLog, where string) {
	t.Helper()
	n, ok := c.Node(id)
	if !ok {
		t.Fatalf("%s: node %v unknown", where, id)
	}
	if want := ref.capped(); len(n.RouteHistory) != len(want) || len(want) > 0 && !reflect.DeepEqual(n.RouteHistory, want) {
		t.Fatalf("%s: node %v history\n got %+v\nwant %+v", where, id, n.RouteHistory, want)
	}
	if n.LastRoutes == nil || !reflect.DeepEqual(*n.LastRoutes, ref.last) {
		t.Fatalf("%s: node %v LastRoutes %+v, want %+v", where, id, n.LastRoutes, ref.last)
	}
	s := c.shardFor(id)
	s.mu.RLock()
	table := s.nodes[id].table
	s.mu.RUnlock()
	want := make([]wire.RouteEntry, 0, len(ref.table))
	for _, e := range ref.table {
		want = append(want, e)
	}
	slices.SortFunc(want, func(a, b wire.RouteEntry) int { return int(a.Dst) - int(b.Dst) })
	if len(table) != len(want) || len(want) > 0 && !reflect.DeepEqual(table, want) {
		t.Fatalf("%s: node %v table\n got %+v\nwant %+v", where, id, table, want)
	}
	sent := n.LastRoutes.Routes
	sortedUnique := slices.IsSortedFunc(sent, func(a, b wire.RouteEntry) int { return int(a.Dst) - int(b.Dst) }) &&
		len(slices.CompactFunc(slices.Clone(sent), func(a, b wire.RouteEntry) bool { return a.Dst == b.Dst })) == len(sent)
	if len(sent) > 0 && sortedUnique != (&table[0] == &sent[0]) {
		t.Fatalf("%s: node %v table aliases the snapshot: %v, sorted and unique: %v", where, id, !sortedUnique, sortedUnique)
	}
}

// checkRouteSeries compares every node's mesh_route_changes points.
func checkRouteSeries(t *testing.T, db *tsdb.DB, refs map[wire.NodeID]*refRouteLog, where string) {
	t.Helper()
	for id, ref := range refs {
		res, _ := db.QueryOne("mesh_route_changes", tsdb.Labels{"node": id.String()}, 0, 1e18)
		if !reflect.DeepEqual(res.Points, ref.points) {
			t.Fatalf("%s: node %v mesh_route_changes\n got %v\nwant %v", where, id, res.Points, ref.points)
		}
	}
}

// TestRouteChangesMatchReference: along seeded streams of route
// snapshots — unsorted, with repeated destinations, older and equal
// timestamps, nil and empty tables, whole-table churn past the history
// bound — every node's history, held snapshot, canonical table and
// mesh_route_changes series equal the map-based reference's, at one and
// at three shards.
func TestRouteChangesMatchReference(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for seed := int64(1); seed <= 12; seed++ {
			cfg := DefaultConfig()
			cfg.Shards = shards
			c := New(tsdb.New(), cfg)
			f := newRouteFleet(seed)
			for step := 0; step < 300; step++ {
				b := f.batch(5)
				if err := c.Ingest(b); err != nil {
					t.Fatal(err)
				}
				checkRouteState(t, c, b.Node, f.refs[b.Node], fmt.Sprintf("shards=%d seed %d step %d", shards, seed, step))
			}
			checkRouteSeries(t, c.TSDB(), f.refs, fmt.Sprintf("shards=%d seed %d", shards, seed))
		}
	}
}

// TestRouteHistoryFoldAndPush: a snapshot's changes go ahead of the
// history and the bound drops the oldest; two histories fold newest
// first with the first one's entries ahead on equal timestamps; neither
// ever writes its inputs.
func TestRouteHistoryFoldAndPush(t *testing.T) {
	ch := func(ts float64, dst wire.NodeID) RouteChange { return RouteChange{TS: ts, Dst: dst, NewMetric: 1} }
	var hist []RouteChange
	for i := 0; i < routeHistoryLen; i++ {
		hist = append(hist, ch(float64(100-i), wire.NodeID(i)))
	}
	frozen := slices.Clone(hist)
	got := pushRouteHistory(hist, []RouteChange{ch(200, 1), ch(200, 2)})
	want := append([]RouteChange{ch(200, 1), ch(200, 2)}, frozen[:routeHistoryLen-2]...)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(hist, frozen) {
		t.Fatalf("push: got %+v, input now %+v", got, hist)
	}
	if got := pushRouteHistory(hist, nil); &got[0] != &hist[0] {
		t.Fatal("push of no changes copied the history")
	}

	a := NodeInfo{ID: 1, RouteHistory: []RouteChange{ch(30, 1), ch(20, 2), ch(20, 3)}}
	b := NodeInfo{ID: 1, RouteHistory: []RouteChange{ch(25, 4), ch(20, 5), ch(10, 6)}}
	frozenA := slices.Clone(a.RouteHistory)
	heldA := a.RouteHistory
	foldNodeInfo(&a, &b)
	want = []RouteChange{ch(30, 1), ch(25, 4), ch(20, 2), ch(20, 3), ch(20, 5), ch(10, 6)}
	if !reflect.DeepEqual(a.RouteHistory, want) || !reflect.DeepEqual(heldA, frozenA) {
		t.Fatalf("fold: got %+v, a's old history now %+v", a.RouteHistory, heldA)
	}
	long := NodeInfo{ID: 1, RouteHistory: hist}
	foldNodeInfo(&long, &NodeInfo{ID: 1, RouteHistory: []RouteChange{ch(100, 99)}})
	want = append([]RouteChange{frozen[0], ch(100, 99)}, frozen[1:routeHistoryLen-1]...)
	if !reflect.DeepEqual(long.RouteHistory, want) {
		t.Fatalf("capped fold: got %+v\nwant %+v", long.RouteHistory, want)
	}
}

// binaryNormalised passes b through the binary codec, as a write-ahead
// log does, so route ages carry the codec's precision and an empty
// table its nil on both sides of a recovery.
func binaryNormalised(b wire.Batch) wire.Batch {
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

// TestRouteHistoryRecovery: route state survives a checkpoint plus WAL
// replay into 1, 4 and 7 shards — the history and mesh_route_changes
// equal the crashed collector's, and snapshots ingested after recovery
// diff against the restored tables exactly as they would have before.
// One node's only checkpointed snapshot is an empty table at time 0.
func TestRouteHistoryRecovery(t *testing.T) {
	for _, shards := range []int{1, 4, 7} {
		dir := t.TempDir()
		wlog, err := wal.Open(dir, wal.Options{Sync: wal.SyncEveryBatch})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Shards, cfg.WAL = 2, wlog
		orig := New(tsdb.New(), cfg)
		f := newRouteFleet(int64(40 + shards))
		f.norm = binaryNormalised
		feed := func(steps int, into ...*Collector) {
			for i := 0; i < steps; i++ {
				b := f.batch(6)
				for _, c := range into {
					if err := c.Ingest(b); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := orig.Ingest(wire.Batch{Node: 9, SeqNo: 1, Routes: []wire.RouteSnapshot{{Node: 9}}}); err != nil {
			t.Fatal(err)
		}
		feed(150, orig)
		if err := orig.Checkpoint(wlog); err != nil {
			t.Fatal(err)
		}
		feed(80, orig)
		if err := wlog.Crash(); err != nil {
			t.Fatal(err)
		}
		reopened, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rcfg := DefaultConfig()
		rcfg.Shards = shards
		rec := New(tsdb.New(), rcfg)
		if _, err := rec.Recover(reopened); err != nil {
			t.Fatal(err)
		}
		reopened.Close()
		assertCollectorsEqual(t, orig, rec)

		orig.cfg.WAL = nil
		feed(80, orig, rec)
		late := wire.Batch{Node: 9, SeqNo: 2, SentAt: 1, Routes: []wire.RouteSnapshot{{TS: 1, Node: 9,
			Routes: []wire.RouteEntry{{Dst: 1, NextHop: 1, Metric: 1}}}}}
		for _, c := range []*Collector{orig, rec} {
			if err := c.Ingest(late); err != nil {
				t.Fatal(err)
			}
		}
		assertCollectorsEqual(t, orig, rec)
		for id, ref := range f.refs {
			checkRouteState(t, rec, id, ref, fmt.Sprintf("shards=%d recovered", shards))
		}
		checkRouteSeries(t, rec.TSDB(), f.refs, fmt.Sprintf("shards=%d recovered", shards))
		if n, _ := rec.Node(9); len(n.RouteHistory) != 1 || n.RouteHistory[0].NewNextHop != 1 {
			t.Fatalf("shards=%d: node 9 history after its empty baseline %+v", shards, n.RouteHistory)
		}
	}
}

// FuzzRouteDiff: any sequence of snapshots — entry lists in any order,
// with any repeats, at timestamps that move either way — leaves the
// collector's route state and mesh_route_changes series equal to the
// map-based reference. Each snapshot is a header byte (a signed
// timestamp step; the low bit picks a nil or an empty table when there
// are no entries), a count byte and three bytes per entry.
func FuzzRouteDiff(f *testing.F) {
	f.Add([]byte{0, 2, 1, 1, 1, 2, 2, 2, 10, 2, 2, 1, 1, 1, 3, 3})
	f.Add([]byte{5, 3, 3, 1, 1, 1, 2, 2, 3, 9, 9, 0xF0, 1, 3, 3, 3, 0, 0, 1, 0})
	f.Add([]byte{1, 40, 0, 0, 0, 0, 1, 1, 0, 2, 2, 7, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(tsdb.New(), Config{Shards: 1})
		ref := &refRouteLog{}
		ts := 1000.0
		for seq := uint64(1); len(data) >= 2; seq++ {
			h, n := data[0], int(data[1])%48
			data = data[2:]
			ts = max(ts+float64(int8(h)), 0)
			s := wire.RouteSnapshot{TS: ts, Node: 1}
			if n == 0 && h&1 == 0 {
				s.Routes = []wire.RouteEntry{}
			}
			for ; n > 0 && len(data) >= 3; n-- {
				s.Routes = append(s.Routes, wire.RouteEntry{Dst: wire.NodeID(data[0] % 40),
					NextHop: wire.NodeID(data[1]), Metric: 1 + data[2]%15, AgeS: float64(data[2])})
				data = data[3:]
			}
			if err := c.Ingest(wire.Batch{Node: 1, SeqNo: seq, SentAt: ts, Routes: []wire.RouteSnapshot{s}}); err != nil {
				t.Fatal(err)
			}
			ref.apply(s)
			checkRouteState(t, c, 1, ref, fmt.Sprintf("snapshot %d", seq))
		}
		if ref.held {
			checkRouteSeries(t, c.TSDB(), map[wire.NodeID]*refRouteLog{1: ref}, "end")
		}
	})
}

// TestRouteHistoryConcurrentReads: readers walk every node's history
// through Nodes and Node while writers ingest route changes on several
// shards. Histories are replaced, never written in place, so under
// -race no read of an entry races a write, and every history a reader
// sees is bounded and newest first.
func TestRouteHistoryConcurrentReads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	c := New(tsdb.New(), cfg)
	const writers, batches = 4, 150
	var writing, reading sync.WaitGroup
	done := make(chan struct{})
	check := func(n NodeInfo) error {
		if len(n.RouteHistory) > routeHistoryLen {
			return fmt.Errorf("node %v history of %d", n.ID, len(n.RouteHistory))
		}
		for i := 1; i < len(n.RouteHistory); i++ {
			if n.RouteHistory[i].TS > n.RouteHistory[i-1].TS {
				return fmt.Errorf("node %v history not newest first: %+v", n.ID, n.RouteHistory)
			}
		}
		return nil
	}
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, n := range c.Nodes() {
					if err := check(n); err != nil {
						t.Error(err)
						return
					}
				}
				if n, ok := c.Node(1); ok {
					if err := check(n); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(node wire.NodeID) {
			defer writing.Done()
			for seq := uint64(1); seq <= batches; seq++ {
				if err := c.Ingest(trafficBatch(node, seq)); err != nil {
					t.Error(err)
					return
				}
			}
		}(wire.NodeID(w + 1))
	}
	writing.Wait()
	close(done)
	reading.Wait()
	for id := wire.NodeID(1); id <= writers; id++ {
		if n, _ := c.Node(id); len(n.RouteHistory) != routeHistoryLen {
			t.Fatalf("node %v holds %d changes after %d churning snapshots", id, len(n.RouteHistory), batches)
		}
	}
}
