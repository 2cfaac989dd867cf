package federate

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/metrics"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// MemberView pairs a member's ring identity with its read side. The
// View fans every read out to all members concurrently and merges.
type MemberView struct {
	Name string
	View collector.View
}

// ViewConfig tunes the federated view.
type ViewConfig struct {
	// Metrics, when non-nil, receives the fan-out duration histogram.
	Metrics *metrics.Registry
}

// View implements collector.View over a set of member collectors: every
// read fans out to all members concurrently and merges with the same
// deterministic ordering the single-process collector guarantees
// (Nodes by ID, Links by (tx, rx), Recent newest-first, query results
// by canonical label string), so the dashboard, the alert engine and
// all analysis functions run unchanged on a federation.
//
// Merge semantics assume members hold *disjoint* samples — the
// steady-state guarantee of ring partitioning, preserved across
// membership changes by Handoff's time-split (the legacy snapshot holds
// history up to the checkpoint cut, the new owner everything after).
// Where state can legitimately appear on two members (a node's registry
// entry, a link), counters are summed and descriptive fields taken from
// the member with the newest data; member list order breaks exact ties,
// so put live owners first and handoff legacies last.
type View struct {
	members []MemberView
	fanout  *metrics.HistogramVec // op
	reg     *metrics.Registry
	obs     map[string]*metrics.Histogram

	// watch is the federated change notifier: one persistent goroutine
	// per member (started lazily on the first Changed call) waits on
	// that member's Changed channel and rolls the view's own broadcast
	// channel forward, so a dashboard's SSE hub sees one channel no
	// matter how many collectors back the view.
	watchOnce sync.Once
	watchMu   sync.Mutex
	watchCh   chan struct{}

	// distinct caches the federation's distinct node and link counts
	// (see distinctCounts), keyed per member by the set sizes and
	// restore count they were materialised at.
	distinctMu    sync.Mutex
	distinctKeys  []setsKey
	distinctNodes int
	distinctLinks int
}

// setsKey identifies a member's node and link sets: both only grow
// between restores, so an equal key means identical sets.
type setsKey struct {
	restores     uint64
	nodes, links int
}

var _ collector.View = (*View)(nil)

// NewView builds a federated view over the members.
func NewView(members []MemberView, cfg ViewConfig) (*View, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("federate: view needs at least one member")
	}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m.Name == "" || m.View == nil {
			return nil, fmt.Errorf("federate: member needs both name and view (got %q)", m.Name)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("federate: duplicate view member %q", m.Name)
		}
		seen[m.Name] = true
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	v := &View{
		members: append([]MemberView(nil), members...),
		fanout: reg.NewHistogramVec("meshmon_federate_fanout_seconds",
			"Wall-clock duration of one fanned-out federated read, by operation.", nil, "op"),
		reg: reg,
		obs: make(map[string]*metrics.Histogram),
	}
	for _, op := range []string{"nodes", "node", "links", "recent", "stats",
		"distinct", "maxts", "epoch", "restores", "query", "query_range", "aggregate", "iter", "latest"} {
		v.obs[op] = v.fanout.With(op)
	}
	return v, nil
}

// Metrics returns the view's own registry (fan-out instrumentation).
// Member registries stay separate — each member exposes its own.
func (v *View) Metrics() *metrics.Registry { return v.reg }

// fan runs fn once per member concurrently and returns when all are
// done. Results land in index-ordered slots, so merges iterate members
// in configured order regardless of response timing — determinism does
// not depend on scheduling.
func (v *View) fan(op string, fn func(i int, m MemberView)) {
	start := time.Now()
	var wg sync.WaitGroup
	for i := range v.members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i, v.members[i])
		}(i)
	}
	wg.Wait()
	v.obs[op].Observe(time.Since(start).Seconds())
}

// mergeNodeInfo folds b into a: counters sum (members hold disjoint
// batches), first-seen takes the earliest, and descriptive last-*
// fields follow the newest timestamp, with a (the earlier member)
// winning exact ties.
func mergeNodeInfo(a, b collector.NodeInfo) collector.NodeInfo {
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
	return out
}

// Nodes returns the merged registry, sorted by node ID.
func (v *View) Nodes() []collector.NodeInfo {
	parts := make([][]collector.NodeInfo, len(v.members))
	v.fan("nodes", func(i int, m MemberView) { parts[i] = m.View.Nodes() })
	merged := make(map[wire.NodeID]collector.NodeInfo)
	for _, part := range parts {
		for _, n := range part {
			if have, ok := merged[n.ID]; ok {
				merged[n.ID] = mergeNodeInfo(have, n)
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

// Node returns the merged registry entry for one node.
func (v *View) Node(id wire.NodeID) (collector.NodeInfo, bool) {
	infos := make([]*collector.NodeInfo, len(v.members))
	v.fan("node", func(i int, m MemberView) {
		if n, ok := m.View.Node(id); ok {
			infos[i] = &n
		}
	})
	var out collector.NodeInfo
	found := false
	for _, n := range infos {
		if n == nil {
			continue
		}
		if !found {
			out, found = *n, true
		} else {
			out = mergeNodeInfo(out, *n)
		}
	}
	return out, found
}

// Links returns the merged link observations, sorted by (tx, rx).
// Duplicate links (possible across a handoff) merge exactly: counts
// add, means recombine count-weighted, last-heard follows the newest
// timestamp.
func (v *View) Links(from float64) []collector.LinkObs {
	parts := make([][]collector.LinkObs, len(v.members))
	v.fan("links", func(i int, m MemberView) { parts[i] = m.View.Links(from) })
	type key struct{ tx, rx wire.NodeID }
	merged := make(map[key]collector.LinkObs)
	for _, part := range parts {
		for _, l := range part {
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

// Recent merges the members' newest packet records, newest first.
// Cross-member order is by record timestamp (there is no global
// sequence across processes); ties keep member order, so the merge is
// deterministic.
func (v *View) Recent(limit int) []wire.PacketRecord {
	parts := make([][]wire.PacketRecord, len(v.members))
	v.fan("recent", func(i int, m MemberView) { parts[i] = m.View.Recent(limit) })
	var all []wire.PacketRecord
	for _, part := range parts {
		all = append(all, part...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].TS > all[j].TS })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all
}

// Stats sums the members' counters; NodesKnown and LinksKnown count
// distinct node IDs and (tx, rx) links across the federation (a node
// handed off appears on two members but is still one node). In steady
// state this fans out only Stats and Restores: member sets are
// materialised only when some member's key has moved.
func (v *View) Stats() collector.Stats {
	parts := make([]collector.Stats, len(v.members))
	keys := make([]setsKey, len(v.members))
	v.fan("stats", func(i int, m MemberView) {
		parts[i] = m.View.Stats()
		// Restores after Stats: a restore that lands between the two
		// reads shows up as a moved key rather than a stale match.
		keys[i] = setsKey{m.View.Restores(), parts[i].NodesKnown, parts[i].LinksKnown}
	})
	var out collector.Stats
	for _, p := range parts {
		out.BatchesIngested += p.BatchesIngested
		out.BatchesRejected += p.BatchesRejected
		out.RecordsIngested += p.RecordsIngested
	}
	out.NodesKnown, out.LinksKnown = v.distinctCounts(keys)
	return out
}

// distinctCounts returns the federation's distinct node and link
// counts, answering from the cache while every member's key equals the
// one its sets were last materialised at, and otherwise fanning Nodes
// and Links out once to rebuild it.
func (v *View) distinctCounts(keys []setsKey) (nodes, links int) {
	v.distinctMu.Lock()
	if slices.Equal(keys, v.distinctKeys) {
		defer v.distinctMu.Unlock()
		return v.distinctNodes, v.distinctLinks
	}
	v.distinctMu.Unlock()

	fresh := make([]setsKey, len(v.members))
	nodeSets := make([][]collector.NodeInfo, len(v.members))
	linkSets := make([][]collector.LinkObs, len(v.members))
	v.fan("distinct", func(i int, m MemberView) {
		// Restores before materialising: a restore racing the reads
		// leaves this key stale, so the next call rebuilds again.
		fresh[i].restores = m.View.Restores()
		nodeSets[i], linkSets[i] = m.View.Nodes(), m.View.Links(0)
		fresh[i].nodes, fresh[i].links = len(nodeSets[i]), len(linkSets[i])
	})
	ids := make(map[wire.NodeID]struct{})
	type key struct{ tx, rx wire.NodeID }
	pairs := make(map[key]struct{})
	for i := range v.members {
		for _, n := range nodeSets[i] {
			ids[n.ID] = struct{}{}
		}
		for _, l := range linkSets[i] {
			pairs[key{l.Tx, l.Rx}] = struct{}{}
		}
	}
	v.distinctMu.Lock()
	defer v.distinctMu.Unlock()
	v.distinctKeys, v.distinctNodes, v.distinctLinks = fresh, len(ids), len(pairs)
	return len(ids), len(pairs)
}

// MaxTS is the newest record timestamp across the federation.
func (v *View) MaxTS() float64 {
	parts := make([]float64, len(v.members))
	v.fan("maxts", func(i int, m MemberView) { parts[i] = m.View.MaxTS() })
	out := 0.0
	for _, ts := range parts {
		if ts > out {
			out = ts
		}
	}
	return out
}

// Epoch sums the members' ingest epochs. Each member's epoch is
// monotone, so the sum is too; any accepted batch anywhere in the
// federation advances it, which is exactly the invalidation contract
// the read cache needs.
func (v *View) Epoch() uint64 {
	parts := make([]uint64, len(v.members))
	v.fan("epoch", func(i int, m MemberView) { parts[i] = m.View.Epoch() })
	var sum uint64
	for _, p := range parts {
		sum += p
	}
	return sum
}

// Restores sums the members' restore counts. The federation's distinct
// node and link sets are unions of member sets, so they too only grow
// while the sum stands still.
func (v *View) Restores() uint64 {
	parts := make([]uint64, len(v.members))
	v.fan("restores", func(i int, m MemberView) { parts[i] = m.View.Restores() })
	var sum uint64
	for _, p := range parts {
		sum += p
	}
	return sum
}

// Changed returns a channel closed the next time any member's epoch
// advances. The first call starts one watcher goroutine per member;
// they live for the view's lifetime and re-arm themselves, so repeated
// Changed calls are cheap (a mutex and a channel read).
func (v *View) Changed() <-chan struct{} {
	v.watchOnce.Do(func() {
		v.watchCh = make(chan struct{})
		for _, m := range v.members {
			go func(mv MemberView) {
				// Obtain the channel before reading the epoch: a bump
				// that lands after the epoch read closes the channel we
				// already hold, and one that landed before shows up in
				// the epoch re-check — no advance is ever missed.
				var last uint64
				for {
					ch := mv.View.Changed()
					if e := mv.View.Epoch(); e != last {
						last = e
						v.watchMu.Lock()
						rolled := v.watchCh
						v.watchCh = make(chan struct{})
						v.watchMu.Unlock()
						close(rolled)
						continue
					}
					<-ch
				}
			}(m)
		}
	})
	v.watchMu.Lock()
	defer v.watchMu.Unlock()
	return v.watchCh
}

// DB returns the federated querier: the same tsdb read interface,
// answered by fanning each query out to every member's store and
// merging deterministically.
func (v *View) DB() tsdb.Querier { return &fanQuerier{v: v} }

// --- federated querier ---

// fanQuerier merges member store reads. Series are keyed by canonical
// label string; within a series, member points concatenate in member
// order and stable-sort by timestamp, so equal-timestamp samples from
// different members keep member priority. No dedup is attempted:
// partitioning keeps member samples disjoint, and Handoff's time-split
// preserves that across membership changes.
type fanQuerier struct {
	v *View
}

func (q *fanQuerier) fanResults(op, name string, run func(tsdb.Querier) []tsdb.Result) [][]tsdb.Result {
	parts := make([][]tsdb.Result, len(q.v.members))
	q.v.fan(op, func(i int, m MemberView) { parts[i] = run(m.View.DB()) })
	return parts
}

// mergeResults groups per-member result sets by label identity and
// merges each group's points with mergePts.
func mergeResults(parts [][]tsdb.Result, mergePts func(existing, add []tsdb.Point) []tsdb.Point) []tsdb.Result {
	keys := make([]string, 0, 8)
	merged := make(map[string]*tsdb.Result)
	for _, part := range parts {
		for _, r := range part {
			k := r.Labels.String()
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

// concatSortPts merges raw points: concatenate (member order) and
// stable-sort by timestamp.
func concatSortPts(existing, add []tsdb.Point) []tsdb.Point {
	out := append(existing, add...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

func (q *fanQuerier) Query(name string, matcher tsdb.Labels, from, to float64) []tsdb.Result {
	parts := q.fanResults("query", name, func(db tsdb.Querier) []tsdb.Result {
		return db.Query(name, matcher, from, to)
	})
	return mergeResults(parts, concatSortPts)
}

func (q *fanQuerier) QueryOne(name string, labels tsdb.Labels, from, to float64) (tsdb.Result, bool) {
	type res struct {
		r  tsdb.Result
		ok bool
	}
	parts := make([]res, len(q.v.members))
	q.v.fan("query", func(i int, m MemberView) {
		parts[i].r, parts[i].ok = m.View.DB().QueryOne(name, labels, from, to)
	})
	var out tsdb.Result
	found := false
	for _, p := range parts {
		if !p.ok {
			continue
		}
		if !found {
			out, found = p.r, true
			out.Points = append([]tsdb.Point(nil), p.r.Points...)
		} else {
			out.Points = concatSortPts(out.Points, p.r.Points)
		}
	}
	return out, found
}

// QueryRange fans the bucketed query out — each member routes to its
// own coarsest satisfying tier — and merges aligned buckets (every
// member computes the same from-aligned grid). A bucket normally comes
// wholly from one member; where a handoff boundary splits a bucket's
// samples across two, the merge recombines exactly for sum, count, min
// and max. avg recombines count-weighted (a second count-fan supplies
// the weights), and last takes the member whose series has the newest
// sample — exact under Handoff's time-split.
func (q *fanQuerier) QueryRange(name string, matcher tsdb.Labels, from, to, step float64, agg tsdb.Agg) []tsdb.Result {
	if step <= 0 {
		return q.Query(name, matcher, from, to)
	}
	parts := q.fanResults("query_range", name, func(db tsdb.Querier) []tsdb.Result {
		return db.QueryRange(name, matcher, from, to, step, agg)
	})
	var weights [][]tsdb.Result
	if agg == tsdb.AggAvg {
		weights = q.fanResults("query_range", name, func(db tsdb.Querier) []tsdb.Result {
			return db.QueryRange(name, matcher, from, to, step, tsdb.AggCount)
		})
	}
	countAt := func(labelKey string, ts float64, memberIdx int) float64 {
		if weights == nil || memberIdx >= len(weights) {
			return 1
		}
		for _, r := range weights[memberIdx] {
			if r.Labels.String() != labelKey {
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
		weight float64 // samples behind value (avg merging only)
		member int
	}
	keys := make([]string, 0, 8)
	merged := make(map[string]*tsdb.Result)
	cells := make(map[string]map[float64]cell)
	for mi, part := range parts {
		for _, r := range part {
			k := r.Labels.String()
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
					// have.weight accumulates across members, so a bucket
					// split three ways (owner + stacked legacies) still
					// recombines to the exact overall mean.
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

func (q *fanQuerier) AggregateRange(name string, matcher tsdb.Labels, from, to float64, agg tsdb.Agg) float64 {
	switch agg {
	case tsdb.AggCount, tsdb.AggSum:
		parts := q.fanAgg(name, matcher, from, to, agg)
		sum, any := 0.0, false
		for _, v := range parts {
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
		parts := q.fanAgg(name, matcher, from, to, agg)
		out, any := 0.0, false
		for _, v := range parts {
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
	default: // AggLast: fold the merged materialised points, matching *DB semantics
		results := q.Query(name, matcher, from, to)
		last, lastTS, any := 0.0, math.Inf(-1), false
		for _, r := range results {
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

func (q *fanQuerier) fanAgg(name string, matcher tsdb.Labels, from, to float64, agg tsdb.Agg) []float64 {
	parts := make([]float64, len(q.v.members))
	q.v.fan("aggregate", func(i int, m MemberView) {
		parts[i] = m.View.DB().AggregateRange(name, matcher, from, to, agg)
	})
	return parts
}

// IterOne merges the members' streaming iterators by materialising
// each member's in-range points and handing the time-sorted union back
// through tsdb.PointsIter.
func (q *fanQuerier) IterOne(name string, labels tsdb.Labels, from, to float64) (tsdb.Iter, bool) {
	parts := make([][]tsdb.Point, len(q.v.members))
	found := make([]bool, len(q.v.members))
	q.v.fan("iter", func(i int, m MemberView) {
		it, ok := m.View.DB().IterOne(name, labels, from, to)
		if !ok {
			return
		}
		found[i] = true
		for it.Next() {
			ts, val := it.At()
			parts[i] = append(parts[i], tsdb.Point{TS: ts, Value: val})
		}
	})
	var pts []tsdb.Point
	any := false
	for i, part := range parts {
		if found[i] {
			any = true
		}
		pts = append(pts, part...)
	}
	if !any {
		return tsdb.Iter{}, false
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].TS < pts[j].TS })
	return tsdb.PointsIter(pts), true
}

func (q *fanQuerier) Latest(name string, labels tsdb.Labels) (tsdb.Point, bool) {
	parts := make([]*tsdb.Point, len(q.v.members))
	q.v.fan("latest", func(i int, m MemberView) {
		if p, ok := m.View.DB().Latest(name, labels); ok {
			parts[i] = &p
		}
	})
	var out tsdb.Point
	found := false
	for _, p := range parts {
		if p == nil {
			continue
		}
		if !found || p.TS > out.TS {
			out, found = *p, true
		}
	}
	return out, found
}

func (q *fanQuerier) MetricNames() []string {
	parts := make([][]string, len(q.v.members))
	q.v.fan("query", func(i int, m MemberView) { parts[i] = m.View.DB().MetricNames() })
	seen := make(map[string]bool)
	var out []string
	for _, part := range parts {
		for _, n := range part {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}

// SeriesCount sums member series counts. A series split across members
// by a handoff counts once per member holding samples of it.
func (q *fanQuerier) SeriesCount() int {
	parts := make([]int, len(q.v.members))
	q.v.fan("stats", func(i int, m MemberView) { parts[i] = m.View.DB().SeriesCount() })
	n := 0
	for _, c := range parts {
		n += c
	}
	return n
}

// PointCount sums member point counts — exact, since members hold
// disjoint samples.
func (q *fanQuerier) PointCount() int {
	parts := make([]int, len(q.v.members))
	q.v.fan("stats", func(i int, m MemberView) { parts[i] = m.View.DB().PointCount() })
	n := 0
	for _, c := range parts {
		n += c
	}
	return n
}
