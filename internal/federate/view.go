package federate

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/metrics"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// MemberView pairs a member's ring identity with its read side. The
// member must push its epoch advances (Subscribe), as a
// *collector.Collector and a *View do.
type MemberView struct {
	Name string
	View collector.View
}

// notifier is a member that pushes its epoch advances (see NewView).
type notifier interface {
	Subscribe(wake func())
}

// ViewConfig tunes the federated view.
type ViewConfig struct {
	// Metrics, when non-nil, receives the fan-out duration histogram.
	Metrics *metrics.Registry
}

// View implements collector.View over a set of member collectors.
// Counter reads (Epoch, MaxTS, Stats, Restores) are lock-free loads on
// each member and run inline, member by member. Materialising reads
// (Nodes, Links, Recent and every querier read) fan out to all members
// concurrently, and the members' sorted answers go through the same
// k-way merge (tsdb.MergeRuns) the collector runs over its shards, in
// the order the single-process collector guarantees (Nodes by ID, Links
// by (tx, rx), Recent newest-first, query results by canonical label
// string), so the dashboard, the alert engine and all analysis
// functions run unchanged on a federation.
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

	// notify is woken by every member after each of its epoch advances,
	// so a dashboard's SSE hub sees one channel however many collectors
	// back the view. No goroutine holds the view or its members.
	notify collector.Broadcast

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

// NewView builds a federated view over the members and subscribes it to
// each member's epoch advances. A member that cannot push them is
// refused.
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
		if _, ok := m.View.(notifier); !ok {
			return nil, fmt.Errorf("federate: member %q (%T) cannot notify its epoch advances", m.Name, m.View)
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	v := &View{
		members: append([]MemberView(nil), members...),
		fanout: reg.NewHistogramVec("meshmon_federate_fanout_seconds",
			"Wall-clock duration of one federated read, by operation.", fanoutBuckets, "op"),
		reg: reg,
		obs: make(map[string]*metrics.Histogram),
	}
	for _, op := range []string{"nodes", "node", "links", "recent", "stats",
		"distinct", "maxts", "epoch", "restores", "query", "query_range", "aggregate", "iter", "latest"} {
		v.obs[op] = v.fanout.With(op)
	}
	for _, m := range v.members {
		m.View.(notifier).Subscribe(v.notify.Wake)
	}
	return v, nil
}

// fanoutBuckets spans 0.5 µs to ~4.2 s in powers of two. Inline reads
// (epoch, counters) finish in 1-3 µs, below DefLatencyBuckets' 10 µs
// floor, where every one of them would interpolate to ~5 µs.
var fanoutBuckets = metrics.ExpBuckets(0.5e-6, 2, 24)

// Metrics returns the view's own registry (fan-out instrumentation).
// Member registries stay separate — each member exposes its own.
func (v *View) Metrics() *metrics.Registry { return v.reg }

// observe records one federated read under op, timed from start.
func (v *View) observe(op string, start time.Time) {
	v.obs[op].Observe(time.Since(start).Seconds())
}

// fan runs fn once per member concurrently and returns when all are
// done. Results land in index-ordered slots, so merges iterate members
// in configured order regardless of response timing — determinism does
// not depend on scheduling.
func (v *View) fan(op string, fn func(i int, m MemberView)) {
	defer v.observe(op, time.Now())
	var wg sync.WaitGroup
	for i := range v.members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i, v.members[i])
		}(i)
	}
	wg.Wait()
}

// Nodes returns the merged registry, sorted by node ID.
func (v *View) Nodes() []collector.NodeInfo {
	parts := make([][]collector.NodeInfo, len(v.members))
	v.fan("nodes", func(i int, m MemberView) { parts[i] = m.View.Nodes() })
	return collector.MergeNodes(parts)
}

// Node returns the merged registry entry for one node.
func (v *View) Node(id wire.NodeID) (collector.NodeInfo, bool) {
	parts := make([][]collector.NodeInfo, len(v.members))
	v.fan("node", func(i int, m MemberView) {
		if n, ok := m.View.Node(id); ok {
			parts[i] = []collector.NodeInfo{n}
		}
	})
	if merged := collector.MergeNodes(parts); len(merged) > 0 {
		return merged[0], true
	}
	return collector.NodeInfo{}, false
}

// Links returns the merged link observations, sorted by (tx, rx).
// Duplicate links (possible across a handoff) merge exactly: counts
// add, means recombine count-weighted, last-heard follows the newest
// timestamp.
func (v *View) Links(from float64) []collector.LinkObs {
	parts := make([][]collector.LinkObs, len(v.members))
	v.fan("links", func(i int, m MemberView) { parts[i] = m.View.Links(from) })
	return collector.MergeLinks(parts)
}

// Recent merges the members' newest packet records, newest first.
// Cross-member order is by record timestamp (there is no global
// sequence across processes): each member's run is stably sorted by
// timestamp, newest first, and the runs merge with ties going to the
// earlier member, so the merge is deterministic.
func (v *View) Recent(limit int) []wire.PacketRecord {
	parts := make([][]wire.PacketRecord, len(v.members))
	v.fan("recent", func(i int, m MemberView) { parts[i] = m.View.Recent(limit) })
	newestFirst := func(a, b *wire.PacketRecord) int { return cmp.Compare(b.TS, a.TS) }
	for _, part := range parts {
		slices.SortStableFunc(part, func(a, b wire.PacketRecord) int { return newestFirst(&a, &b) })
	}
	return tsdb.MergeRuns(nil, parts, newestFirst, nil, limit)
}

// Stats sums the members' counters; NodesKnown and LinksKnown count
// distinct node IDs and (tx, rx) links across the federation (a node
// handed off appears on two members but is still one node). In steady
// state it reads only each member's Stats and Restores: member sets are
// materialised only when some member's key has moved.
func (v *View) Stats() collector.Stats {
	start := time.Now()
	v.distinctMu.Lock()
	keys, nodes, links := v.distinctKeys, v.distinctNodes, v.distinctLinks
	v.distinctMu.Unlock()
	hit := len(keys) == len(v.members)
	var out collector.Stats
	for i, m := range v.members {
		p := m.View.Stats()
		out.BatchesIngested += p.BatchesIngested
		out.BatchesRejected += p.BatchesRejected
		out.RecordsIngested += p.RecordsIngested
		// Restores after Stats: a restore that lands between the two
		// reads shows up as a moved key rather than a stale match.
		hit = hit && keys[i] == setsKey{m.View.Restores(), p.NodesKnown, p.LinksKnown}
	}
	v.observe("stats", start)
	if !hit {
		nodes, links = v.distinctCounts()
	}
	out.NodesKnown, out.LinksKnown = nodes, links
	return out
}

// distinctCounts fans Nodes and Links out once to count the
// federation's distinct nodes and links, and caches the counts under
// the member keys they were materialised at.
func (v *View) distinctCounts() (nodes, links int) {
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
	nodes, links = len(collector.MergeNodes(nodeSets)), len(collector.MergeLinks(linkSets))
	v.distinctMu.Lock()
	defer v.distinctMu.Unlock()
	v.distinctKeys, v.distinctNodes, v.distinctLinks = fresh, nodes, links
	return nodes, links
}

// MaxTS is the newest record timestamp across the federation.
func (v *View) MaxTS() float64 {
	defer v.observe("maxts", time.Now())
	out := 0.0
	for _, m := range v.members {
		if ts := m.View.MaxTS(); ts > out {
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
	defer v.observe("epoch", time.Now())
	var sum uint64
	for _, m := range v.members {
		sum += m.View.Epoch()
	}
	return sum
}

// Restores sums the members' restore counts. The federation's distinct
// node and link sets are unions of member sets, so they too only grow
// while the sum stands still.
func (v *View) Restores() uint64 {
	defer v.observe("restores", time.Now())
	var sum uint64
	for _, m := range v.members {
		sum += m.View.Restores()
	}
	return sum
}

// Changed returns a channel closed the next time any member's epoch
// advances: the members push each advance into the view (see NewView).
func (v *View) Changed() <-chan struct{} { return v.notify.Changed() }

// Subscribe registers wake to run after every member epoch advance, so
// a View can itself be a member of another View.
func (v *View) Subscribe(wake func()) { v.notify.Subscribe(wake) }

// DB returns the federated querier: the same tsdb read interface,
// answered by fanning each query out to every member's store and
// merging deterministically.
func (v *View) DB() tsdb.Querier { return &fanQuerier{v: v} }

// --- federated querier ---

// fanQuerier merges member store reads with the tsdb result merges:
// series are keyed by canonical label string (the order *DB answers
// in), and within a series member points merge by timestamp, equal
// timestamps in member order. No dedup is attempted: partitioning keeps
// member samples disjoint, and Handoff's time-split preserves that
// across membership changes.
type fanQuerier struct {
	v *View
}

func (q *fanQuerier) fanResults(op string, run func(tsdb.Querier) []tsdb.Result) [][]tsdb.Result {
	parts := make([][]tsdb.Result, len(q.v.members))
	q.v.fan(op, func(i int, m MemberView) { parts[i] = run(m.View.DB()) })
	return parts
}

func (q *fanQuerier) Query(name string, matcher tsdb.Labels, from, to float64) []tsdb.Result {
	return tsdb.MergeQuery(q.fanResults("query", func(db tsdb.Querier) []tsdb.Result {
		return db.Query(name, matcher, from, to)
	}))
}

func (q *fanQuerier) QueryOne(name string, labels tsdb.Labels, from, to float64) (tsdb.Result, bool) {
	return q.queryOne("query", name, labels, from, to)
}

// queryOne fans QueryOne out under op and merges the members holding
// the series.
func (q *fanQuerier) queryOne(op, name string, labels tsdb.Labels, from, to float64) (tsdb.Result, bool) {
	merged := tsdb.MergeQuery(q.fanResults(op, func(db tsdb.Querier) []tsdb.Result {
		if r, ok := db.QueryOne(name, labels, from, to); ok {
			return []tsdb.Result{r}
		}
		return nil
	}))
	if len(merged) == 0 {
		return tsdb.Result{}, false
	}
	return merged[0], true
}

// QueryRange fans the bucketed query out — each member routes to its
// own coarsest satisfying tier — and merges aligned buckets (every
// member computes the same from-aligned grid) with tsdb.MergeRange. A
// bucket normally comes wholly from one member; where a handoff
// boundary splits a bucket's samples across two, the merge recombines
// exactly for sum, count, min and max. avg recombines count-weighted (a
// second count fan-out supplies the weights), and last takes the member
// whose series has the newest sample — exact under Handoff's
// time-split.
func (q *fanQuerier) QueryRange(name string, matcher tsdb.Labels, from, to, step float64, agg tsdb.Agg) []tsdb.Result {
	if step <= 0 {
		return q.Query(name, matcher, from, to)
	}
	rangeOf := func(agg tsdb.Agg) func(tsdb.Querier) []tsdb.Result {
		return func(db tsdb.Querier) []tsdb.Result { return db.QueryRange(name, matcher, from, to, step, agg) }
	}
	parts := q.fanResults("query_range", rangeOf(agg))
	var weights [][]tsdb.Result
	if agg == tsdb.AggAvg {
		weights = q.fanResults("query_range", rangeOf(tsdb.AggCount))
	}
	return tsdb.MergeRange(parts, weights, agg, func(member int, labels tsdb.Labels) float64 {
		if p, ok := q.v.members[member].View.DB().Latest(name, labels); ok {
			return p.TS
		}
		return math.Inf(-1)
	})
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

// IterOne streams the merged points of QueryOne through
// tsdb.PointsIter.
func (q *fanQuerier) IterOne(name string, labels tsdb.Labels, from, to float64) (tsdb.Iter, bool) {
	r, ok := q.queryOne("iter", name, labels, from, to)
	if !ok {
		return tsdb.Iter{}, false
	}
	return tsdb.PointsIter(r.Points), true
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
