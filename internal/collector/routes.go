package collector

import (
	"cmp"
	"slices"

	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// Route telemetry as per-node change logs. A node reports its whole
// routing table every route interval; what an administrator asks of the
// monitor is what changed ("when did N0042's route to the gateway move,
// and to what?"). The collector therefore keeps, per node, the newest
// table in canonical form and diffs each newer snapshot against it at
// ingest. The diff feeds NodeInfo.RouteHistory and the per-node
// mesh_route_changes series; the tables themselves are not stored as
// series.
//
// The first snapshot a collector holds for a node is a baseline with
// no changes, so a restart or a federation handoff does not count a
// whole table as churn. A snapshot older than the one held is neither
// diffed nor kept.

// RouteChange is one difference between consecutive routing tables of
// a node: a route added (OldMetric 0), removed (NewMetric 0), or moved
// to another next hop or metric. Metric 0 is invalid on the wire, so 0
// means "no route". Changes only in age or SNR are not changes.
type RouteChange struct {
	TS         float64 // timestamp of the snapshot that showed the change
	Dst        wire.NodeID
	OldNextHop wire.NodeID
	NewNextHop wire.NodeID
	OldMetric  uint8
	NewMetric  uint8
}

// routeHistoryLen bounds NodeInfo.RouteHistory.
const routeHistoryLen = 32

// canonicalRoutes returns the entries sorted by destination with one
// entry per destination, the last occurrence winning. A table that is
// already sorted and unique — every mesh.Table snapshot is — comes back
// as is, aliased; anything else is cloned and sorted once.
func canonicalRoutes(routes []wire.RouteEntry) []wire.RouteEntry {
	i := 1
	for i < len(routes) && routes[i-1].Dst < routes[i].Dst {
		i++
	}
	if i >= len(routes) {
		return routes
	}
	out := slices.Clone(routes)
	slices.SortStableFunc(out, func(a, b wire.RouteEntry) int { return cmp.Compare(a.Dst, b.Dst) })
	n := 0
	for i := range out {
		if i+1 < len(out) && out[i+1].Dst == out[i].Dst {
			continue // a later occurrence of this destination wins
		}
		out[n] = out[i]
		n++
	}
	return out[:n]
}

// diffRoutes appends to dst, in destination order and stamped ts, the
// changes that turn canonical table old into canonical table new: one
// merge walk of the two.
func diffRoutes(dst []RouteChange, ts float64, old, new []wire.RouteEntry) []RouteChange {
	for len(old) > 0 || len(new) > 0 {
		switch {
		case len(new) == 0 || len(old) > 0 && old[0].Dst < new[0].Dst:
			dst = append(dst, RouteChange{TS: ts, Dst: old[0].Dst, OldNextHop: old[0].NextHop, OldMetric: old[0].Metric})
			old = old[1:]
		case len(old) == 0 || new[0].Dst < old[0].Dst:
			dst = append(dst, RouteChange{TS: ts, Dst: new[0].Dst, NewNextHop: new[0].NextHop, NewMetric: new[0].Metric})
			new = new[1:]
		default:
			if o, n := &old[0], &new[0]; o.NextHop != n.NextHop || o.Metric != n.Metric {
				dst = append(dst, RouteChange{TS: ts, Dst: o.Dst,
					OldNextHop: o.NextHop, NewNextHop: n.NextHop, OldMetric: o.Metric, NewMetric: n.Metric})
			}
			old, new = old[1:], new[1:]
		}
	}
	return dst
}

// pushRouteHistory returns a new history holding changes (one
// snapshot's, all equally new) ahead of hist, capped at
// routeHistoryLen. hist is never written: readers may hold it.
func pushRouteHistory(hist, changes []RouteChange) []RouteChange {
	if len(changes) == 0 {
		return hist
	}
	out := make([]RouteChange, 0, min(len(changes)+len(hist), routeHistoryLen))
	out = append(out, changes[:min(len(changes), cap(out))]...)
	return append(out, hist[:cap(out)-len(out)]...)
}

// mergeRouteHistory merges two histories newest first, a's entries
// first among equal timestamps, capped at routeHistoryLen. Neither input
// is written.
func mergeRouteHistory(a, b []RouteChange) []RouteChange {
	if len(b) == 0 {
		return a
	}
	return tsdb.MergeRuns(nil, [][]RouteChange{a, b},
		func(x, y *RouteChange) int { return cmp.Compare(y.TS, x.TS) }, nil, routeHistoryLen)
}

// ingestRoutes diffs a snapshot at least as new as the node's current
// one against the node's table, records the changes, and makes it the
// node's current snapshot. LastRoutes keeps the snapshot exactly as
// sent; st.table is its canonical form.
func (s *shard) ingestRoutes(st *nodeState, r wire.RouteSnapshot) {
	s.c.bump(r.TS)
	if st.info.LastRoutes != nil && !(r.TS >= st.info.LastRoutes.TS) {
		return
	}
	table := canonicalRoutes(r.Routes)
	changes := s.changes[:0]
	if st.info.LastRoutes != nil {
		changes = diffRoutes(changes, r.TS, st.table, table)
		st.info.RouteHistory = pushRouteHistory(st.info.RouteHistory, changes)
	}
	s.changes = changes
	st.info.LastRoutes = &r
	st.table = table
	if st.routeChanges == nil {
		st.routeChanges = s.c.db.Series("mesh_route_changes", tsdb.Labels{"node": r.Node.String()})
	}
	st.routeChanges.Append(r.TS, float64(len(changes)))
}
