package mesh

import (
	"cmp"
	"slices"
	"time"

	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
)

// Route is one routing-table entry as exposed to callers and telemetry.
type Route struct {
	Dst      radio.ID
	NextHop  radio.ID
	Metric   uint8
	LastSeen simkit.Time
	// SNRdB is the SNR of the last HELLO that refreshed this entry, a
	// proxy for the quality of the first hop.
	SNRdB float64
}

// Table is a distance-vector routing table with hop-count metrics, as
// LoRaMesher maintains: routes are learned exclusively from neighbours'
// periodic HELLO broadcasts and expire when not refreshed.
type Table struct {
	self radio.ID
	// routes is kept sorted by Dst: lookups binary-search it, Snapshot is
	// a plain copy, and a HELLO's ascending ads merge against it in one
	// pass (see cursor).
	routes []Route
	// snrTiebreakDB, when positive, lets an equal-metric route through a
	// different neighbour win if its first-hop SNR is better by at least
	// this many dB (LoRaMesher's SNR-aware routing refinement).
	snrTiebreakDB float64
}

// AddMetric adds two metric components, saturating at MetricInf: once
// a route is unreachable, no amount of further addition may wrap it
// back into the reachable range (uint8 arithmetic would, e.g. a
// neighbour advertising 255 re-advertised as 0).
func AddMetric(a, b uint8) uint8 {
	if s := uint16(a) + uint16(b); s < MetricInf {
		return uint8(s)
	}
	return MetricInf
}

// NewTable returns an empty table owned by self. Routes to self are
// never stored.
func NewTable(self radio.ID) *Table {
	return &Table{self: self}
}

// SetSNRTiebreak enables SNR-aware selection between equal-metric
// routes; db <= 0 disables it.
func (t *Table) SetSNRTiebreak(db float64) { t.snrTiebreakDB = db }

// search returns the position of dst in routes, or where it would be
// inserted, and whether it is present.
func (t *Table) search(dst radio.ID) (int, bool) {
	return slices.BinarySearchFunc(t.routes, dst, func(r Route, d radio.ID) int {
		return cmp.Compare(r.Dst, d)
	})
}

// Update offers a candidate route and reports whether the table changed.
// The distance-vector rules are LoRaMesher's:
//
//   - a route through the same next hop always refreshes the entry (the
//     neighbour is the authority for paths through itself, even if the
//     metric worsened);
//   - otherwise the candidate is adopted only if strictly better;
//   - metrics at or beyond MetricInf mean unreachable and evict the
//     entry when learned from its current next hop.
func (t *Table) Update(dst, nextHop radio.ID, metric uint8, snr float64, now simkit.Time) bool {
	i, _ := t.search(dst)
	return t.updateAt(i, dst, nextHop, metric, snr, now)
}

// updateAt applies Update's rules with i the insertion position of dst
// in routes.
func (t *Table) updateAt(i int, dst, nextHop radio.ID, metric uint8, snr float64, now simkit.Time) bool {
	if dst == t.self {
		return false
	}
	if metric == 0 {
		// A zero-hop route to another node is nonsensical; reject it
		// rather than poison the table.
		return false
	}
	exists := i < len(t.routes) && t.routes[i].Dst == dst
	var cur Route
	if exists {
		cur = t.routes[i]
	}
	if metric >= MetricInf {
		if exists && cur.NextHop == nextHop {
			t.routes = slices.Delete(t.routes, i, i+1)
			return true
		}
		return false
	}
	switch {
	case !exists:
	case cur.NextHop == nextHop:
		// Refresh through the same next hop, even if worse.
	case metric < cur.Metric:
		// Strictly better path through a different neighbour.
	case metric == cur.Metric && t.snrTiebreakDB > 0 &&
		snr >= cur.SNRdB+t.snrTiebreakDB:
		// Equal hops but a clearly better first hop.
	default:
		return false
	}
	r := Route{Dst: dst, NextHop: nextHop, Metric: metric, LastSeen: now, SNRdB: snr}
	if !exists {
		t.routes = slices.Insert(t.routes, i, r)
		return true
	}
	t.routes[i] = r
	return cur.NextHop != nextHop || cur.Metric != metric
}

// cursor applies a sequence of updates whose destinations mostly
// ascend — a HELLO's ads, which buildAds emits in Dst order — walking
// the table alongside them instead of searching it per update. An
// update that arrives out of order falls back to a search.
type cursor struct {
	t    *Table
	i    int // every routes[:i] entry has Dst < last
	last radio.ID
}

// update is Table.Update positioned by the walk.
func (c *cursor) update(dst, nextHop radio.ID, metric uint8, snr float64, now simkit.Time) bool {
	routes := c.t.routes
	if dst < c.last {
		c.i, _ = c.t.search(dst)
	}
	for c.i < len(routes) && routes[c.i].Dst < dst {
		c.i++
	}
	c.last = dst
	return c.t.updateAt(c.i, dst, nextHop, metric, snr, now)
}

// Lookup returns the route to dst.
func (t *Table) Lookup(dst radio.ID) (Route, bool) {
	if i, ok := t.search(dst); ok {
		return t.routes[i], true
	}
	return Route{}, false
}

// Expire removes entries not refreshed within timeout and returns how
// many were evicted.
func (t *Table) Expire(now simkit.Time, timeout time.Duration) int {
	n := len(t.routes)
	t.routes = slices.DeleteFunc(t.routes, func(r Route) bool {
		return now.Sub(r.LastSeen) > timeout
	})
	return n - len(t.routes)
}

// Remove deletes the route to dst, reporting whether it existed.
func (t *Table) Remove(dst radio.ID) bool {
	i, ok := t.search(dst)
	if ok {
		t.routes = slices.Delete(t.routes, i, i+1)
	}
	return ok
}

// Len returns the number of known destinations.
func (t *Table) Len() int { return len(t.routes) }

// Entry returns the i-th route in destination order, 0 <= i < Len: with
// Len it reads the table in place, where Snapshot copies it.
func (t *Table) Entry(i int) Route { return t.routes[i] }

// Snapshot returns all routes ordered by destination address, suitable
// for HELLO advertisement and telemetry.
func (t *Table) Snapshot() []Route {
	return append(make([]Route, 0, len(t.routes)), t.routes...)
}

// Ads converts the table into HELLO advertisements.
func (t *Table) Ads() []RouteAd {
	ads := make([]RouteAd, len(t.routes))
	for i, r := range t.routes {
		ads[i] = RouteAd{Addr: r.Dst, Metric: r.Metric, Via: r.NextHop}
	}
	return ads
}

// Neighbors returns the destinations reachable in one hop.
func (t *Table) Neighbors() []radio.ID {
	var out []radio.ID
	for _, r := range t.routes {
		if r.Metric == 1 {
			out = append(out, r.Dst)
		}
	}
	return out
}
