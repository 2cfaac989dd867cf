package mesh

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
)

func TestTableBasicUpdateLookup(t *testing.T) {
	tb := NewTable(1)
	if !tb.Update(2, 2, 1, -5, 0) {
		t.Fatal("fresh route not reported as change")
	}
	r, ok := tb.Lookup(2)
	if !ok || r.NextHop != 2 || r.Metric != 1 {
		t.Fatalf("route = %+v, ok=%v", r, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
}

func TestTableIgnoresSelf(t *testing.T) {
	tb := NewTable(1)
	if tb.Update(1, 2, 3, 0, 0) {
		t.Fatal("route to self accepted")
	}
	if tb.Len() != 0 {
		t.Fatal("self route stored")
	}
}

func TestTableAdoptsStrictlyBetterOnly(t *testing.T) {
	tb := NewTable(1)
	tb.Update(5, 2, 3, 0, 0)
	if tb.Update(5, 3, 3, 0, 0) {
		t.Fatal("equal-metric route through different hop adopted")
	}
	if !tb.Update(5, 3, 2, 0, 0) {
		t.Fatal("strictly better route rejected")
	}
	r, _ := tb.Lookup(5)
	if r.NextHop != 3 || r.Metric != 2 {
		t.Fatalf("route = %+v", r)
	}
	if tb.Update(5, 4, 5, 0, 0) {
		t.Fatal("worse route through different hop adopted")
	}
}

func TestTableSameNextHopAlwaysRefreshes(t *testing.T) {
	tb := NewTable(1)
	tb.Update(5, 2, 2, 0, 0)
	// Same next hop, worse metric: must refresh (neighbour is authority).
	if !tb.Update(5, 2, 4, 0, simkit.Time(time.Second)) {
		t.Fatal("same-hop worse metric did not update")
	}
	r, _ := tb.Lookup(5)
	if r.Metric != 4 || r.LastSeen != simkit.Time(time.Second) {
		t.Fatalf("route = %+v", r)
	}
	// Same everything: refreshes LastSeen but reports no change.
	if tb.Update(5, 2, 4, 0, simkit.Time(2*time.Second)) {
		t.Fatal("pure refresh reported as change")
	}
	r, _ = tb.Lookup(5)
	if r.LastSeen != simkit.Time(2*time.Second) {
		t.Fatal("refresh did not update LastSeen")
	}
}

func TestTableInfinityEvictsViaCurrentHop(t *testing.T) {
	tb := NewTable(1)
	tb.Update(5, 2, 2, 0, 0)
	// Unreachable learned from a different neighbour: ignore.
	if tb.Update(5, 3, MetricInf, 0, 0) {
		t.Fatal("infinity from unrelated hop changed the table")
	}
	if _, ok := tb.Lookup(5); !ok {
		t.Fatal("route evicted by unrelated infinity")
	}
	// Unreachable learned from the current next hop: evict.
	if !tb.Update(5, 2, MetricInf, 0, 0) {
		t.Fatal("infinity from current hop not treated as change")
	}
	if _, ok := tb.Lookup(5); ok {
		t.Fatal("route survived infinity from its next hop")
	}
}

func TestTableExpire(t *testing.T) {
	tb := NewTable(1)
	tb.Update(2, 2, 1, 0, 0)
	tb.Update(3, 2, 2, 0, simkit.Time(50*time.Second))
	if n := tb.Expire(simkit.Time(60*time.Second), 30*time.Second); n != 1 {
		t.Fatalf("evicted = %d, want 1", n)
	}
	if _, ok := tb.Lookup(2); ok {
		t.Fatal("stale route survived")
	}
	if _, ok := tb.Lookup(3); !ok {
		t.Fatal("fresh route evicted")
	}
}

func TestTableSnapshotSortedAndAds(t *testing.T) {
	tb := NewTable(1)
	tb.Update(9, 2, 3, 0, 0)
	tb.Update(2, 2, 1, 0, 0)
	tb.Update(5, 5, 1, 0, 0)
	snap := tb.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Dst < snap[i-1].Dst {
			t.Fatalf("snapshot unsorted: %+v", snap)
		}
	}
	ads := tb.Ads()
	if len(ads) != 3 || ads[0].Addr != 2 || ads[2].Addr != 9 {
		t.Fatalf("ads = %+v", ads)
	}
	nb := tb.Neighbors()
	if len(nb) != 2 || nb[0] != 2 || nb[1] != 5 {
		t.Fatalf("neighbors = %v", nb)
	}
}

func TestTableRemove(t *testing.T) {
	tb := NewTable(1)
	tb.Update(2, 2, 1, 0, 0)
	if !tb.Remove(2) {
		t.Fatal("remove existing returned false")
	}
	if tb.Remove(2) {
		t.Fatal("remove missing returned true")
	}
}

// Property: after any sequence of updates, every stored route has a
// positive metric below MetricInf and is never a route to self.
func TestPropertyTableInvariants(t *testing.T) {
	type op struct {
		Dst, Hop uint8
		Metric   uint8
	}
	f := func(ops []op) bool {
		tb := NewTable(1)
		for i, o := range ops {
			tb.Update(radio.ID(o.Dst), radio.ID(o.Hop), o.Metric%20, 0, simkit.Time(i))
		}
		for _, r := range tb.Snapshot() {
			if r.Dst == 1 || r.Metric == 0 || r.Metric >= MetricInf {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableSNRTiebreak(t *testing.T) {
	tb := NewTable(1)
	tb.SetSNRTiebreak(3)
	tb.Update(5, 2, 2, -2, 0)
	// Equal metric, marginally better SNR: not enough.
	if tb.Update(5, 3, 2, 0, 0) {
		t.Fatal("tiebreak below threshold adopted")
	}
	// Equal metric, clearly better SNR: adopt.
	if !tb.Update(5, 4, 2, 4, 0) {
		t.Fatal("clear SNR winner rejected")
	}
	r, _ := tb.Lookup(5)
	if r.NextHop != 4 || r.SNRdB != 4 {
		t.Fatalf("route = %+v", r)
	}
	// Disabled: equal metric never switches.
	tb2 := NewTable(1)
	tb2.Update(5, 2, 2, -20, 0)
	if tb2.Update(5, 3, 2, 30, 0) {
		t.Fatal("tiebreak applied while disabled")
	}
}

// refTable is the map-backed routing table the sorted vector replaced,
// kept as the reference the equivalence test compares against.
type refTable struct {
	self          radio.ID
	routes        map[radio.ID]Route
	snrTiebreakDB float64
}

func (t *refTable) Update(dst, nextHop radio.ID, metric uint8, snr float64, now simkit.Time) bool {
	if dst == t.self || metric == 0 {
		return false
	}
	cur, exists := t.routes[dst]
	if metric >= MetricInf {
		if exists && cur.NextHop == nextHop {
			delete(t.routes, dst)
			return true
		}
		return false
	}
	switch {
	case !exists:
	case cur.NextHop == nextHop:
	case metric < cur.Metric:
	case metric == cur.Metric && t.snrTiebreakDB > 0 && snr >= cur.SNRdB+t.snrTiebreakDB:
	default:
		return false
	}
	changed := !exists || cur.NextHop != nextHop || cur.Metric != metric
	t.routes[dst] = Route{Dst: dst, NextHop: nextHop, Metric: metric, LastSeen: now, SNRdB: snr}
	return changed
}

func (t *refTable) Expire(now simkit.Time, timeout time.Duration) int {
	n := 0
	for dst, r := range t.routes {
		if now.Sub(r.LastSeen) > timeout {
			delete(t.routes, dst)
			n++
		}
	}
	return n
}

func (t *refTable) Remove(dst radio.ID) bool {
	_, ok := t.routes[dst]
	delete(t.routes, dst)
	return ok
}

func (t *refTable) Snapshot() []Route {
	out := make([]Route, 0, len(t.routes))
	for _, r := range t.routes {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dst < out[j].Dst })
	return out
}

// TestTableMatchesMapReference drives the sorted-vector Table and the
// map reference through seeded random sequences of Update, Expire,
// Remove and whole-HELLO merges (ascending, shuffled and duplicated ad
// orders through the cursor), covering MetricInf eviction, same-next-hop
// refresh, the SNR tiebreak and dst == self, and compares every result,
// Lookup, Len and Snapshot after each step.
func TestTableMatchesMapReference(t *testing.T) {
	const self = 1
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(self)
		ref := &refTable{self: self, routes: make(map[radio.ID]Route)}
		if seed%2 == 0 {
			tb.SetSNRTiebreak(3)
			ref.snrTiebreakDB = 3
		}
		randDst := func() radio.ID { return radio.ID(rng.Intn(48)) } // includes self and 0
		randMetric := func() uint8 {
			if rng.Intn(6) == 0 {
				return MetricInf + uint8(rng.Intn(3))
			}
			return uint8(rng.Intn(MetricInf))
		}
		now := simkit.Time(0)
		for step := 0; step < 400; step++ {
			now = now.Add(time.Duration(rng.Intn(20)) * time.Second)
			op := rng.Intn(10)
			switch {
			case op < 5:
				dst, hop, m := randDst(), radio.ID(2+rng.Intn(4)), randMetric()
				snr := float64(rng.Intn(21) - 10)
				if got, want := tb.Update(dst, hop, m, snr, now), ref.Update(dst, hop, m, snr, now); got != want {
					t.Fatalf("seed %d step %d: Update(%d via %d, m=%d, snr=%v) = %v, want %v", seed, step, dst, hop, m, snr, got, want)
				}
			case op < 8:
				// One HELLO's ads through the cursor, as onHello applies them.
				n := rng.Intn(30)
				dsts := make([]radio.ID, n)
				for i := range dsts {
					dsts[i] = randDst()
				}
				switch rng.Intn(3) {
				case 0:
					sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
				case 1:
					sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
					if n > 1 {
						i, j := rng.Intn(n), rng.Intn(n)
						dsts[i], dsts[j] = dsts[j], dsts[i]
					}
				}
				hop, snr := radio.ID(2+rng.Intn(4)), float64(rng.Intn(21)-10)
				walk := cursor{t: tb}
				for _, dst := range dsts {
					m := randMetric()
					if got, want := walk.update(dst, hop, m, snr, now), ref.Update(dst, hop, m, snr, now); got != want {
						t.Fatalf("seed %d step %d: cursor update(%d via %d, m=%d) = %v, want %v (ads %v)", seed, step, dst, hop, m, got, want, dsts)
					}
				}
			case op < 9:
				timeout := time.Duration(rng.Intn(120)) * time.Second
				if got, want := tb.Expire(now, timeout), ref.Expire(now, timeout); got != want {
					t.Fatalf("seed %d step %d: Expire = %d, want %d", seed, step, got, want)
				}
			default:
				dst := randDst()
				if got, want := tb.Remove(dst), ref.Remove(dst); got != want {
					t.Fatalf("seed %d step %d: Remove(%d) = %v, want %v", seed, step, dst, got, want)
				}
			}
			if tb.Len() != len(ref.routes) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, tb.Len(), len(ref.routes))
			}
			if got, want := tb.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: Snapshot\n got %+v\nwant %+v", seed, step, got, want)
			}
			for dst := radio.ID(0); dst < 48; dst++ {
				got, gotOK := tb.Lookup(dst)
				want, wantOK := ref.routes[dst]
				if got != want || gotOK != wantOK {
					t.Fatalf("seed %d step %d: Lookup(%d) = %+v %v, want %+v %v", seed, step, dst, got, gotOK, want, wantOK)
				}
			}
		}
	}
}
