package radio

import (
	"math"

	"lorameshmon/internal/phy"
)

// The medium derives all of its randomness (per-pair shadowing, per
// -delivery fading and the logistic success draws) from counter-based
// hashes instead of the shared sim RNG stream. That makes every outcome
// a pure function of (medium seed, transmission, receiver): link budgets
// no longer depend on which pairs were queried first, and the spatial
// index can skip out-of-range receivers without perturbing the draws any
// other receiver sees — which is what makes grid and all-pairs delivery
// bit-identical.

// mix64 is the splitmix64 finalizer: a cheap bijective mixer with full
// avalanche, good enough to turn structured keys (seed ^ pair, seed ^
// sequence) into independent-looking streams.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hrand is a tiny counter-based PRNG (splitmix64): seed it from a hash
// and draw a short deterministic stream. Value type on purpose — it
// lives on the stack of the delivery decision, never allocates.
type hrand struct{ s uint64 }

func (r *hrand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// Float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (r *hrand) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal draw via Box-Muller. The offset
// on u1 keeps it strictly positive so the log never sees zero.
func (r *hrand) NormFloat64() float64 {
	u1 := (float64(r.next()>>11) + 0.5) / (1 << 53)
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// shadowClampSigma bounds the per-pair shadowing draw to ±3σ. The clamp
// is what lets the spatial index promise that every receiver whose mean
// link could possibly clear the delivery cutoff sits inside a finite,
// precomputable radius: cell sizing adds the same 3σ headroom.
const shadowClampSigma = 3.0

// rangeSlack inflates index query radii by a hair so receivers sitting
// exactly on a float-rounded range boundary never fall out of the grid
// while surviving the (identical) budget check in deliver.
const rangeSlack = 1 + 1e-9

// cellKey addresses one square cell of the uniform grid.
type cellKey struct{ x, y int32 }

// grid is a uniform spatial hash over radio positions. Cells are sized
// to the largest delivery-candidate radius of any attached radio, so a
// transmit query never needs to look beyond the 3×3 (or slightly larger)
// block of cells around the sender. Lookups iterate computed cell keys
// in fixed (y, x) order — never the map itself — so candidate order is
// deterministic for a given topology.
type grid struct {
	cellM float64
	cells map[cellKey][]*Radio
}

func (g *grid) keyAt(p phy.Point) cellKey {
	return cellKey{int32(math.Floor(p.X / g.cellM)), int32(math.Floor(p.Y / g.cellM))}
}

func (g *grid) insert(r *Radio) {
	k := g.keyAt(r.pos)
	s := g.cells[k]
	r.cell, r.cellIdx = k, len(s)
	g.cells[k] = append(s, r)
}

func (g *grid) remove(r *Radio) {
	s := g.cells[r.cell]
	last := len(s) - 1
	if r.cellIdx != last {
		moved := s[last]
		s[r.cellIdx] = moved
		moved.cellIdx = r.cellIdx
	}
	s[last] = nil
	if last == 0 {
		delete(g.cells, r.cell)
	} else {
		g.cells[r.cell] = s[:last]
	}
}

// move reindexes r after a position change; cheap no-op when the radio
// stays inside its current cell.
func (g *grid) move(r *Radio, p phy.Point) {
	if g.keyAt(p) == r.cell {
		r.pos = p
		return
	}
	g.remove(r)
	r.pos = p
	g.insert(r)
}

// rebuild resizes the cells to cellM and reinserts every radio in ID
// order (order is the medium's ID-sorted slice).
func (g *grid) rebuild(cellM float64, order []*Radio) {
	g.cellM = cellM
	g.cells = make(map[cellKey][]*Radio, len(order))
	for _, r := range order {
		g.insert(r)
	}
}

// appendWithin appends every radio other than from whose position lies
// within radiusM of from, scanning only the covered cells. Results come
// out in deterministic cell-block order.
func (g *grid) appendWithin(dst []*Radio, from *Radio, radiusM float64) []*Radio {
	rSq := radiusM * radiusM
	x0 := int32(math.Floor((from.pos.X - radiusM) / g.cellM))
	x1 := int32(math.Floor((from.pos.X + radiusM) / g.cellM))
	y0 := int32(math.Floor((from.pos.Y - radiusM) / g.cellM))
	y1 := int32(math.Floor((from.pos.Y + radiusM) / g.cellM))
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, rx := range g.cells[cellKey{cx, cy}] {
				if rx == from {
					continue
				}
				dx := rx.pos.X - from.pos.X
				dy := rx.pos.Y - from.pos.Y
				if dx*dx+dy*dy <= rSq {
					dst = append(dst, rx)
				}
			}
		}
	}
	return dst
}

// eachNear calls fn for every radio whose query could scan cell k. A
// query radius never exceeds cellM, so it spans at most one cell either
// side of its sender's; the second ring absorbs floor rounding at cell
// edges.
func (g *grid) eachNear(k cellKey, fn func(*Radio)) {
	for cy := k.y - 2; cy <= k.y+2; cy++ {
		for cx := k.x - 2; cx <= k.x+2; cx++ {
			for _, r := range g.cells[cellKey{cx, cy}] {
				fn(r)
			}
		}
	}
}
