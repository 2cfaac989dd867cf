package tsdb

import (
	"math"
	"time"
)

// Tiered retention. Raw samples answer high-resolution queries over the
// recent past; 1-minute and 1-hour rollup tiers keep count/sum/min/max/
// last per bucket so trend queries over days or weeks stay cheap after
// the raw points are gone — the stdlib-only equivalent of the retention
// policies + continuous queries the smart-campus deployment configures
// in InfluxDB. Rollups are maintained on the append path (one open
// bucket per tier per series, folded in O(1) per sample) and stored in
// the same compressed chunk format as raw data, five value columns per
// bucket. Range queries pick the coarsest tier whose bucket width still
// satisfies the requested resolution — and climb to a coarser one when
// retention has already evicted the finer tier at the start of the
// requested range.

const (
	// tierCount is the number of rollup tiers (1m, 1h) layered above raw.
	tierCount = 2
	// rollupCols is the number of value columns per rollup bucket:
	// count, sum, min, max, last.
	rollupCols = 5
	// rollupSealEvery is the rollup head size that triggers compression:
	// 240 one-minute buckets = 4 h, 240 one-hour buckets = 10 d.
	rollupSealEvery = 240
)

// tierSteps are the rollup bucket widths in seconds, finest first.
var tierSteps = [tierCount]float64{60, 3600}

// tierNames name the tiers for metrics and experiment output; index 0
// is the raw tier, index t+1 is rollup tier t.
var tierNames = [1 + tierCount]string{"raw", "1m", "1h"}

// rollState is one rollup tier of one series: sealed chunks, the open
// chunk its closed buckets are encoded into (buckets close in time
// order), and the single open bucket that the append path folds into.
// Guarded by the owning series' mutex.
type rollState struct {
	sealed  chunkList
	head    Encoder
	open    RollupSample
	hasOpen bool
}

// feed folds one sample into the tier. A sample whose bucket is older
// than the open one cannot be merged retroactively — it is dropped from
// this tier (and counted); the raw tier keeps it, so only downsampled
// history is approximate under heavy reordering. Callers hold the
// series mutex.
func (rs *rollState) feed(db *DB, step, ts, value float64) {
	if rs.hasOpen && ts >= rs.open.TS && ts-rs.open.TS < step {
		// Hot path: the sample lands in the open bucket (no Floor).
		// Equivalent to bucket == open.TS since open.TS is always a
		// multiple of step.
		rs.open.add(ts, value)
		return
	}
	b := RollupSample{TS: math.Floor(ts/step) * step, Count: 1, Sum: value, Min: value, Max: value, Last: value, lastTS: ts}
	switch {
	case !rs.hasOpen:
		rs.open, rs.hasOpen = b, true
	case b.TS > rs.open.TS:
		rs.push(rs.open)
		if rs.head.count >= rollupSealEvery {
			rs.sealed.seal(db, &db.roll, &rs.head)
		}
		rs.open = b
	default:
		// Too old for the open bucket.
		if m := db.inst.Load(); m != nil {
			m.rollupOOO.Inc()
		}
	}
}

// push encodes a closed bucket into the head. Callers hold the series
// mutex.
func (rs *rollState) push(b RollupSample) {
	if rs.head.count == 0 {
		rs.head.Reset(rollupCols)
	}
	vals := [rollupCols]float64{b.Count, b.Sum, b.Min, b.Max, b.Last}
	rs.head.AppendVals(b.TS, vals[:])
}

// count returns the number of buckets held by the tier. Callers hold
// the series mutex.
func (rs *rollState) count() int {
	n := rs.head.Count() + rs.sealed.count()
	if rs.hasOpen {
		n++
	}
	return n
}

// empty reports whether the tier holds no bucket. Callers hold the
// series mutex.
func (rs *rollState) empty() bool {
	return len(rs.sealed.chunks) == 0 && rs.head.count == 0 && !rs.hasOpen
}

// prune drops buckets with TS < before. Callers hold the series mutex.
func (rs *rollState) prune(db *DB, before float64) {
	rs.sealed.prune(&db.roll, before)
	if rs.head.count > 0 && rs.head.minTS() < before {
		c := rs.head.view()
		rs.head, _ = keepFrom(&c, before)
	}
	if rs.hasOpen && rs.open.TS < before {
		rs.hasOpen = false
	}
}

// rollSnap is a point-in-time view of one series' rollup tier, readable
// without locks: chunks are immutable, the head is a view and the open
// bucket a copy.
type rollSnap struct {
	chunks  seriesSnap
	open    RollupSample
	hasOpen bool
}

// snapshot captures the tier under the series mutex.
func (rs *rollState) snapshot() rollSnap {
	return rollSnap{chunks: seriesSnap{blocks: rs.sealed.chunks, open: rs.head.view()}, open: rs.open, hasOpen: rs.hasOpen}
}

// rebucket buckets the tier's buckets with from <= TS <= to onto the
// grid — the rollup tiers of QueryRange.
func (sn *rollSnap) rebucket(from, to, step float64, agg Agg) []Point {
	g := grid{from: from, step: step, agg: agg, hint: gridHint(sn.chunks.estimate(from, to)+1, from, to, step)}
	add := func(b RollupSample) {
		if b.TS >= from && b.TS <= to {
			g.add(b.TS, b.Count, b.Sum, b.Min, b.Max, b.Last, b.lastTS)
		}
	}
	for i := 0; ; i++ {
		c, tail := sn.chunks.chunk(i)
		if c == nil {
			break
		}
		if c.MaxTS < from || c.MinTS > to {
			continue
		}
		it := c.iter(tail)
		for it.Next() {
			add(it.bucket())
		}
	}
	if sn.hasOpen {
		add(sn.open)
	}
	g.flush()
	return g.out
}

// gridHint bounds the buckets a grid of width step over [from, to]
// makes of at most n input samples or buckets.
func gridHint(n int, from, to, step float64) int {
	if b := (to-from)/step + 1; b < float64(n) {
		return max(int(b), 0)
	}
	return n
}

// Retention configures the per-tier horizons, in seconds before the
// newest data; zero keeps a tier forever.
type Retention struct {
	RawS      float64 // raw samples
	Rollup1mS float64 // 1-minute buckets
	Rollup1hS float64 // 1-hour buckets
}

// ConfigureTiers enables the rollup tiers and sets retention horizons.
// Call at wiring time, before the store sees traffic: tiers are fed on
// the append path, so samples appended beforehand never reach them.
func (db *DB) ConfigureTiers(r Retention) {
	db.tiersOn = true
	db.retain = [1 + tierCount]float64{r.RawS, r.Rollup1mS, r.Rollup1hS}
	db.wm.Store(negInfBits) // the tiers that can evict changed: sweep next time
}

// tierCounts returns how many series have data in rollup tier t and the
// total bucket count across them.
func (db *DB) tierCounts(t int) (seriesN, points int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, mi := range db.metrics {
		for _, s := range mi.all {
			s.mu.Lock()
			if s.rolls == nil {
			} else if n := s.rolls[t].count(); n > 0 {
				seriesN++
				points += n
			}
			s.mu.Unlock()
		}
	}
	return
}

// pickTier chooses the tier for a range query starting at from with
// bucket width step: the coarsest tier whose native resolution still
// satisfies step, climbing to a coarser tier when retention has already
// evicted the preferred one at from.
func (db *DB) pickTier(from, step float64) int {
	if !db.tiersOn || step <= 0 {
		return 0
	}
	db.mu.RLock()
	cuts := db.cuts
	db.mu.RUnlock()
	t := 0
	for i := 0; i < tierCount; i++ {
		if step >= tierSteps[i] {
			t = i + 1
		}
	}
	for t < tierCount && from < cuts[t] {
		t++
	}
	return t
}

// PickTier reports which tier ("raw", "1m", "1h") a QueryRange with
// this from/step would read — exposed for tests and experiments.
func (db *DB) PickTier(from, step float64) string {
	return tierNames[db.pickTier(from, step)]
}

// QueryRange answers a resolution-aware range query: every series of
// the metric whose labels contain matcher, bucketed onto a grid of
// width step aligned to from and reduced with agg. The store reads the
// coarsest tier that satisfies the requested resolution and range (see
// pickTier); on the raw tier the result is identical to Query followed
// by Downsample, without materialising the raw points. step <= 0
// returns the raw points unbucketed.
func (db *DB) QueryRange(name string, matcher Labels, from, to, step float64, agg Agg) []Result {
	if step <= 0 {
		return db.Query(name, matcher, from, to)
	}
	defer db.observeQuery(time.Now())
	tier := db.pickTier(from, step)
	matched := db.match(name, matcher)
	out := make([]Result, 0, len(matched))
	for _, s := range matched {
		var pts []Point
		if tier == 0 {
			sn := snap(s)
			pts = rawGrid(sn.Iter(from, to), from, step, agg, gridHint(sn.estimate(from, to), from, to, step))
		} else {
			var sn rollSnap
			s.mu.Lock()
			if s.rolls != nil {
				sn = s.rolls[tier-1].snapshot()
			}
			s.mu.Unlock()
			pts = sn.rebucket(from, to, step, agg)
		}
		out = append(out, Result{Labels: exportLabels(s.labels), Points: pts})
	}
	return out
}
