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

// RollupSample is one downsampled bucket: every aggregation the store
// supports is answerable from these five numbers, so re-bucketing to a
// coarser, caller-aligned grid loses nothing. Exported for gob snapshot
// encoding.
type RollupSample struct {
	TS    float64 // bucket start (inclusive)
	Count float64
	Sum   float64
	Min   float64
	Max   float64
	Last  float64 // value of the newest sample in the bucket
}

// fold merges b into acc (acc's TS is kept). Buckets arrive in time
// order, so b's Last supersedes acc's.
func (acc *RollupSample) fold(b RollupSample) {
	acc.Count += b.Count
	acc.Sum += b.Sum
	if b.Min < acc.Min {
		acc.Min = b.Min
	}
	if b.Max > acc.Max {
		acc.Max = b.Max
	}
	acc.Last = b.Last
}

// value answers agg from the bucket's five columns.
func (acc RollupSample) value(agg Agg) float64 {
	switch agg {
	case AggCount:
		return acc.Count
	case AggSum:
		return acc.Sum
	case AggAvg:
		return acc.Sum / acc.Count
	case AggMin:
		return acc.Min
	case AggMax:
		return acc.Max
	case AggLast:
		return acc.Last
	default:
		panic("tsdb: unknown aggregation " + string(agg))
	}
}

// rollState is one rollup tier of one series: sealed chunks, the open
// chunk its closed buckets are encoded into (buckets close in time
// order), and the single open bucket that the append path folds into.
// Guarded by the owning series' mutex.
type rollState struct {
	sealed chunkList
	head   Encoder
	// open is the in-progress bucket; openLastTS is the timestamp of
	// the newest sample folded into it (tracks which value is Last).
	open       RollupSample
	openLastTS float64
	hasOpen    bool
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
		rs.open.Count++
		rs.open.Sum += value
		if value < rs.open.Min {
			rs.open.Min = value
		}
		if value > rs.open.Max {
			rs.open.Max = value
		}
		if ts >= rs.openLastTS {
			rs.open.Last = value
			rs.openLastTS = ts
		}
		return
	}
	bucket := math.Floor(ts/step) * step
	if !rs.hasOpen {
		rs.open = RollupSample{TS: bucket, Count: 1, Sum: value, Min: value, Max: value, Last: value}
		rs.openLastTS = ts
		rs.hasOpen = true
		return
	}
	switch {
	case bucket > rs.open.TS:
		rs.push(rs.open)
		if rs.head.count >= rollupSealEvery {
			rs.sealed.seal(db, &db.roll, &rs.head)
		}
		rs.open = RollupSample{TS: bucket, Count: 1, Sum: value, Min: value, Max: value, Last: value}
		rs.openLastTS = ts
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

// visitRange streams the tier's buckets with from <= TS <= to, in time
// order, to fn.
func (sn rollSnap) visitRange(from, to float64, fn func(RollupSample)) {
	emit := func(b RollupSample) {
		if b.TS >= from && b.TS <= to {
			fn(b)
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
			emit(it.bucket())
		}
	}
	if sn.hasOpen {
		emit(sn.open)
	}
}

// downsample re-buckets the tier's native buckets onto a grid of width
// step aligned to from, and reduces each output bucket with agg. Tier
// buckets are attributed to the output bucket containing their start;
// empty output buckets are omitted — the rollup-tier analogue of
// Downsample.
func (sn rollSnap) downsample(from, to, step float64, agg Agg) []Point {
	var out []Point
	var acc RollupSample
	have := false
	curIdx := 0.0
	flush := func() {
		if !have {
			return
		}
		out = append(out, Point{TS: from + curIdx*step, Value: acc.value(agg)})
		have = false
	}
	sn.visitRange(from, to, func(b RollupSample) {
		idx := math.Floor((b.TS - from) / step)
		if have && idx != curIdx {
			flush()
		}
		if !have {
			acc, curIdx, have = b, idx, true
			return
		}
		acc.fold(b)
	})
	flush()
	return out
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

// TiersEnabled reports whether rollup tiers are being maintained.
func (db *DB) TiersEnabled() bool { return db.tiersOn }

// tierCounts returns how many series have data in rollup tier t and the
// total bucket count across them.
func (db *DB) tierCounts(t int) (seriesN, points int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, byLabels := range db.metrics {
		for _, s := range byLabels {
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

// downsampleIter streams raw points into from-aligned buckets of width
// step — Downsample without materialising the input.
func downsampleIter(it Iter, from, step float64, agg Agg) []Point {
	var out []Point
	var bucket []Point
	have := false
	curIdx := 0.0
	flush := func() {
		if !have {
			return
		}
		out = append(out, Point{TS: from + curIdx*step, Value: Aggregate(bucket, agg)})
		bucket = bucket[:0]
		have = false
	}
	for it.Next() {
		ts, v := it.At()
		idx := math.Floor((ts - from) / step)
		if have && idx != curIdx {
			flush()
		}
		if !have {
			curIdx, have = idx, true
		}
		bucket = append(bucket, Point{TS: ts, Value: v})
	}
	flush()
	return out
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
			pts = downsampleIter(snap(s).Iter(from, to), from, step, agg)
		} else {
			var sn rollSnap
			s.mu.Lock()
			if s.rolls != nil {
				sn = s.rolls[tier-1].snapshot()
			}
			s.mu.Unlock()
			pts = sn.downsample(from, to, step, agg)
		}
		out = append(out, Result{Labels: exportLabels(s.labels), Points: pts})
	}
	return out
}
