package tsdb

import "math"

// Retention without store-wide sweeps when nothing has expired.
//
// Evicting data means visiting every series under the index write lock,
// which costs O(store) however little has expired — and the collector
// calls Retain after every accepted batch. The store therefore keeps a
// watermark: a lower bound on the oldest timestamp retention could
// still evict, over the raw tier and the bucket starts of every rollup
// tier that has a horizon. Retain and Prune walk the store only when
// some cutoff they apply is above the watermark, or when a series has
// been registered but never appended to (the walk removes empty
// series). Otherwise they only advance the tier-selection cuts.
//
// Appends lower the watermark with a CAS-min under their series lock.
// Only a sweep raises it: the sweep resets it to +Inf before its walk
// and CAS-mins the oldest timestamp it left behind at the end, so an
// out-of-order append landing mid-walk is never lost. Stores that never
// evict must not pay for this on append, so a series maintains the
// watermark only once armed, by the first sweep that visits it (series
// created later are armed at birth). -Inf is the "unknown" value New,
// ConfigureTiers and Load start from: a watermark of -Inf always
// sweeps.

// negInfBits is the watermark's unknown value.
var negInfBits = math.Float64bits(math.Inf(-1))

// evictAt is one retention request: per tier (raw, 1m, 1h), whether to
// evict and below which timestamp.
type evictAt struct {
	on     [1 + tierCount]bool
	before [1 + tierCount]float64
}

// Prune drops every raw sample with TS < before and removes series that
// are empty across every tier. It returns how many raw samples were
// dropped. (With rollup tiers configured, prefer Retain, which applies
// each tier's own horizon.)
func (db *DB) Prune(before float64) int {
	var req evictAt
	req.on[0], req.before[0] = true, before
	return db.evict(req)
}

// Retain applies every configured retention horizon relative to now
// (normally the newest ingested timestamp): each tier independently
// evicts data older than its horizon, and series empty across all tiers
// are removed. It returns the number of raw samples dropped.
func (db *DB) Retain(now float64) int {
	var req evictAt
	for t, h := range db.retain {
		if h > 0 {
			req.on[t], req.before[t] = true, now-h
		}
	}
	return db.evict(req)
}

// evict advances the tier-selection cuts and sweeps the store if req
// could change it.
func (db *DB) evict(req evictAt) int {
	dropped := 0
	db.mu.Lock()
	for t, on := range req.on {
		if on && req.before[t] > db.cuts[t] {
			db.cuts[t] = req.before[t]
		}
	}
	sweep := db.mustSweep(req)
	if sweep {
		dropped = db.sweepLocked(req)
	}
	db.mu.Unlock()
	db.points.Add(int64(-dropped))
	if m := db.inst.Load(); m != nil {
		m.pruneRuns.Inc()
		if sweep {
			m.retentionSweeps.Inc()
		}
		m.pruneDropped.Add(float64(dropped))
	}
	return dropped
}

// mustSweep reports whether req could change the store: a registered
// series is still empty, the watermark is unknown, or some cutoff is
// above it (a NaN cutoff compares as above). Callers hold the index
// write lock.
func (db *DB) mustSweep(req evictAt) bool {
	wm := math.Float64frombits(db.wm.Load())
	if db.fresh.Load() > 0 || math.IsInf(wm, -1) {
		return true
	}
	for t, on := range req.on {
		if on && !(req.before[t] <= wm) {
			return true
		}
	}
	return false
}

// sweepLocked walks every series once: it applies req's cutoffs,
// removes series left empty across every tier (and metric names left
// without series), arms each series and raises the watermark to the
// oldest evictable timestamp left behind. Callers hold the index write
// lock. It returns how many raw samples were dropped.
func (db *DB) sweepLocked(req evictAt) int {
	db.armed = true
	db.wm.Store(math.Float64bits(math.Inf(1)))
	oldest := math.Inf(1)
	dropped := 0
	for name, mi := range db.metrics {
		dead := false
		for _, s := range mi.all {
			s.mu.Lock()
			s.armed = true
			if req.on[0] {
				dropped += s.pruneRaw(db, req.before[0])
			}
			for t := range s.rolls {
				if req.on[t+1] && s.rolls != nil {
					s.rolls[t].prune(db, req.before[t+1])
				}
			}
			if s.rawCount() == 0 && !s.hasRollupData() {
				s.dead, dead = true, true // cached Series handles re-register on next Append
			} else if o := s.oldest(db); o < oldest {
				oldest = o
			}
			s.mu.Unlock()
		}
		if dead {
			mi.dropDead()
		}
		if len(mi.all) == 0 {
			delete(db.metrics, name)
		}
	}
	db.fresh.Store(0) // every never-appended series was empty, so removed
	db.lowerWatermark(oldest)
	return dropped
}

// oldest returns the smallest timestamp a cutoff could still evict from
// the series: the raw tier's, and the bucket starts of every rollup
// tier with a horizon. Callers hold s.mu.
func (s *series) oldest(db *DB) float64 {
	low := s.sealed.oldest(s.head.oldest())
	for t := range s.rolls {
		if db.retain[t+1] <= 0 || s.rolls == nil {
			continue
		}
		rs := &s.rolls[t]
		low = rs.sealed.oldest(low)
		if rs.head.count > 0 && rs.head.minTS() < low {
			low = rs.head.minTS()
		}
		if rs.hasOpen && rs.open.TS < low {
			low = rs.open.TS
		}
	}
	return low
}

// evictBound is the watermark contribution of a sample appended at ts:
// ts itself, or its bucket start in a rollup tier with a horizon when
// that is older.
func (db *DB) evictBound(ts float64) float64 {
	low := ts
	for t, step := range tierSteps {
		if db.retain[t+1] > 0 {
			if b := math.Floor(ts/step) * step; b < low {
				low = b
			}
		}
	}
	return low
}

// lowerWatermark CAS-mins v into the watermark.
func (db *DB) lowerWatermark(v float64) {
	for {
		cur := db.wm.Load()
		if !(v < math.Float64frombits(cur)) || db.wm.CompareAndSwap(cur, math.Float64bits(v)) {
			return
		}
	}
}
