package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"lorameshmon/internal/metrics"
)

// forceSweep makes db's next Retain or Prune walk the whole store, as
// every call did before the watermark gate.
func (db *DB) forceSweep() { db.wm.Store(negInfBits) }

// dumpString renders db's full contents deterministically: series in
// canonical label order, NaN-safe (unlike reflect.DeepEqual).
func dumpString(db *DB) string {
	d := db.Dump()
	for _, sds := range d.Metrics {
		sort.Slice(sds, func(i, j int) bool { return sds[i].Labels.canonical() < sds[j].Labels.canonical() })
	}
	return fmt.Sprintf("%+v", d)
}

// requireSameStore fails unless gated and full answer every observable
// question identically.
func requireSameStore(t *testing.T, where string, gated, full *DB, now float64) {
	t.Helper()
	if g, f := gated.SeriesCount(), full.SeriesCount(); g != f {
		t.Fatalf("%s: SeriesCount gated %d, full sweep %d", where, g, f)
	}
	if g, f := gated.PointCount(), full.PointCount(); g != f {
		t.Fatalf("%s: PointCount gated %d, full sweep %d", where, g, f)
	}
	if g, f := gated.MetricNames(), full.MetricNames(); !reflect.DeepEqual(g, f) {
		t.Fatalf("%s: MetricNames gated %v, full sweep %v", where, g, f)
	}
	for _, from := range []float64{math.Inf(-1), -1e5, 0, now - 7200, now - 3600, now - 900, now - 60, now} {
		for _, step := range []float64{0, 30, 60, 600, 3600, 7200} {
			if g, f := gated.PickTier(from, step), full.PickTier(from, step); g != f {
				t.Fatalf("%s: PickTier(%g, %g) gated %s, full sweep %s", where, from, step, g, f)
			}
		}
	}
	if g, f := dumpString(gated), dumpString(full); g != f {
		t.Fatalf("%s: Dump differs\n gated %s\n  full %s", where, g, f)
	}
}

// TestRetainMatchesFullSweep drives a gated store and one forced to
// sweep on every call through the same seeded operations — ascending,
// out-of-order and older-than-everything appends, NaN and ±Inf
// timestamps, registered-but-empty handles, interleaved Retain and
// Prune (including NaN and lowered cutoffs) and mid-sequence gob
// Dump/Load round trips — and requires every call to drop the same
// count and leave the same store. It also requires the gate to have
// skipped.
func TestRetainMatchesFullSweep(t *testing.T) {
	var runs, sweeps float64
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specials := seed%3 == 0 // NaN/±Inf timestamps and cutoffs
		tiers := seed%4 != 0
		var ret Retention
		if tiers {
			horizon := func(h float64) float64 {
				if rng.Intn(3) == 0 {
					return 0
				}
				return h * (0.5 + rng.Float64())
			}
			ret = Retention{RawS: horizon(600), Rollup1mS: horizon(3000), Rollup1hS: horizon(20000)}
		}
		gated, full := New(), New()
		for _, db := range []*DB{gated, full} {
			db.Instrument(metrics.NewRegistry())
			db.SetSealEvery(4 + int(seed%7)*int(seed%7)*3)
			if tiers {
				db.ConfigureTiers(ret)
			}
		}
		var hg, hf []*Series
		now, oldest := 0.0, 0.0
		special := func() (float64, bool) {
			if !specials || rng.Intn(25) != 0 {
				return 0, false
			}
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)], true
		}
		for step := 0; step < 400; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			op := rng.Intn(100)
			switch {
			case op < 50: // append through the by-labels path
				ts := now
				switch k := rng.Intn(10); {
				case k < 6:
					now += rng.Float64() * 40
					ts = now
				case k < 9:
					ts = now - rng.Float64()*900
				default:
					oldest -= 100 + rng.Float64()*5000
					ts = oldest
				}
				if s, ok := special(); ok {
					ts = s
				}
				name := fmt.Sprintf("m%d", rng.Intn(3))
				lbl := Labels{"node": fmt.Sprint(rng.Intn(6))}
				v := rng.NormFloat64()
				gated.Append(name, lbl, ts, v)
				full.Append(name, lbl, ts, v)
			case op < 58: // register a handle, often never appended to
				lbl := Labels{"node": fmt.Sprint(rng.Intn(8)), "h": "1"}
				hg = append(hg, gated.Series("h", lbl))
				hf = append(hf, full.Series("h", lbl))
			case op < 66 && len(hg) > 0: // append through a handle
				i := rng.Intn(len(hg))
				ts := now - rng.Float64()*100
				hg[i].Append(ts, 1)
				hf[i].Append(ts, 1)
			case op < 92: // retention
				var g, f int
				if rng.Intn(2) == 0 {
					at := now
					if rng.Intn(4) == 0 {
						at -= rng.Float64() * 5000
					}
					if s, ok := special(); ok {
						at = s
					}
					full.forceSweep()
					g, f = gated.Retain(at), full.Retain(at)
				} else {
					before := now - rng.Float64()*3000
					if s, ok := special(); ok {
						before = s
					}
					full.forceSweep()
					g, f = gated.Prune(before), full.Prune(before)
				}
				if g != f {
					t.Fatalf("%s: dropped gated %d, full sweep %d", where, g, f)
				}
				requireSameStore(t, where, gated, full, now)
			case op < 95: // snapshot/restore both stores
				for _, db := range []*DB{gated, full} {
					if err := db.Load(gobDump(t, db)); err != nil {
						t.Fatal(err)
					}
				}
				requireSameStore(t, where, gated, full, now)
			}
		}
		m := gated.inst.Load()
		runs += m.pruneRuns.Value()
		sweeps += m.retentionSweeps.Value()
	}
	if sweeps > 0.9*runs {
		t.Fatalf("gate skipped too rarely: %v sweeps in %v calls", sweeps, runs)
	}
}

// TestRetainMatchesFullSweepEdges pins cases random sequences rarely
// reach. A NaN appended mid-head, or as a series' first sample,
// survives a sweep that evicts nothing, and a later cutoff below every
// real timestamp still drops samples, because the binary search over a
// head holding NaN does. A new series' first rollup bucket starts
// before its sample, so the append must lower the watermark to the
// bucket start, not the sample.
func TestRetainMatchesFullSweepEdges(t *testing.T) {
	appendAll := func(db *DB, name string, tss ...float64) {
		for _, ts := range tss {
			db.Append(name, nil, ts, 1)
		}
	}
	cases := []struct {
		name  string
		setup func(db *DB)
		call  func(db *DB) int
	}{
		{"NaN mid-head", func(db *DB) {
			db.SetSealEvery(100)
			appendAll(db, "m", 5, 6, math.NaN(), 7, 8)
			db.Retain(0) // no horizons: removes empty series only, and arms
		}, func(db *DB) int { return db.Prune(1) }},
		{"NaN first sample", func(db *DB) {
			db.SetSealEvery(100)
			appendAll(db, "m", math.NaN(), 5, 6, 7)
			db.Retain(0)
		}, func(db *DB) int { return db.Prune(1) }},
		{"bucket start before sample", func(db *DB) {
			db.ConfigureTiers(Retention{Rollup1mS: 1000})
			appendAll(db, "a", 1000, 1050, 1100)
			db.Retain(1100)
			appendAll(db, "b", 500) // opens the 1m bucket at 480
		}, func(db *DB) int { return db.Retain(1490) }},
	}
	for _, c := range cases {
		gated, full := New(), New()
		c.setup(gated)
		c.setup(full)
		full.forceSweep()
		if g, f := c.call(gated), c.call(full); g != f {
			t.Fatalf("%s: dropped gated %d, full sweep %d", c.name, g, f)
		}
		requireSameStore(t, c.name, gated, full, 1500)
	}
}

// TestRetainSkipsWhenNothingExpired pins the skip path's contract: no
// walk, cuts still advance, the call is counted and returns 0; and a
// registered-but-empty series still forces the next call to sweep.
func TestRetainSkipsWhenNothingExpired(t *testing.T) {
	db := New()
	reg := metrics.NewRegistry()
	db.Instrument(reg)
	db.ConfigureTiers(Retention{RawS: 600, Rollup1mS: 3600})
	for i := 0; i < 100; i++ {
		db.Append("m", Labels{"node": "a"}, 1000+float64(i), 1)
	}
	db.Retain(1100) // arms; nothing older than 500 or -2500
	m := db.inst.Load()
	sweeps := m.retentionSweeps.Value()
	if got := db.Retain(1200); got != 0 {
		t.Fatalf("Retain(1200) dropped %d, want 0", got)
	}
	if m.retentionSweeps.Value() != sweeps {
		t.Fatal("Retain swept although nothing had expired")
	}
	if m.pruneRuns.Value() != 2 {
		t.Fatalf("prune runs = %v, want 2", m.pruneRuns.Value())
	}
	if db.cuts != [1 + tierCount]float64{600, 0, 0} {
		t.Fatalf("cuts = %v, want raw 600 (1m cutoff still below 0)", db.cuts)
	}
	db.Series("m", Labels{"node": "empty"})
	db.Retain(1200)
	if m.retentionSweeps.Value() != sweeps+1 || db.SeriesCount() != 1 {
		t.Fatalf("empty handle series not swept: sweeps %v, series %d", m.retentionSweeps.Value(), db.SeriesCount())
	}
	if got := db.Retain(1700); got != 100 || db.SeriesCount() != 1 {
		t.Fatalf("Retain(1700) dropped %d (series %d), want all 100 raw samples", got, db.SeriesCount())
	}
}

// TestRetainRaceOutOfOrderAppends hammers a Retain loop with
// out-of-order appenders whose samples straddle the moving cutoff. Once
// they stop, a gated Retain followed by a forced full sweep at the same
// cutoff must evict nothing: no append's watermark update was lost to
// a concurrent sweep.
func TestRetainRaceOutOfOrderAppends(t *testing.T) {
	for _, tiers := range []bool{false, true} {
		db := New()
		db.SetSealEvery(16)
		const rawS = 100.0
		if tiers {
			db.ConfigureTiers(Retention{RawS: rawS, Rollup1mS: 2 * rawS})
		}
		retain := func(now float64) int {
			if tiers {
				return db.Retain(now)
			}
			return db.Prune(now - rawS)
		}
		var now atomic.Int64
		now.Store(int64(rawS))
		retain(rawS) // arm
		var wg sync.WaitGroup
		var running atomic.Int32
		for w := 0; w < 4; w++ {
			wg.Add(1)
			running.Add(1)
			go func(w int) {
				defer wg.Done()
				defer running.Add(-1)
				rng := rand.New(rand.NewSource(int64(w)))
				hs := make([]*Series, 8)
				for i := range hs {
					hs[i] = db.Series("m", Labels{"w": fmt.Sprint(w), "i": fmt.Sprint(i)})
				}
				for n := 0; n < 20000; n++ {
					cut := float64(now.Load()) - rawS
					hs[rng.Intn(len(hs))].Append(cut+rng.Float64()*40-20, 1)
				}
			}(w)
		}
		for running.Load() > 0 {
			retain(float64(now.Add(1)))
		}
		wg.Wait()
		final := float64(now.Load())
		retain(final)
		before := dumpString(db)
		db.forceSweep()
		if got := retain(final); got != 0 || dumpString(db) != before {
			t.Fatalf("tiers=%v: forced full sweep after the gated one still evicted (%d raw samples)", tiers, got)
		}
	}
}

// TestNaNTimestampNeverStored: a sample with a NaN timestamp has no
// place in time order, so Append refuses it — every read then agrees
// on the samples that are stored, retention drops exactly those below
// its cutoff, and no count or metric sees the refused sample. Load
// drops NaN-timestamp head points that older dumps may hold.
func TestNaNTimestampNeverStored(t *testing.T) {
	nan := math.NaN()
	db := New()
	db.ConfigureTiers(Retention{})
	db.Instrument(metrics.NewRegistry())
	m := db.inst.Load()
	lbl := Labels{"node": "a"}
	for _, ts := range []float64{3, nan, 1, 2} {
		db.Append("m", lbl, ts, ts)
	}
	want := []Point{{1, 1}, {2, 2}}
	if r, _ := db.QueryOne("m", lbl, 0, 2.5); !reflect.DeepEqual(r.Points, want) {
		t.Fatalf("QueryOne = %v, want %v", r.Points, want)
	}
	it, _ := db.IterOne("m", lbl, 0, 2.5)
	var got []Point
	for it.Next() {
		ts, v := it.At()
		got = append(got, Point{ts, v})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("IterOne = %v, want %v", got, want)
	}
	if n, sum := db.AggregateRange("m", nil, 0, 2.5, AggCount), db.AggregateRange("m", nil, 0, 2.5, AggSum); n != 2 || sum != 3 {
		t.Fatalf("AggregateRange count %v sum %v, want 2 and 3", n, sum)
	}
	if r := db.QueryRange("m", nil, 0, 2.5, 1, AggSum); len(r) != 1 || !reflect.DeepEqual(r[0].Points, want) {
		t.Fatalf("QueryRange = %v, want one series %v", r, want)
	}
	if db.PointCount() != 3 || m.appends.Value() != 3 || m.rollupOOO.Value() != 0 {
		t.Fatalf("PointCount %d, appends %v, rollup OOO %v; want 3, 3, 0", db.PointCount(), m.appends.Value(), m.rollupOOO.Value())
	}

	for _, ts := range []float64{nan, 1, 2} {
		db.Append("n", nil, ts, ts)
	}
	if p, _ := db.Latest("n", nil); p != (Point{2, 2}) {
		t.Fatalf("Latest = %v, want {2 2}", p)
	}
	db.Append("new", nil, nan, 1)
	h := db.Series("h", nil)
	h.Append(nan, 1)
	if r, ok := db.QueryOne("h", nil, math.Inf(-1), math.Inf(1)); !ok || len(r.Points) != 0 || db.SeriesCount() != 3 {
		t.Fatalf("NaN-only handle holds %v (ok %v), %d series; want none, true, 3", r.Points, ok, db.SeriesCount())
	}

	if got := db.Prune(2.5); got != 4 {
		t.Fatalf("Prune(2.5) dropped %d, want 4 (1 and 2 of both series)", got)
	}
	if r, _ := db.QueryOne("m", lbl, math.Inf(-1), math.Inf(1)); !reflect.DeepEqual(r.Points, []Point{{3, 3}}) {
		t.Fatalf("after Prune(2.5) m holds %v, want [{3 3}]", r.Points)
	}
	// n keeps its rollup buckets; the NaN-only handle's series is gone.
	if names := db.MetricNames(); !reflect.DeepEqual(names, []string{"m", "n"}) || db.PointCount() != 1 {
		t.Fatalf("after Prune(2.5): metrics %v, %d points; want [m n] and 1", names, db.PointCount())
	}

	dump := SnapshotDump{Version: 2, Metrics: map[string][]SeriesDump{
		"m": {{Labels: lbl, Points: []Point{{1, 1}, {nan, 9}, {2, 2}}, Last: Point{2, 2}, HasLast: true}},
	}}
	if err := db.Load(dump); err != nil {
		t.Fatal(err)
	}
	if r, _ := db.QueryOne("m", lbl, math.Inf(-1), math.Inf(1)); !reflect.DeepEqual(r.Points, want) || db.PointCount() != 2 {
		t.Fatalf("Load kept %v (%d points), want %v", r.Points, db.PointCount(), want)
	}
}

// TestNaNCutoffEvictsNothing: a cutoff drops exactly the samples with
// TS < before, which for a NaN cutoff is none — in chunks, heads and
// rollup tiers alike.
func TestNaNCutoffEvictsNothing(t *testing.T) {
	db := New()
	db.SetSealEvery(8)
	db.ConfigureTiers(Retention{RawS: 100, Rollup1mS: 1000, Rollup1hS: 10000})
	for i := 0; i < 300; i++ {
		db.Append("m", Labels{"node": fmt.Sprint(i % 3)}, float64(i*7%500), float64(i))
	}
	before := dumpString(db)
	for name, evict := range map[string]func() int{
		"Prune(NaN)":  func() int { return db.Prune(math.NaN()) },
		"Retain(NaN)": func() int { return db.Retain(math.NaN()) },
	} {
		db.forceSweep()
		if got := evict(); got != 0 || dumpString(db) != before {
			t.Fatalf("%s dropped %d samples, want 0 and an unchanged store", name, got)
		}
	}
}
