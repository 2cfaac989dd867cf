package tsdb

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAppendAndQueryOne(t *testing.T) {
	db := New()
	lbl := Labels{"node": "N0001"}
	for i := 0; i < 10; i++ {
		db.Append("rx_total", lbl, float64(i), float64(i*2))
	}
	res, ok := db.QueryOne("rx_total", lbl, 2, 5)
	if !ok {
		t.Fatal("series not found")
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4 (ts 2..5 inclusive)", len(res.Points))
	}
	if res.Points[0].TS != 2 || res.Points[3].TS != 5 {
		t.Fatalf("range = %+v", res.Points)
	}
	if _, ok := db.QueryOne("rx_total", Labels{"node": "N0002"}, 0, 10); ok {
		t.Fatal("missing series found")
	}
}

func TestOutOfOrderAppendsAreSorted(t *testing.T) {
	db := New()
	lbl := Labels{"n": "1"}
	for _, ts := range []float64{5, 1, 3, 2, 4} {
		db.Append("m", lbl, ts, ts)
	}
	res, _ := db.QueryOne("m", lbl, 0, 10)
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].TS < res.Points[i-1].TS {
			t.Fatalf("unsorted result: %+v", res.Points)
		}
	}
}

func TestQueryLabelMatching(t *testing.T) {
	db := New()
	db.Append("tx", Labels{"node": "1", "type": "DATA"}, 1, 1)
	db.Append("tx", Labels{"node": "1", "type": "HELLO"}, 1, 2)
	db.Append("tx", Labels{"node": "2", "type": "DATA"}, 1, 3)

	all := db.Query("tx", nil, 0, 10)
	if len(all) != 3 {
		t.Fatalf("all series = %d, want 3", len(all))
	}
	node1 := db.Query("tx", Labels{"node": "1"}, 0, 10)
	if len(node1) != 2 {
		t.Fatalf("node1 series = %d, want 2", len(node1))
	}
	data := db.Query("tx", Labels{"type": "DATA"}, 0, 10)
	if len(data) != 2 {
		t.Fatalf("DATA series = %d, want 2", len(data))
	}
	none := db.Query("tx", Labels{"node": "9"}, 0, 10)
	if len(none) != 0 {
		t.Fatalf("unexpected match: %+v", none)
	}
}

func TestQueryResultsAreStableAndIsolated(t *testing.T) {
	db := New()
	db.Append("m", Labels{"a": "1"}, 1, 1)
	db.Append("m", Labels{"a": "2"}, 1, 1)
	r1 := db.Query("m", nil, 0, 10)
	r2 := db.Query("m", nil, 0, 10)
	if r1[0].Labels["a"] != r2[0].Labels["a"] || r1[1].Labels["a"] != r2[1].Labels["a"] {
		t.Fatal("query order unstable")
	}
	// Mutating a result must not corrupt the store.
	r1[0].Labels["a"] = "mutated"
	r1[0].Points[0].Value = 999
	r3 := db.Query("m", Labels{"a": "1"}, 0, 10)
	if len(r3) != 1 || r3[0].Points[0].Value != 1 {
		t.Fatal("store state leaked to caller")
	}
}

func TestLatest(t *testing.T) {
	db := New()
	lbl := Labels{"n": "1"}
	if _, ok := db.Latest("m", lbl); ok {
		t.Fatal("latest on empty series")
	}
	db.Append("m", lbl, 5, 50)
	db.Append("m", lbl, 2, 20)
	p, ok := db.Latest("m", lbl)
	if !ok || p.TS != 5 || p.Value != 50 {
		t.Fatalf("latest = %+v", p)
	}
}

func TestCountsAndNames(t *testing.T) {
	db := New()
	db.Append("b", Labels{"x": "1"}, 1, 1)
	db.Append("a", Labels{"x": "1"}, 1, 1)
	db.Append("a", Labels{"x": "2"}, 1, 1)
	db.Append("a", Labels{"x": "2"}, 2, 1)
	names := db.MetricNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	if db.SeriesCount() != 3 {
		t.Fatalf("series = %d, want 3", db.SeriesCount())
	}
	if db.PointCount() != 4 {
		t.Fatalf("points = %d, want 4", db.PointCount())
	}
}

func TestPrune(t *testing.T) {
	db := New()
	lbl := Labels{"n": "1"}
	for i := 0; i < 10; i++ {
		db.Append("m", lbl, float64(i), 1)
	}
	db.Append("old", Labels{"n": "2"}, 1, 1)
	if got := db.Prune(5); got != 6 {
		t.Fatalf("pruned = %d, want 6 (5 from m + 1 old)", got)
	}
	if db.PointCount() != 5 {
		t.Fatalf("points after prune = %d, want 5", db.PointCount())
	}
	res, _ := db.QueryOne("m", lbl, 0, 100)
	if len(res.Points) != 5 || res.Points[0].TS != 5 {
		t.Fatalf("survivors = %+v", res.Points)
	}
	if _, ok := db.QueryOne("old", Labels{"n": "2"}, 0, 100); ok {
		t.Fatal("empty series not removed")
	}
	if len(db.MetricNames()) != 1 {
		t.Fatalf("metric names after prune = %v", db.MetricNames())
	}
}

func TestAggregate(t *testing.T) {
	pts := []Point{{1, 2}, {2, 8}, {3, 5}}
	cases := map[Agg]float64{
		AggSum: 15, AggAvg: 5, AggMin: 2, AggMax: 8, AggCount: 3, AggLast: 5,
	}
	for agg, want := range cases {
		if got := Aggregate(pts, agg); got != want {
			t.Errorf("%s = %v, want %v", agg, got, want)
		}
	}
	if got := Aggregate(nil, AggCount); got != 0 {
		t.Errorf("count(empty) = %v", got)
	}
	if !math.IsNaN(Aggregate(nil, AggSum)) {
		t.Error("sum(empty) not NaN")
	}
}

func TestDownsample(t *testing.T) {
	var pts []Point
	for i := 0; i < 10; i++ {
		pts = append(pts, Point{TS: float64(i), Value: 1})
	}
	buckets := Downsample(pts, 0, 4, AggSum)
	if len(buckets) != 3 {
		t.Fatalf("buckets = %+v", buckets)
	}
	if buckets[0].Value != 4 || buckets[1].Value != 4 || buckets[2].Value != 2 {
		t.Fatalf("bucket sums = %+v", buckets)
	}
	if buckets[0].TS != 0 || buckets[1].TS != 4 || buckets[2].TS != 8 {
		t.Fatalf("bucket starts = %+v", buckets)
	}
	if Downsample(pts, 0, 0, AggSum) != nil {
		t.Fatal("zero step accepted")
	}
	if Downsample(nil, 0, 4, AggSum) != nil {
		t.Fatal("empty input produced buckets")
	}
}

func TestConcurrentAppendAndQuery(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := Labels{"w": string(rune('a' + w))}
			for i := 0; i < 1000; i++ {
				db.Append("m", lbl, float64(i), float64(i))
				if i%100 == 0 {
					db.Query("m", nil, 0, float64(i))
					db.Prune(float64(i) - 500)
				}
			}
		}(w)
	}
	wg.Wait()
	if db.SeriesCount() == 0 {
		t.Fatal("no series after concurrent load")
	}
}

// Property: for any sample set, querying the full range returns exactly
// the appended points, sorted by time.
func TestPropertyAppendQueryComplete(t *testing.T) {
	f := func(tss []uint16) bool {
		db := New()
		lbl := Labels{"n": "1"}
		for _, ts := range tss {
			db.Append("m", lbl, float64(ts), 1)
		}
		res, ok := db.QueryOne("m", lbl, 0, math.MaxFloat64)
		if len(tss) == 0 {
			return !ok
		}
		if !ok || len(res.Points) != len(tss) {
			return false
		}
		for i := 1; i < len(res.Points); i++ {
			if res.Points[i].TS < res.Points[i-1].TS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: downsampled sums preserve the total mass of the series.
func TestPropertyDownsampleMassConservation(t *testing.T) {
	f := func(vals []uint8, stepRaw uint8) bool {
		step := float64(stepRaw%20 + 1)
		var pts []Point
		total := 0.0
		for i, v := range vals {
			pts = append(pts, Point{TS: float64(i), Value: float64(v)})
			total += float64(v)
		}
		buckets := Downsample(pts, 0, step, AggSum)
		sum := 0.0
		for _, b := range buckets {
			sum += b.Value
		}
		return math.Abs(sum-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelsCanonicalAndString(t *testing.T) {
	a := Labels{"b": "2", "a": "1"}
	b := Labels{"a": "1", "b": "2"}
	if a.canonical() != b.canonical() {
		t.Fatal("canonical not order independent")
	}
	if a.String() != "{a=1,b=2}" {
		t.Fatalf("String = %q", a.String())
	}
	if (Labels{}).canonical() != "" {
		t.Fatal("empty labels canonical not empty")
	}
}

func TestAggregateRangeMatchesQueryPlusAggregate(t *testing.T) {
	db := New()
	for s := 0; s < 4; s++ {
		lbl := Labels{"node": string(rune('A' + s)), "kind": "x"}
		for i := 0; i < 50; i++ {
			db.Append("m", lbl, float64(i), float64((i*7+s)%13)-3)
		}
	}
	for _, agg := range []Agg{AggSum, AggAvg, AggMin, AggMax, AggCount, AggLast} {
		var all []Point
		for _, res := range db.Query("m", Labels{"kind": "x"}, 10, 40) {
			all = append(all, res.Points...)
		}
		want := Aggregate(all, agg)
		got := db.AggregateRange("m", Labels{"kind": "x"}, 10, 40, agg)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: AggregateRange = %v, Query+Aggregate = %v", agg, got, want)
		}
	}
}

func TestAggregateRangeEmpty(t *testing.T) {
	db := New()
	if got := db.AggregateRange("missing", nil, 0, 1, AggCount); got != 0 {
		t.Fatalf("count on empty = %v, want 0", got)
	}
	if got := db.AggregateRange("missing", nil, 0, 1, AggSum); !math.IsNaN(got) {
		t.Fatalf("sum on empty = %v, want NaN", got)
	}
}

func TestAggregateRangeLastAcrossSeries(t *testing.T) {
	db := New()
	db.Append("m", Labels{"node": "A"}, 1, 10)
	db.Append("m", Labels{"node": "B"}, 5, 20) // newest overall
	db.Append("m", Labels{"node": "A"}, 3, 30)
	if got := db.AggregateRange("m", nil, 0, 10, AggLast); got != 20 {
		t.Fatalf("last = %v, want 20 (the newest point across matched series)", got)
	}
}

func TestSeriesHandleAppend(t *testing.T) {
	db := New()
	h := db.Series("m", Labels{"node": "A"})
	for i := 0; i < 10; i++ {
		h.Append(float64(i), float64(i*i))
	}
	res, ok := db.QueryOne("m", Labels{"node": "A"}, 0, 100)
	if !ok || len(res.Points) != 10 {
		t.Fatalf("handle appends not visible: ok=%v points=%d", ok, len(res.Points))
	}
	if db.PointCount() != 10 {
		t.Fatalf("PointCount = %d, want 10", db.PointCount())
	}
	// Out-of-order via handle must still be sorted on read.
	h.Append(2.5, 99)
	res, _ = db.QueryOne("m", Labels{"node": "A"}, 2, 3)
	if len(res.Points) != 3 || res.Points[1].Value != 99 {
		t.Fatalf("out-of-order handle append not sorted: %v", res.Points)
	}
}

func TestSeriesHandleSurvivesPrune(t *testing.T) {
	db := New()
	h := db.Series("m", Labels{"node": "A"})
	h.Append(1, 1)
	if n := db.Prune(10); n != 1 {
		t.Fatalf("pruned %d, want 1", n)
	}
	if db.SeriesCount() != 0 {
		t.Fatalf("series not removed by prune")
	}
	h.Append(20, 2) // must transparently re-register
	res, ok := db.QueryOne("m", Labels{"node": "A"}, 0, 100)
	if !ok || len(res.Points) != 1 || res.Points[0].Value != 2 {
		t.Fatalf("append after prune lost: ok=%v res=%v", ok, res.Points)
	}
}

// TestConcurrentReadWrite exercises the RLock read path against
// concurrent ingest (including out-of-order appends that force the sort
// upgrade) — run under -race, this is the regression test for readers
// serializing against writers.
func TestConcurrentReadWrite(t *testing.T) {
	db := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			lbl := Labels{"node": string(rune('A' + w))}
			h := db.Series("m", lbl)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ts := float64(i)
				if i%17 == 0 {
					ts -= 5 // out of order: exercises the sort upgrade
				}
				if i%3 == 0 {
					h.Append(ts, float64(i))
				} else {
					db.Append("m", lbl, ts, float64(i))
				}
				// The handle shares its series' stored labels, including
				// after Prune forces it to re-register.
				if i%100 == 0 && h.Labels()["node"] != lbl["node"] {
					t.Errorf("handle labels = %v, want %v", h.Labels(), lbl)
					return
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				db.Query("m", nil, 0, 1e9)
				db.QueryOne("m", Labels{"node": "A"}, 0, 1e9)
				db.Latest("m", Labels{"node": "B"})
				db.AggregateRange("m", nil, 0, 1e9, AggSum)
				if i%50 == 0 {
					db.Prune(1)
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestHeadGrowsByAppend: the open chunk is not pre-sized; its stream
// grows by append and stays within twice its written length plus one
// growth step, and the points stay intact across the regrowth.
func TestHeadGrowsByAppend(t *testing.T) {
	db := New()
	h := db.Series("m", Labels{"node": "N0001"})
	for i := 0; i < defaultSealEvery-1; i++ {
		h.Append(float64(i), float64(i))
		run := &h.s.Load().head.run
		if n, c := len(run.w.b), cap(run.w.b); c > 2*n+128 {
			t.Fatalf("%d points: %d stream bytes in a buffer of capacity %d", i+1, n, c)
		}
	}
	res, ok := db.QueryOne("m", Labels{"node": "N0001"}, 0, defaultSealEvery)
	if !ok || len(res.Points) != defaultSealEvery-1 || res.Points[300].Value != 300 {
		t.Fatalf("query after regrowth: ok=%v, %d points", ok, len(res.Points))
	}
}

// TestAggregateSeeds pins where each fold through the one accumulator
// starts: a raw bucket at its first sample with its sum from +0, an
// AggregateRange empty, and a rollup bucket at its first input.
func TestAggregateSeeds(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	db := New()
	db.ConfigureTiers(Retention{})
	lead := []Point{{0, nan}, {1, 2}, {2, 1}}
	for _, p := range lead {
		db.Append("lead", nil, p.TS, p.Value)
	}
	db.Append("nan", nil, 0, nan)
	db.Append("nan", nil, 1, nan)
	db.Append("zero", nil, 0, negZero)
	// bucket returns the one bucket QueryRange answers over [0, 10].
	bucket := func(name string, step float64, agg Agg) float64 {
		t.Helper()
		r := db.QueryRange(name, nil, 0, 10, step, agg)
		if len(r) != 1 || len(r[0].Points) != 1 {
			t.Fatalf("QueryRange(%s, step %g, %s) = %v, want one bucket", name, step, agg, r)
		}
		return r[0].Points[0].Value
	}
	if raw, roll := db.PickTier(0, 10), db.PickTier(0, 60); raw != "raw" || roll != "1m" {
		t.Fatalf("tiers %s and %s, want raw and 1m", raw, roll)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"Aggregate min, leading NaN", Aggregate(lead, AggMin), nan},
		{"Aggregate max, leading NaN", Aggregate(lead, AggMax), nan},
		{"raw QueryRange min, leading NaN", bucket("lead", 10, AggMin), nan},
		{"raw QueryRange max, leading NaN", bucket("lead", 10, AggMax), nan},
		{"AggregateRange min skips NaN", db.AggregateRange("lead", nil, 0, 10, AggMin), 1},
		{"AggregateRange max skips NaN", db.AggregateRange("lead", nil, 0, 10, AggMax), 2},
		{"AggregateRange min, every value NaN", db.AggregateRange("nan", nil, 0, 10, AggMin), inf},
		{"AggregateRange max, every value NaN", db.AggregateRange("nan", nil, 0, 10, AggMax), -inf},
		{"Aggregate sum of a lone -0", Aggregate([]Point{{0, negZero}}, AggSum), 0},
		{"raw QueryRange sum of a lone -0", bucket("zero", 10, AggSum), 0},
		{"AggregateRange sum of a lone -0", db.AggregateRange("zero", nil, 0, 10, AggSum), 0},
		{"rollup QueryRange sum of a lone -0", bucket("zero", 60, AggSum), negZero},
	} {
		if !sameFloat(c.got, c.want) {
			t.Errorf("%s = %v (signbit %v), want %v (signbit %v)", c.name, c.got, math.Signbit(c.got), c.want, math.Signbit(c.want))
		}
	}
}
