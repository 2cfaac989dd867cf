package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"lorameshmon/internal/metrics"
)

// pointStore is the reference for the head: every series keeps its
// unsealed points as []Point in append order, sorts them stably by
// timestamp to read or seal them, and encodes a full head into a chunk
// in one pass; rollup tiers keep their closed buckets as
// []RollupSample. Reads are answered by brute force over the points.
type pointStore struct {
	sealEvery int
	tiersOn   bool
	series    map[string]*refSeries // name + "|" + canonical labels
}

type refSeries struct {
	name    string
	labels  Labels
	chunks  []*Chunk
	overlap bool
	head    []Point
	last    Point
	hasLast bool
	rolls   [tierCount]refRoll
}

type refRoll struct {
	chunks     []*Chunk
	head       []RollupSample
	open       RollupSample
	openLastTS float64
	hasOpen    bool
}

func newPointStore(sealEvery int, tiersOn bool) *pointStore {
	return &pointStore{sealEvery: sealEvery, tiersOn: tiersOn, series: map[string]*refSeries{}}
}

func sortedPoints(pts []Point) []Point {
	out := append([]Point(nil), pts...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// encodeSorted is the reference seal: one encoder pass over the sorted
// points.
func encodeSorted(cols int, ts []float64, vals [][]float64) *Chunk {
	var enc Encoder
	enc.Reset(cols)
	for i := range ts {
		enc.AppendVals(ts[i], vals[i])
	}
	return enc.Chunk()
}

func (ps *pointStore) append(name string, lbl Labels, ts, v float64) {
	key := name + "|" + lbl.canonical()
	s := ps.series[key]
	if s == nil {
		s = &refSeries{name: name, labels: lbl}
		ps.series[key] = s
	}
	s.head = append(s.head, Point{ts, v})
	if !s.hasLast || ts >= s.last.TS {
		s.last, s.hasLast = Point{ts, v}, true
	}
	if ps.tiersOn {
		for t := range s.rolls {
			s.rolls[t].feed(tierSteps[t], ts, v)
		}
	}
	if len(s.head) >= ps.sealEvery {
		pts := sortedPoints(s.head)
		ts, vals := make([]float64, len(pts)), make([][]float64, len(pts))
		for i, p := range pts {
			ts[i], vals[i] = p.TS, []float64{p.Value}
		}
		c := encodeSorted(1, ts, vals)
		if n := len(s.chunks); n > 0 && c.MinTS < s.chunks[n-1].MaxTS {
			s.overlap = true
		}
		s.chunks = append(s.chunks, c)
		s.head = nil
	}
}

func (r *refRoll) feed(step, ts, v float64) {
	if r.hasOpen && ts >= r.open.TS && ts-r.open.TS < step {
		r.open.Count++
		r.open.Sum += v
		if v < r.open.Min {
			r.open.Min = v
		}
		if v > r.open.Max {
			r.open.Max = v
		}
		if ts >= r.openLastTS {
			r.open.Last, r.openLastTS = v, ts
		}
		return
	}
	bucket := math.Floor(ts/step) * step
	fresh := RollupSample{TS: bucket, Count: 1, Sum: v, Min: v, Max: v, Last: v}
	switch {
	case !r.hasOpen:
		r.open, r.openLastTS, r.hasOpen = fresh, ts, true
	case bucket > r.open.TS:
		r.head = append(r.head, r.open)
		if len(r.head) >= rollupSealEvery {
			ts, vals := make([]float64, len(r.head)), make([][]float64, len(r.head))
			for i, b := range r.head {
				ts[i], vals[i] = b.TS, []float64{b.Count, b.Sum, b.Min, b.Max, b.Last}
			}
			r.chunks = append(r.chunks, encodeSorted(rollupCols, ts, vals))
			r.head = nil
		}
		r.open, r.openLastTS = fresh, ts
	}
}

// reload models a Dump/Load through gob: the head is stored sorted,
// and every float, -0 included, comes back bit for bit.
func (ps *pointStore) reload() {
	for _, s := range ps.series {
		s.head = sortedPoints(s.head)
	}
}

// points returns the series' points in the order every read yields
// them: sealed chunks in seal order, then the sorted head, sorted
// stably by timestamp.
func (s *refSeries) points() []Point {
	var all []Point
	for _, c := range s.chunks {
		for it := c.Iter(); it.Next(); {
			ts, v := it.At()
			all = append(all, Point{ts, v})
		}
	}
	return sortedPoints(append(all, sortedPoints(s.head)...))
}

func inRange(pts []Point, from, to float64) []Point {
	out := []Point{}
	for _, p := range pts {
		if p.TS >= from && p.TS <= to {
			out = append(out, p)
		}
	}
	return out
}

// matched returns the metric's series containing matcher, in canonical
// label order.
func (ps *pointStore) matched(name string, matcher Labels) []*refSeries {
	var out []*refSeries
	for _, s := range ps.series {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range matcher {
			if s.labels[k] != v {
				ok = false
			}
		}
		if ok {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].labels.canonical() < out[j].labels.canonical() })
	return out
}

// fold aggregates like AggregateRange does.
func fold(series [][]Point, agg Agg) float64 {
	n, sum := 0, 0.0
	lo, hi := math.Inf(1), math.Inf(-1)
	last, lastTS := 0.0, math.Inf(-1)
	for _, pts := range series {
		for _, p := range pts {
			sum += p.Value
			if p.Value < lo {
				lo = p.Value
			}
			if p.Value > hi {
				hi = p.Value
			}
			if p.TS >= lastTS {
				last, lastTS = p.Value, p.TS
			}
			n++
		}
	}
	if agg == AggCount {
		return float64(n)
	}
	if n == 0 {
		return math.NaN()
	}
	return map[Agg]float64{AggSum: sum, AggAvg: sum / float64(n), AggMin: lo, AggMax: hi, AggLast: last}[agg]
}

// buckets returns a rollup tier's buckets in read order.
func (r *refRoll) buckets() []RollupSample {
	var out []RollupSample
	for _, c := range r.chunks {
		for it := c.Iter(); it.Next(); {
			out = append(out, it.bucket())
		}
	}
	out = append(out, r.head...)
	if r.hasOpen {
		out = append(out, r.open)
	}
	return out
}

// rebucket re-buckets rollup buckets onto a from-aligned grid of width
// step, as QueryRange does on a rollup tier.
func rebucket(bs []RollupSample, from, to, step float64, agg Agg) []Point {
	var out []Point
	var acc RollupSample
	have, cur := false, 0.0
	for _, b := range bs {
		if b.TS < from || b.TS > to {
			continue
		}
		idx := math.Floor((b.TS - from) / step)
		if have && idx != cur {
			out = append(out, Point{from + cur*step, acc.value(agg)})
			have = false
		}
		if !have {
			acc, cur, have = b, idx, true
			continue
		}
		acc.fold(b)
	}
	if have {
		out = append(out, Point{from + cur*step, acc.value(agg)})
	}
	return out
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].TS) != math.Float64bits(b[i].TS) || !sameFloat(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

func sameBuckets(a, b []RollupSample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		for _, f := range [][2]float64{{x.TS, y.TS}, {x.Count, y.Count}, {x.Sum, y.Sum}, {x.Min, y.Min}, {x.Max, y.Max}, {x.Last, y.Last}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				return false
			}
		}
	}
	return true
}

func sameChunks(a []Chunk, b []*Chunk) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Cols != y.Cols || x.Count != y.Count || string(x.Data) != string(y.Data) ||
			math.Float64bits(x.MinTS) != math.Float64bits(y.MinTS) || math.Float64bits(x.MaxTS) != math.Float64bits(y.MaxTS) {
			return false
		}
	}
	return true
}

// check compares every read and the dump of db against ps.
func (ps *pointStore) check(t *testing.T, db *DB, where string) {
	t.Helper()
	dump := db.Dump()
	n := 0
	for name, sds := range dump.Metrics {
		for _, sd := range sds {
			n++
			if err := sd.decodeV3(); err != nil {
				t.Fatalf("%s: %s%v: %v", where, name, sd.Labels, err)
			}
			s := ps.series[name+"|"+sd.Labels.canonical()]
			if s == nil {
				t.Fatalf("%s: dump has series %s%v the reference lacks", where, name, sd.Labels)
			}
			if !sameChunks(sd.Blocks, s.chunks) {
				t.Fatalf("%s: %s%v: sealed chunks differ from the reference's", where, name, sd.Labels)
			}
			if head := sortedPoints(s.head); !samePoints(sd.Points, head) {
				t.Fatalf("%s: %s%v: dumped head %v, reference %v", where, name, sd.Labels, sd.Points, head)
			}
			if sd.HasLast != s.hasLast || !samePoints([]Point{sd.Last}, []Point{s.last}) {
				t.Fatalf("%s: %s%v: last %v/%v, reference %v/%v", where, name, sd.Labels, sd.Last, sd.HasLast, s.last, s.hasLast)
			}
			k := 0
			for ti := range s.rolls {
				r := &s.rolls[ti]
				if len(r.chunks) == 0 && len(r.head) == 0 && !r.hasOpen {
					continue
				}
				if k >= len(sd.Rollups) {
					t.Fatalf("%s: %s%v: rollup tier %d missing from the dump", where, name, sd.Labels, ti)
				}
				rd := sd.Rollups[k]
				k++
				if rd.Step != tierSteps[ti] || !sameChunks(rd.Blocks, r.chunks) || !sameBuckets(rd.Head, r.head) ||
					!sameBuckets([]RollupSample{rd.Open}, []RollupSample{r.open}) || rd.HasOpen != r.hasOpen || !sameFloat(rd.OpenLastTS, r.openLastTS) {
					t.Fatalf("%s: %s%v: rollup tier %d differs from the reference: step %v blocks %v head %v open %v/%v/%v, reference chunks %d head %v open %v/%v/%v",
						where, name, sd.Labels, ti, rd.Step, len(rd.Blocks), rd.Head, rd.Open, rd.HasOpen, rd.OpenLastTS, len(r.chunks), r.head, r.open, r.hasOpen, r.openLastTS)
				}
			}
			if k != len(sd.Rollups) {
				t.Fatalf("%s: %s%v: %d rollup tiers dumped, reference has %d", where, name, sd.Labels, len(sd.Rollups), k)
			}
		}
	}
	if n != len(ps.series) {
		t.Fatalf("%s: dump holds %d series, reference %d", where, n, len(ps.series))
	}

	inf := math.Inf(1)
	aggs := []Agg{AggSum, AggAvg, AggMin, AggMax, AggCount, AggLast}
	points := map[*refSeries][]Point{}
	for _, s := range ps.series {
		points[s] = s.points()
	}
	for _, name := range []string{"a", "b"} {
		for _, r := range [][2]float64{{-inf, inf}, {-50, 400}, {100, 100}, {0, inf}} {
			for _, m := range []Labels{nil, {"n": "1"}} {
				matched := ps.matched(name, m)
				got := db.Query(name, m, r[0], r[1])
				if len(got) != len(matched) {
					t.Fatalf("%s: Query(%s, %v) %d series, reference %d", where, name, m, len(got), len(matched))
				}
				var all [][]Point
				for i, s := range matched {
					want := inRange(points[s], r[0], r[1])
					all = append(all, want)
					if !samePoints(got[i].Points, want) {
						t.Fatalf("%s: Query(%s%v, %v): %v, reference %v", where, name, s.labels, r, got[i].Points, want)
					}
					if it, ok := db.IterOne(name, s.labels, r[0], r[1]); ok {
						var pts []Point
						for it.Next() {
							ts, v := it.At()
							pts = append(pts, Point{ts, v})
						}
						if !samePoints(pts, want) && !(len(pts) == 0 && len(want) == 0) {
							t.Fatalf("%s: IterOne(%s%v, %v): %v, reference %v", where, name, s.labels, r, pts, want)
						}
					} else {
						t.Fatalf("%s: IterOne(%s%v) found nothing", where, name, s.labels)
					}
				}
				for _, agg := range aggs {
					if got, want := db.AggregateRange(name, m, r[0], r[1], agg), fold(all, agg); !sameFloat(got, want) {
						t.Fatalf("%s: AggregateRange(%s, %v, %v, %s) = %v, reference %v", where, name, m, r, agg, got, want)
					}
				}
				for _, step := range []float64{7, 3600} {
					for _, agg := range []Agg{AggSum, AggLast} {
						tier := db.pickTier(r[0], step)
						got := db.QueryRange(name, m, r[0], r[1], step, agg)
						for i, s := range matched {
							var want []Point
							if tier == 0 {
								want = Downsample(inRange(points[s], r[0], r[1]), r[0], step, agg)
							} else {
								want = rebucket(s.rolls[tier-1].buckets(), r[0], r[1], step, agg)
							}
							if !samePoints(got[i].Points, want) {
								t.Fatalf("%s: QueryRange(%s%v, %v, %g, %s) tier %d: %v, reference %v",
									where, name, s.labels, r, step, agg, tier, got[i].Points, want)
							}
						}
					}
				}
			}
		}
	}
	for _, s := range ps.series {
		p, ok := db.Latest(s.name, s.labels)
		if ok != s.hasLast || !samePoints([]Point{p}, []Point{s.last}) {
			t.Fatalf("%s: Latest(%s%v) = %v/%v, reference %v/%v", where, s.name, s.labels, p, ok, s.last, s.hasLast)
		}
	}
}

// TestHeadMatchesPointHead drives seeded in-order, batch-shuffled,
// reverse-order, equal-timestamp, ±0 and ±Inf sequences into the store
// at random seal sizes, with tiers on and off, and requires sealed chunk
// bytes, the dump and every read to equal the []Point reference's bit
// for bit — after reads (which compact heads), mid-sequence reloads and
// with enough series to cycle the pending ring.
func TestHeadMatchesPointHead(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sealEvery := []int{1, 3, 16, 64, 200, 512}[rng.Intn(6)]
		tiers := seed%2 == 0
		db := New()
		db.SetSealEvery(sealEvery)
		if tiers {
			db.ConfigureTiers(Retention{})
		}
		ps := newPointStore(sealEvery, tiers)
		nSeries := 3
		if seed%3 == 0 {
			nSeries = maxPending + 40 // enough to cycle the pending ring
		}
		clock := make([]float64, nSeries)
		val := func() float64 {
			switch rng.Intn(12) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1 - 2*rng.Intn(2))
			case 2:
				return negZero
			}
			return math.Round(rng.NormFloat64()*100) / 4
		}
		for op := 0; op < 400; op++ {
			i := rng.Intn(nSeries)
			name, lbl := []string{"a", "b"}[i%2], Labels{"n": fmt.Sprint(i % 7), "s": fmt.Sprint(i)}
			var batch []float64
			switch k := rng.Intn(7); k {
			case 0: // in order, equal steps now and then
				for j := 0; j < 1+rng.Intn(40); j++ {
					clock[i] += float64(rng.Intn(3)) * 1.5
					batch = append(batch, clock[i])
				}
			case 1: // a batch window, shuffled
				for j := 0; j < 1+rng.Intn(90); j++ {
					batch = append(batch, clock[i]+math.Round(rng.Float64()*600))
				}
				clock[i] += 600
			case 2: // newest first
				for j := 0; j < 1+rng.Intn(40); j++ {
					batch = append(batch, clock[i]+float64(40-j)*10)
				}
				clock[i] += 400
			case 3: // equal timestamps, some behind the newest
				ts := clock[i] - float64(rng.Intn(3))*50
				for j := 0; j < 1+rng.Intn(20); j++ {
					batch = append(batch, ts)
				}
			case 4: // signed zeros
				for j := 0; j < 1+rng.Intn(10); j++ {
					batch = append(batch, []float64{0, negZero}[rng.Intn(2)])
				}
			case 5: // infinities
				batch = append(batch, math.Inf(1-2*rng.Intn(2)))
			case 6: // far behind
				batch = append(batch, clock[i]-math.Round(rng.Float64()*5000))
			}
			h := db.Series(name, lbl)
			for _, ts := range batch {
				v := val()
				if rng.Intn(2) == 0 {
					h.Append(ts, v)
				} else {
					db.Append(name, lbl, ts, v)
				}
				ps.append(name, lbl, ts, v)
			}
			switch rng.Intn(40 * (1 + nSeries/100)) {
			case 0:
				ps.check(t, db, fmt.Sprintf("seed %d op %d", seed, op))
			case 1:
				if err := db.Load(gobDump(t, db)); err != nil {
					t.Fatal(err)
				}
				ps.reload()
			}
		}
		ps.check(t, db, fmt.Sprintf("seed %d end", seed))
	}
}

// TestHeadCompactionOrder pins the merge rule on equal timestamps: run
// samples leave before late ones, and late ones in append order, for
// equal and signed-zero timestamps alike, when a merge resumes inside
// the run.
func TestHeadCompactionOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	db := New()
	h := db.Series("m", nil)
	// 0, 5, 5, 9 are encoded (10, 11, 12 wait in tip); 5, -0, 5 arrive
	// late, so the merge resumes after the run's 0.
	for i, ts := range []float64{0, 5, 5, 9, 10, 11, 12, 5, negZero, 5} {
		h.Append(ts, float64(i))
	}
	res, _ := db.QueryOne("m", nil, math.Inf(-1), math.Inf(1))
	want := []float64{0, 8, 1, 2, 7, 9, 3, 4, 5, 6}
	for i, p := range res.Points {
		if p.Value != want[i] {
			t.Fatalf("point %d: value %v (ts %v), want %v; all %v", i, p.Value, p.TS, want[i], res.Points)
		}
	}
	if !math.Signbit(res.Points[1].TS) {
		t.Fatalf("point 1 lost its -0 timestamp: %v", res.Points)
	}
}

// TestHeadSnapshotIsolation: a reader iterating a snapshot sees exactly
// the points it held when taken while the writer appends in and out of
// order, compacts, seals and prunes the same series (run with -race).
func TestHeadSnapshotIsolation(t *testing.T) {
	db := New()
	db.SetSealEvery(97)
	h := db.Series("m", nil)
	type snapshot struct {
		it   Iter
		want []Point
	}
	snaps := make(chan snapshot, 8)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sn := range snaps {
				var got []Point
				for sn.it.Next() {
					ts, v := sn.it.At()
					got = append(got, Point{ts, v})
				}
				if !samePoints(got, sn.want) {
					t.Errorf("snapshot yielded %d points, want %d", len(got), len(sn.want))
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	var all []Point // append order, pruned ones removed
	clock := 0.0
	for op := 0; op < 3000; op++ {
		switch k := rng.Intn(20); {
		case k < 12:
			clock += rng.Float64()
			p := Point{clock, float64(op)}
			h.Append(p.TS, p.Value)
			all = append(all, p)
		case k < 18:
			p := Point{clock - 30*rng.Float64(), float64(op)}
			h.Append(p.TS, p.Value)
			all = append(all, p)
		case k < 19:
			cut := clock - 200
			db.Prune(cut)
			all = inRange(all, cut, math.Inf(1))
		default:
			it, _ := db.IterOne("m", nil, math.Inf(-1), math.Inf(1))
			snaps <- snapshot{it, sortedPoints(all)}
		}
	}
	close(snaps)
	wg.Wait()
}

// dashShaped appends a dash_read-shaped history to db, batch by batch
// across the nodes: per node, two hours of 30-minute batches, each with
// 30 summaries newest first into
// 22 summary series (counters, small integers, a few fractions), a
// heartbeat uptime series, and packet records at random times across
// the batch into 11 packet series (per-type counts and sizes at 1,
// RSSI/SNR/airtime as raw floats). It returns the samples appended.
func dashShaped(db *DB, nodes int) int {
	rng := rand.New(rand.NewSource(3))
	n := 0
	add := func(h *Series, ts, v float64) { h.Append(ts, v); n++ }
	stats, pkts := make([][]*Series, nodes), make([][]*Series, nodes)
	for node := range stats {
		lbl := Labels{"node": fmt.Sprintf("N%04X", node+1)}
		for i := 0; i < 23; i++ {
			stats[node] = append(stats[node], db.Series(fmt.Sprintf("node_stat_%d", i), lbl))
		}
		for i := 0; i < 11; i++ {
			pkts[node] = append(pkts[node], db.Series(fmt.Sprintf("mesh_packet_%d", i), lbl))
		}
	}
	for step := 0; step < 4; step++ {
		for node := 0; node < nodes; node++ {
			sent := float64(step*1800) + float64((node+1)*1800)/float64(nodes)
			p := pkts[node]
			for i := 0; i < 120; i++ {
				ts := sent - 1800*rng.Float64()
				add(p[rng.Intn(4)], ts, 1)
				add(p[4+rng.Intn(3)], ts, float64(20+rng.Intn(40)))
				if rng.Intn(10) < 7 {
					add(p[7], ts, -70-50*rng.Float64())
					add(p[8], ts, -5+15*rng.Float64())
				} else {
					add(p[9+rng.Intn(2)], ts, 40+40*rng.Float64())
				}
			}
			for k := 0; k < 30; k++ {
				ts := sent - float64(k)*60
				for i, h := range stats[node] {
					var v float64
					switch {
					case i == 0 || i == 22:
						v = math.Floor(ts / 60) // hello counter, uptime
					case i < 6:
						v = float64(rng.Intn(100))
					case i < 8:
						v = float64(rng.Intn(4)) // queue length, route count
					case i == 8:
						v = 1000 * rng.Float64() // airtime
					case i == 9:
						v = 0.005 * rng.Float64() // duty cycle
					}
					add(h, ts, v)
				}
			}
		}
	}
	return n
}

// TestHeadBytesBudget: 10 200 series of ~130 dash_read-shaped samples
// each take at most 8 bytes per sample in their heads, read from the
// meshmon_tsdb_head_bytes gauge (stream bytes plus 16 per buffer slot),
// with rollup tiers on; a raw sample is 16 bytes.
func TestHeadBytesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("appends 1.3 M samples")
	}
	db := New()
	db.ConfigureTiers(Retention{Rollup1mS: 86400})
	reg := metrics.NewRegistry()
	db.Instrument(reg)
	samples := dashShaped(db, 300) // 300 nodes x 34 series = 10 200 series
	fam, ok := reg.Family("meshmon_tsdb_head_bytes")
	if !ok || len(fam.Samples) != 1 {
		t.Fatal("meshmon_tsdb_head_bytes not exported")
	}
	perSample := fam.Samples[0].Value / float64(samples)
	t.Logf("%d series, %d samples: %.2f head bytes per sample", db.SeriesCount(), samples, perSample)
	if perSample > 8 {
		t.Fatalf("heads hold %.2f bytes per sample, budget 8", perSample)
	}
}

// TestHeadAppendAllocations: an in-order append to a cached handle
// amortises to under 0.1 allocations (the open chunk grows by a
// quarter at a time, and a seal allocates one chunk).
func TestHeadAppendAllocations(t *testing.T) {
	db := New()
	h := db.Series("m", Labels{"node": "N0001"})
	ts := 0.0
	allocs := testing.AllocsPerRun(5000, func() {
		ts += 1
		h.Append(ts, math.Mod(ts, 17))
	})
	if allocs >= 0.1 {
		t.Fatalf("in-order Series.Append allocates %v times per call, budget < 0.1", allocs)
	}
}

// TestHeadQueryAllocations: QueryOne over an in-order head shares the
// head's bytes instead of copying its points, so it allocates as often
// at 500 points as at 10.
func TestHeadQueryAllocations(t *testing.T) {
	count := func(n int) float64 {
		db := New()
		for i := 0; i < n; i++ {
			db.Append("m", Labels{"node": "N0001"}, float64(i), float64(i%7))
		}
		return testing.AllocsPerRun(200, func() {
			if res, ok := db.QueryOne("m", Labels{"node": "N0001"}, 0, float64(n)); !ok || len(res.Points) != n {
				t.Fatalf("QueryOne: ok=%v, %d points, want %d", ok, len(res.Points), n)
			}
		})
	}
	if small, large := count(10), count(500); small != large {
		t.Fatalf("QueryOne allocates %v times at 10 head points, %v at 500", small, large)
	}
}
