package tsdb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// storeDigest hashes what the store answers, floats by their bits.
type storeDigest struct {
	h   hash.Hash
	buf [8]byte
}

func (d *storeDigest) u(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

// f hashes v by its bits, every NaN as one: the payload of a NaN an
// aggregate computes (+Inf plus -Inf, NaN plus NaN) depends on operand
// order in the compiled code, which differs between builds such as
// -race. Stored bits are hashed exactly, as chunk bytes, by dump.
func (d *storeDigest) f(v float64) {
	if v != v {
		v = math.NaN()
	}
	d.u(math.Float64bits(v))
}

func (d *storeDigest) s(v string) {
	d.u(uint64(len(v)))
	d.h.Write([]byte(v))
}

func (d *storeDigest) flag(ok bool) {
	if ok {
		d.u(1)
	} else {
		d.u(0)
	}
}

func (d *storeDigest) points(pts []Point) {
	d.u(uint64(len(pts)))
	for _, p := range pts {
		d.f(p.TS)
		d.f(p.Value)
	}
}

func (d *storeDigest) results(rs []Result) {
	d.u(uint64(len(rs)))
	for _, r := range rs {
		d.s(r.Labels.String())
		d.flag(r.Labels == nil)
		d.points(r.Points)
	}
}

func (d *storeDigest) chunks(cs []Chunk) {
	d.u(uint64(len(cs)))
	for _, c := range cs {
		d.u(uint64(c.Cols))
		d.u(uint64(c.Count))
		d.f(c.MinTS)
		d.f(c.MaxTS)
		d.s(string(c.Data))
	}
}

func (d *storeDigest) buckets(bs []RollupSample) {
	d.u(uint64(len(bs)))
	for _, b := range bs {
		for _, v := range []float64{b.TS, b.Count, b.Sum, b.Min, b.Max, b.Last} {
			d.f(v)
		}
	}
}

// dump hashes every field of db.Dump(), series in canonical label
// order.
func (d *storeDigest) dump(db *DB) {
	dump := db.Dump()
	d.u(uint64(dump.Version))
	names := make([]string, 0, len(dump.Metrics))
	for name := range dump.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sds := dump.Metrics[name]
		sort.Slice(sds, func(i, j int) bool { return sds[i].Labels.canonical() < sds[j].Labels.canonical() })
		d.s(name)
		d.u(uint64(len(sds)))
		for _, sd := range sds {
			sd, err := decodeSeries(sd)
			if err != nil {
				panic(err)
			}
			d.s(sd.Labels.String())
			d.flag(sd.Labels == nil)
			d.points(sd.Points)
			d.chunks(sd.Blocks)
			d.points([]Point{sd.Last})
			d.flag(sd.HasLast)
			d.u(uint64(len(sd.Rollups)))
			for _, rd := range sd.Rollups {
				d.f(rd.Step)
				d.chunks(rd.Blocks)
				d.buckets(append(rd.Head, rd.Open))
				d.flag(rd.HasOpen)
				d.f(rd.OpenLastTS)
			}
		}
	}
}

// recordedDumpString is dumpString as the digests were recorded: the
// dump rendered in the field layout it had while Load still read v1 and
// v2 dumps, whose fields a v3 dump left zero.
func recordedDumpString(db *DB) string {
	type bucket struct{ TS, Count, Sum, Min, Max, Last float64 }
	type rollupDump struct {
		Step       float64
		Blocks     []Chunk
		Head       []bucket
		Open       bucket
		HasOpen    bool
		OpenLastTS float64
		Buckets    Chunk
		OpenBits   [7]uint64
	}
	type seriesDump struct {
		Labels   Labels
		Points   []Point
		Blocks   []Chunk
		Last     Point
		HasLast  bool
		Rollups  []rollupDump
		Head     Chunk
		LastBits [2]uint64
	}
	dump := db.Dump()
	out := struct {
		Version int
		Metrics map[string][]seriesDump
	}{dump.Version, map[string][]seriesDump{}}
	for name, sds := range dump.Metrics {
		sort.Slice(sds, func(i, j int) bool { return sds[i].Labels.canonical() < sds[j].Labels.canonical() })
		for _, sd := range sds {
			var rs []rollupDump
			for _, rd := range sd.Rollups {
				rs = append(rs, rollupDump{Step: rd.Step, Blocks: rd.Blocks, HasOpen: rd.HasOpen, Buckets: rd.Buckets, OpenBits: rd.OpenBits})
			}
			out.Metrics[name] = append(out.Metrics[name], seriesDump{Labels: sd.Labels, Blocks: sd.Blocks, HasLast: sd.HasLast, Rollups: rs, Head: sd.Head, LastBits: sd.LastBits})
		}
	}
	return fmt.Sprintf("%+v", out)
}

// reads hashes every read the store offers over a grid of metrics,
// matchers, ranges, steps and aggregations around now.
func (d *storeDigest) reads(db *DB, now float64) {
	aggs := []Agg{AggSum, AggAvg, AggMin, AggMax, AggCount, AggLast}
	inf := math.Inf(1)
	ranges := [][2]float64{{-inf, inf}, {now - 4000, now - 1000}, {now - 90000, now - 300}, {now + 1, inf}}
	matchers := []Labels{nil, {"node": "1"}, {"node": "9"}}
	exact := []Labels{{"node": "0"}, {"node": "3"}, {"node": "2", "h": "1"}}
	for _, name := range []string{"m0", "m1", "h"} {
		for _, r := range ranges {
			for _, m := range matchers {
				d.results(db.Query(name, m, r[0], r[1]))
				for _, agg := range aggs {
					d.f(db.AggregateRange(name, m, r[0], r[1], agg))
				}
			}
			for _, l := range exact {
				res, ok := db.QueryOne(name, l, r[0], r[1])
				d.flag(ok)
				d.results([]Result{res})
				it, ok := db.IterOne(name, l, r[0], r[1])
				d.flag(ok)
				n := 0
				for it.Next() {
					ts, v := it.At()
					d.f(ts)
					d.f(v)
					n++
				}
				d.u(uint64(n))
			}
			for _, step := range []float64{-1, 7, 60, 300, 3600} {
				d.s(db.PickTier(r[0], step))
				for _, agg := range aggs {
					d.results(db.QueryRange(name, nil, r[0], r[1], step, agg))
				}
			}
		}
		for _, l := range exact {
			p, ok := db.Latest(name, l)
			d.flag(ok)
			d.points([]Point{p})
		}
	}
	d.u(uint64(db.PointCount()))
	d.u(uint64(db.SeriesCount()))
	for _, n := range db.MetricNames() {
		d.s(n)
	}
	b, n, per := db.CompressionStats()
	d.u(uint64(b))
	d.u(uint64(n))
	d.f(per)
	d.dump(db)
}

// storeMatchesParentDigests are the digests the store before the
// shared sealed-block list produced for seeds 1-8 of
// TestStoreMatchesParentDigest, re-recorded for the v3 dump, which
// keeps -0 through the gob round trip: with that loss put back on Load
// and the dump rendered in its v2 fields, every per-operation digest
// and final dump of all eight seeds equals the v2 store's.
var storeMatchesParentDigests = []string{
	"093e0128ebee8344173b80b85d7f164eda0ae15761066dab73cf0b97afbf10d2",
	"8eb9832d5cbf80710c03f7fe540fbeb6480de11933a74f41e934b51d75613136",
	"fe1ee8e8bf3b8f48ba2a1a7396c656b09b167de056dc552ea94c3ce206205912",
	"f9bd923e05e9ca94665295f781bf0f701b1a314dcba640d792d14af42f048b22",
	"1c6891f254b9fd64444323f1cf963d136e7279700fa10670cc82737b60f0c827",
	"9e03a4d71b8ab8bbda1e8e9e063ca5ac14edf38177a9fe2a97c612c6e86febf2",
	"53db1cec242f6d54b0dc7fb4ababc3f39ccb3f1d951b384d27a1185d62573d62",
	"30a2860db53c1b969386897efb39dfa1a5bb25fee166612da701a2ac4e8985e1",
}

// TestStoreMatchesParentDigest drives seeded operation sequences —
// in-order and out-of-order appends across seals, ±Inf timestamps,
// NaN, ±Inf and -0 values, handles re-registering after eviction,
// Retain and Prune with straddling, lowered and ±Inf cutoffs, and
// mid-sequence Dump/Load — with tiers on and off, and hashes every read
// after each Load and every twentieth operation, the store's dump after
// each retention call, and dumpString at the end. The
// digests must equal the ones the store produced before its sealed
// blocks had one implementation; no NaN timestamp or NaN cutoff is
// involved, so every answer must match bit for bit.
func TestStoreMatchesParentDigest(t *testing.T) {
	for seed := int64(1); seed <= int64(len(storeMatchesParentDigests)); seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := New()
		db.SetSealEvery(4 + rng.Intn(61))
		if seed%4 != 0 {
			horizon := func(h float64) float64 {
				if rng.Intn(3) == 0 {
					return 0
				}
				return h * (0.5 + rng.Float64())
			}
			db.ConfigureTiers(Retention{RawS: horizon(2000), Rollup1mS: horizon(20000), Rollup1hS: horizon(200000)})
		}
		d := &storeDigest{h: sha256.New()}
		now, oldest := 0.0, 0.0
		var handles []*Series
		value := func() float64 {
			switch rng.Intn(25) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			case 3:
				return math.Copysign(0, -1)
			}
			return math.Round(rng.NormFloat64()*1000) / 100
		}
		stamp := func() float64 {
			switch k := rng.Intn(80); {
			case k == 0:
				return math.Inf(1)
			case k == 1:
				return math.Inf(-1)
			case k < 52:
				now += math.Round(rng.Float64() * 120)
				return now
			case k < 76:
				return now - math.Round(rng.Float64()*3000)
			default:
				oldest -= 100 + math.Round(rng.Float64()*5000)
				return oldest
			}
		}
		cutoff := func(base float64) float64 {
			switch rng.Intn(30) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			case 2, 3, 4:
				return base - rng.Float64()*30000 // lowered below earlier cuts
			}
			return base - rng.Float64()*4000 // straddles recent chunks
		}
		series := func() (string, Labels) {
			return fmt.Sprintf("m%d", rng.Intn(2)), Labels{"node": fmt.Sprint(rng.Intn(3))}
		}
		for op := 0; op < 800; op++ {
			read := op%20 == 19
			switch k := rng.Intn(100); {
			case k < 4: // a long in-order run, enough to seal rollup chunks
				name, lbl := series()
				for i, n := 0, 50+rng.Intn(350); i < n; i++ {
					now += 30 + math.Round(rng.Float64()*60)
					db.Append(name, lbl, now, value())
				}
			case k < 10:
				handles = append(handles, db.Series("h", Labels{"node": fmt.Sprint(rng.Intn(4)), "h": "1"}))
			case k < 26 && len(handles) > 0:
				handles[rng.Intn(len(handles))].Append(stamp(), value())
			case k < 35:
				d.u(uint64(db.Retain(cutoff(now))))
				d.dump(db)
			case k < 44:
				d.u(uint64(db.Prune(cutoff(now - 3000))))
				d.dump(db)
			case k < 46:
				if err := db.Load(gobDump(t, db)); err != nil {
					t.Fatal(err)
				}
				read = true
			default:
				name, lbl := series()
				db.Append(name, lbl, stamp(), value())
			}
			if read {
				d.reads(db, now)
			}
		}
		d.s(recordedDumpString(db))
		if got, want := hex.EncodeToString(d.h.Sum(nil)), storeMatchesParentDigests[seed-1]; got != want {
			t.Errorf("seed %d: digest %s, want %s", seed, got, want)
		}
	}
}
