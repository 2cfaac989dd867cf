package tsdb

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Dump/Load persist the whole store: the collector's WAL checkpoints
// embed a SnapshotDump in their gob stream, giving the collector binary
// durability across restarts (the stdlib stand-in for InfluxDB's disk
// storage). The dump is versioned. Since v2, sealed chunks are
// persisted in compressed form — a checkpoint costs bytes proportional
// to the compressed store, not to the raw point count — and rollup
// tiers round-trip alongside the raw data so a restart does not forget
// downsampled history. Since v3 every float a dump holds outside chunk
// bytes travels as its IEEE-754 bits, and open heads as chunk bytes:
// gob omits a float field equal to zero, so a -0 in one came back as +0.

// snapshotVersion guards format evolution. v1 held raw []Point per
// series; v2 adds compressed blocks, last-sample tracking and rollup
// tiers; v3 dumps heads as chunks and bare floats as bits. Load accepts
// all three.
const snapshotVersion = 3

// RollupDump is one rollup tier of one series in a snapshot (exported
// for encoding only).
type RollupDump struct {
	Step       float64 // bucket width, matches a tierSteps entry
	Blocks     []Chunk
	Head       []RollupSample // v2
	Open       RollupSample   // v2
	HasOpen    bool
	OpenLastTS float64 // v2
	// Since v3: the head buckets as one chunk, and the open bucket's
	// TS, Count, Sum, Min, Max and Last, then OpenLastTS, as bits.
	Buckets  Chunk
	OpenBits [7]uint64
}

// SeriesDump is one series in a snapshot (exported for encoding only).
// Blocks hold the sealed chunks still compressed; the head is the
// mutable rest of the series (in a v1 dump, Points is the entire
// series).
type SeriesDump struct {
	Labels  Labels
	Points  []Point // v1, v2: the head
	Blocks  []Chunk
	Last    Point // v2
	HasLast bool
	Rollups []RollupDump
	// Since v3: the head as one chunk, and Last's TS and Value as bits.
	Head     Chunk
	LastBits [2]uint64
}

// SnapshotDump is the on-disk model (exported for encoding only).
type SnapshotDump struct {
	Version int
	Metrics map[string][]SeriesDump
}

// Dump extracts the full store as a SnapshotDump — the building block
// for embedding the store inside a larger snapshot stream (the
// collector's WAL checkpoints encode collector state and the store with
// a single gob encoder, since two encoders cannot safely share one
// buffered reader on the decode side).
// Sealed chunks are immutable, so the dump shares their byte slices
// instead of copying; only the open head chunks are copied.
// Each series is captured under its own lock, so a Dump taken while
// other series ingest is per-series atomic; callers needing a cut that
// is consistent across series (the collector's checkpoint path) must
// stop their writers first.
func (db *DB) Dump() SnapshotDump {
	db.mu.RLock()
	defer db.mu.RUnlock()
	dump := SnapshotDump{
		Version: snapshotVersion,
		Metrics: make(map[string][]SeriesDump, len(db.metrics)),
	}
	for name, byLabels := range db.metrics {
		for _, s := range byLabels {
			s.mu.Lock()
			s.head.compact()
			head := s.head.run.view()
			sd := SeriesDump{
				Labels: exportLabels(s.labels),
				Blocks: s.sealed.dump(),
				Head:   head.chunk(),
			}
			if s.hasLast {
				sd.LastBits = [2]uint64{math.Float64bits(s.lastTS), math.Float64bits(s.lastVal)}
				sd.HasLast = true
			}
			for t := range s.rolls {
				if s.rolls == nil || s.rolls[t].empty() {
					continue
				}
				rs := &s.rolls[t]
				head := rs.head.view()
				o := &rs.open
				sd.Rollups = append(sd.Rollups, RollupDump{
					Step:    tierSteps[t],
					Blocks:  rs.sealed.dump(),
					HasOpen: rs.hasOpen,
					Buckets: head.chunk(),
					OpenBits: [7]uint64{math.Float64bits(o.TS), math.Float64bits(o.Count), math.Float64bits(o.Sum),
						math.Float64bits(o.Min), math.Float64bits(o.Max), math.Float64bits(o.Last), math.Float64bits(rs.openLastTS)},
				})
			}
			dump.Metrics[name] = append(dump.Metrics[name], sd)
			s.mu.Unlock()
		}
	}
	return dump
}

// Load replaces the store's contents with the dump. The current (v3)
// and legacy (v2, float fields; v1, raw points) formats load;
// retention/tier configuration is not part of a dump and is preserved
// as configured on db. Head points are appended to the open head chunks
// as Append would, in time order, and those with a NaN timestamp, which
// dumps taken before Append refused them may hold, are dropped.
func (db *DB) Load(dump SnapshotDump) error {
	if dump.Version < 1 || dump.Version > snapshotVersion {
		return fmt.Errorf("tsdb: restore: unsupported snapshot version %d", dump.Version)
	}
	metrics := make(map[string]map[string]*series, len(dump.Metrics))
	points := 0
	var raw, roll chunkKind
	raw.cols, roll.cols = db.raw.cols, db.roll.cols
	for name, dumps := range dump.Metrics {
		byLabels := make(map[string]*series, len(dumps))
		for _, sd := range dumps {
			if dump.Version >= 3 {
				if err := sd.decodeV3(); err != nil {
					return fmt.Errorf("tsdb: restore: series %s%v: %w", name, sd.Labels, err)
				}
			}
			key := sd.Labels.canonical()
			if _, dup := byLabels[key]; dup {
				return fmt.Errorf("tsdb: restore: duplicate series %s%v", name, sd.Labels)
			}
			s := &series{labels: compactLabels(sd.Labels), key: key}
			head := slices.DeleteFunc(append([]Point(nil), sd.Points...), func(p Point) bool { return p.TS != p.TS })
			slices.SortStableFunc(head, func(a, b Point) int { return cmp.Compare(a.TS, b.TS) })
			for _, p := range head {
				s.head.add(p.TS, p.Value)
			}
			for _, c := range sd.Blocks {
				c.restoreBounds()
				if err := s.sealed.attach(&raw, c); err != nil {
					return fmt.Errorf("tsdb: restore: series %s%v: raw %w", name, sd.Labels, err)
				}
			}
			points += s.rawCount()
			if sd.HasLast {
				s.lastTS, s.lastVal, s.hasLast = sd.Last.TS, sd.Last.Value, true
			} else {
				// v1 dump, whose points are all in the head: recover the
				// newest sample by scanning.
				for _, p := range head {
					if !s.hasLast || p.TS >= s.lastTS {
						s.lastTS, s.lastVal, s.hasLast = p.TS, p.Value, true
					}
				}
			}
			for _, rd := range sd.Rollups {
				t := -1
				for i, step := range tierSteps {
					if rd.Step == step {
						t = i
					}
				}
				if t < 0 {
					return fmt.Errorf("tsdb: restore: series %s%v: unknown rollup step %g", name, sd.Labels, rd.Step)
				}
				if s.rolls == nil {
					s.rolls = new([tierCount]rollState)
				}
				rs := &s.rolls[t]
				for _, b := range rd.Head {
					rs.push(b)
				}
				rs.open, rs.hasOpen, rs.openLastTS = rd.Open, rd.HasOpen, rd.OpenLastTS
				for _, c := range rd.Blocks {
					c.restoreBounds()
					if err := rs.sealed.attach(&roll, c); err != nil {
						return fmt.Errorf("tsdb: restore: series %s%v: rollup %w", name, sd.Labels, err)
					}
				}
			}
			byLabels[key] = s
		}
		metrics[name] = byLabels
	}
	db.mu.Lock()
	// Cached Series handles may still point into the replaced index; mark
	// everything old dead so they re-resolve on their next Append.
	for _, byLabels := range db.metrics {
		for _, s := range byLabels {
			s.mu.Lock()
			s.dead = true
			s.mu.Unlock()
		}
	}
	db.metrics = metrics
	db.cuts = [1 + tierCount]float64{}
	// The loaded series are unarmed and their oldest timestamps unknown:
	// the next Retain/Prune sweeps.
	db.armed = false
	db.wm.Store(negInfBits)
	db.fresh.Store(0)
	db.mu.Unlock()
	db.points.Store(int64(points))
	db.raw.bytes.Store(raw.bytes.Load())
	db.raw.samples.Store(raw.samples.Load())
	db.roll.bytes.Store(roll.bytes.Load())
	db.roll.samples.Store(roll.samples.Load())
	return nil
}

// decodeV3 decodes a v3 series dump's heads and bit-encoded floats into
// the v2 fields the rest of Load reads. The rollups are copied first, so
// the caller's dump is left as it was.
func (sd *SeriesDump) decodeV3() error {
	f := math.Float64frombits
	sd.Points = nil
	if err := sd.Head.samples(1, func(it *ChunkIter) {
		ts, v := it.At()
		sd.Points = append(sd.Points, Point{TS: ts, Value: v})
	}); err != nil {
		return fmt.Errorf("head: %w", err)
	}
	sd.Last = Point{TS: f(sd.LastBits[0]), Value: f(sd.LastBits[1])}
	sd.Rollups = slices.Clone(sd.Rollups)
	for i := range sd.Rollups {
		rd := &sd.Rollups[i]
		rd.Head = nil
		if err := rd.Buckets.samples(rollupCols, func(it *ChunkIter) {
			rd.Head = append(rd.Head, it.bucket())
		}); err != nil {
			return fmt.Errorf("rollup head: %w", err)
		}
		b := &rd.OpenBits
		rd.Open = RollupSample{TS: f(b[0]), Count: f(b[1]), Sum: f(b[2]), Min: f(b[3]), Max: f(b[4]), Last: f(b[5])}
		rd.OpenLastTS = f(b[6])
	}
	return nil
}

// samples calls fn on each sample of a dumped head chunk of cols value
// columns, and fails if the stream ends before Count samples.
func (c *Chunk) samples(cols int, fn func(*ChunkIter)) error {
	if c.Count > 0 && c.Cols != cols {
		return fmt.Errorf("chunk with %d columns, want %d", c.Cols, cols)
	}
	n := 0
	for it := c.Iter(); it.Next(); n++ {
		fn(&it)
	}
	if n != c.Count {
		return fmt.Errorf("truncated chunk: %d of %d samples", n, c.Count)
	}
	return nil
}

// restoreBounds re-derives a dumped chunk's timestamp bounds from its
// stream where they read zero: gob omits a float field equal to zero,
// so a -0 bound arrives as +0. The first timestamp is the minimum, and
// the maximum follows the encoder's rule (only a greater timestamp
// replaces it).
func (c *Chunk) restoreBounds() {
	if c.MinTS != 0 && c.MaxTS != 0 {
		return
	}
	for it, i := c.Iter(), 0; it.Next(); i++ {
		if ts := it.TS(); i == 0 {
			c.MinTS, c.MaxTS = ts, ts
		} else if ts > c.MaxTS {
			c.MaxTS = ts
		}
	}
}
