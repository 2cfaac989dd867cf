package tsdb

import (
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
// series; v2 added compressed blocks, last-sample tracking and rollup
// tiers; v3 dumps heads as chunks and bare floats as bits. Load accepts
// v3 only.
const snapshotVersion = 3

// RollupDump is one rollup tier of one series in a snapshot (exported
// for encoding only).
type RollupDump struct {
	Step    float64 // bucket width, matches a tierSteps entry
	Blocks  []Chunk
	HasOpen bool
	// The head buckets as one chunk, and the open bucket's TS, Count,
	// Sum, Min, Max and Last, then the timestamp of its newest sample,
	// as bits.
	Buckets  Chunk
	OpenBits [7]uint64
}

// SeriesDump is one series in a snapshot (exported for encoding only).
// Blocks hold the sealed chunks still compressed; Head is the mutable
// rest of the series as one chunk.
type SeriesDump struct {
	Labels  Labels
	Blocks  []Chunk
	HasLast bool
	Rollups []RollupDump
	Head    Chunk
	// The newest sample's TS and Value as bits.
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
						math.Float64bits(o.Min), math.Float64bits(o.Max), math.Float64bits(o.Last), math.Float64bits(o.lastTS)},
				})
			}
			dump.Metrics[name] = append(dump.Metrics[name], sd)
			s.mu.Unlock()
		}
	}
	return dump
}

// Load replaces the store's contents with the dump, which must be v3;
// retention/tier configuration is not part of a dump and is preserved
// as configured on db. Head samples are appended to the open head
// chunks as Append would, in time order, and those with a NaN
// timestamp, which a dump read from disk may hold, are dropped.
func (db *DB) Load(dump SnapshotDump) error {
	if dump.Version != snapshotVersion {
		return fmt.Errorf("tsdb: restore: unsupported snapshot version %d", dump.Version)
	}
	f := math.Float64frombits
	metrics := make(map[string]map[string]*series, len(dump.Metrics))
	points := 0
	var raw, roll chunkKind
	raw.cols, roll.cols = db.raw.cols, db.roll.cols
	for name, dumps := range dump.Metrics {
		byLabels := make(map[string]*series, len(dumps))
		for _, sd := range dumps {
			fail := func(what string, err error) error {
				return fmt.Errorf("tsdb: restore: series %s%v: %s%w", name, sd.Labels, what, err)
			}
			key := sd.Labels.canonical()
			if _, dup := byLabels[key]; dup {
				return fmt.Errorf("tsdb: restore: duplicate series %s%v", name, sd.Labels)
			}
			s := &series{labels: compactLabels(sd.Labels), key: key}
			if err := sd.Head.samples(1, func(it *ChunkIter) {
				if ts, v := it.At(); ts == ts {
					s.head.add(ts, v)
				}
			}); err != nil {
				return fail("head: ", err)
			}
			s.head.compact()
			for _, c := range sd.Blocks {
				c.restoreBounds()
				if err := s.sealed.attach(&raw, c); err != nil {
					return fail("raw ", err)
				}
			}
			points += s.rawCount()
			if sd.HasLast {
				s.lastTS, s.lastVal, s.hasLast = f(sd.LastBits[0]), f(sd.LastBits[1]), true
			}
			for _, rd := range sd.Rollups {
				t := slices.Index(tierSteps[:], rd.Step)
				if t < 0 {
					return fmt.Errorf("tsdb: restore: series %s%v: unknown rollup step %g", name, sd.Labels, rd.Step)
				}
				if s.rolls == nil {
					s.rolls = new([tierCount]rollState)
				}
				rs := &s.rolls[t]
				if err := rd.Buckets.samples(rollupCols, func(it *ChunkIter) { rs.push(it.bucket()) }); err != nil {
					return fail("rollup head: ", err)
				}
				b := &rd.OpenBits
				rs.open = RollupSample{TS: f(b[0]), Count: f(b[1]), Sum: f(b[2]), Min: f(b[3]), Max: f(b[4]), Last: f(b[5]), lastTS: f(b[6])}
				rs.hasOpen = rd.HasOpen
				for _, c := range rd.Blocks {
					c.restoreBounds()
					if err := rs.sealed.attach(&roll, c); err != nil {
						return fail("rollup ", err)
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

// samples calls fn on each sample of a dumped head chunk of cols value
// columns, and fails if the stream ends before Count samples.
func (c *Chunk) samples(cols int, fn func(*ChunkIter)) error {
	if c.Count > 0 && c.Cols != cols {
		return fmt.Errorf("chunk with %d columns, want %d", c.Cols, cols)
	}
	// it is declared outside the loop: a loop variable whose address is
	// taken is copied into a fresh one every iteration.
	it, n := c.Iter(), 0
	for ; it.Next(); n++ {
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
