package tsdb

import (
	"cmp"
	"fmt"
	"slices"
)

// Dump/Load persist the whole store: the collector's WAL checkpoints
// embed a SnapshotDump in their gob stream, giving the collector binary
// durability across restarts (the stdlib stand-in for InfluxDB's disk
// storage). The dump is versioned. Since v2, sealed chunks are
// persisted in compressed form — a checkpoint costs bytes proportional
// to the compressed store, not to the raw point count — and rollup
// tiers round-trip alongside the raw data so a restart does not forget
// downsampled history.

// snapshotVersion guards format evolution. v1 held raw []Point per
// series; v2 adds compressed blocks, last-sample tracking and rollup
// tiers. Load accepts both.
const snapshotVersion = 2

// RollupDump is one rollup tier of one series in a snapshot (exported
// for encoding only).
type RollupDump struct {
	Step       float64 // bucket width, matches a tierSteps entry
	Blocks     []Chunk
	Head       []RollupSample
	Open       RollupSample
	HasOpen    bool
	OpenLastTS float64
}

// SeriesDump is one series in a snapshot (exported for encoding only).
// Blocks hold the sealed chunks still compressed; Points is only the
// mutable head (in a v1 dump it is the entire series).
type SeriesDump struct {
	Labels  Labels
	Points  []Point
	Blocks  []Chunk
	Last    Point
	HasLast bool
	Rollups []RollupDump
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
// instead of copying; only the open head chunks are decoded.
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
			sd := SeriesDump{
				Labels: exportLabels(s.labels),
				Blocks: s.sealed.dump(),
			}
			head := s.head.run.view()
			for it := head.Iter(); it.Next(); {
				ts, v := it.At()
				sd.Points = append(sd.Points, Point{TS: ts, Value: v})
			}
			if s.hasLast {
				sd.Last = Point{TS: s.lastTS, Value: s.lastVal}
				sd.HasLast = true
			}
			for t := range s.rolls {
				if s.rolls == nil || s.rolls[t].empty() {
					continue
				}
				rs := &s.rolls[t]
				rd := RollupDump{
					Step:       tierSteps[t],
					Blocks:     rs.sealed.dump(),
					Open:       rs.open,
					HasOpen:    rs.hasOpen,
					OpenLastTS: rs.openLastTS,
				}
				head := rs.head.view()
				for it := head.Iter(); it.Next(); {
					rd.Head = append(rd.Head, it.bucket())
				}
				sd.Rollups = append(sd.Rollups, rd)
			}
			dump.Metrics[name] = append(dump.Metrics[name], sd)
			s.mu.Unlock()
		}
	}
	return dump
}

// Load replaces the store's contents with the dump. Both the current
// (v2, compressed blocks) and legacy (v1, raw points) formats load;
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
