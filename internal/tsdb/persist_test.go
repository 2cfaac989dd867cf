package tsdb

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

func populated() *DB {
	db := New()
	for s := 0; s < 5; s++ {
		lbl := Labels{"node": string(rune('a' + s)), "kind": "x"}
		for i := 0; i < 100; i++ {
			db.Append("m1", lbl, float64(i), float64(i*s))
		}
	}
	db.Append("m2", nil, 7, 42)
	db.Append("m2", Labels{"z": "1"}, 9, 43)
	return db
}

func assertEqualDBs(t *testing.T, a, b *DB) {
	t.Helper()
	if a.PointCount() != b.PointCount() || a.SeriesCount() != b.SeriesCount() {
		t.Fatalf("counts differ: %d/%d vs %d/%d",
			a.PointCount(), a.SeriesCount(), b.PointCount(), b.SeriesCount())
	}
	namesA, namesB := a.MetricNames(), b.MetricNames()
	if len(namesA) != len(namesB) {
		t.Fatalf("metric names differ: %v vs %v", namesA, namesB)
	}
	for _, name := range namesA {
		ra := a.Query(name, nil, 0, math.MaxFloat64)
		rb := b.Query(name, nil, 0, math.MaxFloat64)
		if len(ra) != len(rb) {
			t.Fatalf("%s: series count differs", name)
		}
		for i := range ra {
			if ra[i].Labels.canonical() != rb[i].Labels.canonical() {
				t.Fatalf("%s: labels differ: %v vs %v", name, ra[i].Labels, rb[i].Labels)
			}
			if len(ra[i].Points) != len(rb[i].Points) {
				t.Fatalf("%s%v: point count differs", name, ra[i].Labels)
			}
			for j := range ra[i].Points {
				if ra[i].Points[j] != rb[i].Points[j] {
					t.Fatalf("%s%v: point %d differs", name, ra[i].Labels, j)
				}
			}
		}
	}
}

// gobDump round-trips db.Dump() through gob, the encoding the
// collector's WAL checkpoints embed it in.
func gobDump(t *testing.T, db *DB) SnapshotDump {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(db.Dump()); err != nil {
		t.Fatal(err)
	}
	var dump SnapshotDump
	if err := gob.NewDecoder(&buf).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	return dump
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	orig := populated()
	restored := New()
	if err := restored.Load(gobDump(t, orig)); err != nil {
		t.Fatal(err)
	}
	assertEqualDBs(t, orig, restored)
	// The restored store must stay fully usable.
	restored.Append("m1", Labels{"node": "a", "kind": "x"}, 1000, 1)
	if restored.PointCount() != orig.PointCount()+1 {
		t.Fatal("append after restore broken")
	}
}

func TestRestoreReplacesExistingContents(t *testing.T) {
	db := New()
	db.Append("junk", Labels{"old": "1"}, 1, 1)
	if err := db.Load(populated().Dump()); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.QueryOne("junk", Labels{"old": "1"}, 0, 10); ok {
		t.Fatal("pre-restore contents survived")
	}
	assertEqualDBs(t, populated(), db)
}

// TestRestoreGarbageFails: bytes that are not a gob SnapshotDump fail to
// decode, and a decoded dump Load cannot trust — unknown version,
// duplicate series, a raw chunk with the wrong column count — is
// refused without touching the store.
func TestRestoreGarbageFails(t *testing.T) {
	var dump SnapshotDump
	if err := gob.NewDecoder(bytes.NewReader([]byte("not a gob"))).Decode(&dump); err == nil {
		t.Fatal("garbage decoded")
	}
	bad := map[string]SnapshotDump{
		"version 0": {Version: 0},
		"version 3": {Version: snapshotVersion + 1},
		"duplicate series": {Version: snapshotVersion, Metrics: map[string][]SeriesDump{
			"m": {{Labels: Labels{"a": "1"}}, {Labels: Labels{"a": "1"}}},
		}},
		"raw chunk columns": {Version: snapshotVersion, Metrics: map[string][]SeriesDump{
			"m": {{Labels: Labels{"a": "1"}, Blocks: []Chunk{{Cols: rollupCols}}}},
		}},
		"truncated head": {Version: snapshotVersion, Metrics: map[string][]SeriesDump{
			"m": {{Labels: Labels{"a": "1"}, Head: Chunk{Cols: 1, Count: 3}}},
		}},
	}
	for name, dump := range bad {
		db := populated()
		if err := db.Load(dump); err == nil {
			t.Fatalf("%s: loaded", name)
		}
		assertEqualDBs(t, populated(), db)
	}
}

func TestSnapshotEmptyDB(t *testing.T) {
	db := populated()
	if err := db.Load(gobDump(t, New())); err != nil {
		t.Fatal(err)
	}
	if db.PointCount() != 0 || db.SeriesCount() != 0 {
		t.Fatal("empty snapshot produced data")
	}
}

// TestSnapshotKeepsNegativeZero: gob omits a float field equal to zero,
// so before v3 a -0 in a head sample, the last sample, a rollup bucket
// or a chunk bound came back from a checkpoint as +0. Every one must
// now keep its sign.
func TestSnapshotKeepsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	db := New()
	db.SetSealEvery(4)
	db.ConfigureTiers(Retention{})
	// Series s seals a chunk starting at -0 and keeps -0 in its head;
	// h closes a 1m bucket starting at -0 into its rollup head; l holds
	// the single sample (-0, -0), its last and its open bucket's.
	for i, ts := range []float64{negZero, 1, 2, 3, 4} {
		db.Append("s", nil, ts, []float64{negZero, 5}[i%2])
	}
	db.Append("h", nil, negZero, negZero)
	db.Append("h", nil, 60, 2)
	db.Append("l", nil, negZero, negZero)

	restored, again := New(), New()
	restored.ConfigureTiers(Retention{})
	again.ConfigureTiers(Retention{})
	dump := gobDump(t, db)
	// Loading leaves the dump as it was: a second Load of it restores
	// the same store.
	for _, into := range []*DB{restored, again} {
		if err := into.Load(dump); err != nil {
			t.Fatal(err)
		}
	}
	if dumpString(again) != dumpString(restored) {
		t.Fatal("a second Load of the same dump restored a different store")
	}
	neg := func(where string, v float64) {
		t.Helper()
		if v != 0 || !math.Signbit(v) {
			t.Errorf("%s = %v (signbit %v), want -0", where, v, math.Signbit(v))
		}
	}
	if r, ok := restored.QueryOne("s", nil, -1, 10); !ok || len(r.Points) != 5 {
		t.Fatalf("s restored as %v", r.Points)
	} else {
		neg("sealed ts", r.Points[0].TS)
		neg("sealed value", r.Points[0].Value)
		neg("head value", r.Points[4].Value)
	}
	p, _ := restored.Latest("l", nil)
	neg("last ts", p.TS)
	neg("last value", p.Value)

	dumped := restored.Dump()
	sd := func(name string) SeriesDump {
		t.Helper()
		sd := dumped.Metrics[name][0]
		if err := sd.decodeV3(); err != nil {
			t.Fatal(err)
		}
		return sd
	}
	s, h, l := sd("s"), sd("h"), sd("l")
	neg("chunk MinTS", s.Blocks[0].MinTS)
	neg("rollup open TS", s.Rollups[0].Open.TS)
	neg("rollup head TS", h.Rollups[0].Head[0].TS)
	neg("rollup head last", h.Rollups[0].Head[0].Last)
	neg("rollup open last", l.Rollups[0].Open.Last)
	neg("rollup open last TS", l.Rollups[0].OpenLastTS)
}

// TestSnapshotLoadsV2: a v2 dump, which holds heads, the last sample
// and open rollup buckets in float fields, still loads into the store
// it was taken from.
func TestSnapshotLoadsV2(t *testing.T) {
	db := New()
	db.SetSealEvery(16)
	db.ConfigureTiers(Retention{})
	for i := 0; i < 500; i++ {
		db.Append("m", Labels{"node": string(rune('a' + i%3))}, float64(i*7), float64(i%11))
	}
	dump := db.Dump()
	dump.Version = 2
	for _, sds := range dump.Metrics {
		for i := range sds {
			sd := &sds[i]
			if err := sd.decodeV3(); err != nil {
				t.Fatal(err)
			}
			sd.Head, sd.LastBits = Chunk{}, [2]uint64{}
			for j := range sd.Rollups {
				sd.Rollups[j].Buckets, sd.Rollups[j].OpenBits = Chunk{}, [7]uint64{}
			}
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dump); err != nil {
		t.Fatal(err)
	}
	var v2 SnapshotDump
	if err := gob.NewDecoder(&buf).Decode(&v2); err != nil {
		t.Fatal(err)
	}
	restored := New()
	restored.ConfigureTiers(Retention{})
	if err := restored.Load(v2); err != nil {
		t.Fatal(err)
	}
	if got, want := dumpString(restored), dumpString(db); got != want {
		t.Fatalf("v2 dump restored as\n%s\nwant\n%s", got, want)
	}
}
