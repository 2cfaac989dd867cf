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
