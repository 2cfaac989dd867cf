package tsdb

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// TestLabelsLeaveAsCopies mutates every label map the store hands out —
// Query, QueryOne, QueryRange, Series.Labels and Dump — and checks that
// stored state is untouched.
func TestLabelsLeaveAsCopies(t *testing.T) {
	db := New()
	want := Labels{"node": "N0001", "dst": "N0002"}
	h := db.Series("m", want)
	h.Append(1, 1)

	scribble := func(l Labels) {
		l["node"] = "mutated"
		l["extra"] = "x"
		delete(l, "dst")
	}
	scribble(db.Query("m", nil, 0, 10)[0].Labels)
	r, ok := db.QueryOne("m", want, 0, 10)
	if !ok {
		t.Fatal("QueryOne: series missing")
	}
	scribble(r.Labels)
	scribble(db.QueryRange("m", nil, 0, 10, 5, AggSum)[0].Labels)
	scribble(h.Labels())
	scribble(db.Dump().Metrics["m"][0].Labels)

	if got := db.Query("m", nil, 0, 10); len(got) != 1 || !reflect.DeepEqual(got[0].Labels, want) {
		t.Fatalf("Query labels = %v, want %v", got, want)
	}
	if got := h.Labels(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Series.Labels = %v, want %v", got, want)
	}
	if got := db.Dump().Metrics["m"][0].Labels; !reflect.DeepEqual(got, want) {
		t.Fatalf("Dump labels = %v, want %v", got, want)
	}
	if _, ok := db.QueryOne("m", want, 0, 10); !ok {
		t.Fatal("series no longer found by its original labels")
	}
	h.Append(2, 2)
	if db.SeriesCount() != 1 || db.PointCount() != 2 {
		t.Fatalf("series/points = %d/%d, want 1/2", db.SeriesCount(), db.PointCount())
	}
}

// TestNilAndEmptyLabelsRoundTrip pins that a series created with nil
// labels reports nil (JSON null) and one created with an empty set
// reports an empty map (JSON {}), through every exit and a snapshot.
func TestNilAndEmptyLabelsRoundTrip(t *testing.T) {
	db := New()
	hNil := db.Series("nil", nil)
	hNil.Append(1, 1)
	hEmpty := db.Series("empty", Labels{})
	hEmpty.Append(1, 1)

	asJSON := func(l Labels) string {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	check := func(stage string, d *DB, hn, he *Series) {
		t.Helper()
		for _, c := range []struct {
			metric, want string
			h            *Series
		}{{"nil", "null", hn}, {"empty", "{}", he}} {
			if got := asJSON(d.Query(c.metric, nil, 0, 10)[0].Labels); got != c.want {
				t.Errorf("%s: Query(%s) labels = %s, want %s", stage, c.metric, got, c.want)
			}
			r, ok := d.QueryOne(c.metric, nil, 0, 10)
			if !ok {
				t.Fatalf("%s: QueryOne(%s) missing", stage, c.metric)
			}
			if got := asJSON(r.Labels); got != c.want {
				t.Errorf("%s: QueryOne(%s) labels = %s, want %s", stage, c.metric, got, c.want)
			}
			if got := asJSON(d.QueryRange(c.metric, nil, 0, 10, 5, AggSum)[0].Labels); got != c.want {
				t.Errorf("%s: QueryRange(%s) labels = %s, want %s", stage, c.metric, got, c.want)
			}
			if c.h != nil {
				if got := asJSON(c.h.Labels()); got != c.want {
					t.Errorf("%s: Series(%s).Labels = %s, want %s", stage, c.metric, got, c.want)
				}
			}
		}
	}
	check("live", db, hNil, hEmpty)

	// Both persistence paths keep the distinction.
	loaded := New()
	if err := loaded.Load(db.Dump()); err != nil {
		t.Fatal(err)
	}
	check("Dump/Load", loaded, nil, nil)
	restored := New()
	if err := restored.Load(gobDump(t, db)); err != nil {
		t.Fatal(err)
	}
	check("gob Dump/Load", restored, nil, nil)

	// A nil and an empty set name the same series: whichever created it
	// decides what is reported.
	db.Append("nil", Labels{}, 2, 2)
	db.Append("empty", nil, 2, 2)
	if db.SeriesCount() != 2 || db.PointCount() != 4 {
		t.Fatalf("series/points = %d/%d, want 2/4", db.SeriesCount(), db.PointCount())
	}
	check("after cross appends", db, hNil, hEmpty)
}

// TestMatcherEmptyValueMatchesAbsentLabel pins the matcher semantics: a
// matcher pair {k: ""} holds for a series without k, exactly like a Go
// map lookup of a missing key, and {k: v} with v != "" does not.
func TestMatcherEmptyValueMatchesAbsentLabel(t *testing.T) {
	db := New()
	db.Append("m", Labels{"node": "a"}, 1, 1)
	db.Append("m", Labels{"node": "b", "k": "v"}, 1, 2)
	db.Append("m", Labels{"node": "c", "k": ""}, 1, 3)
	db.Append("m", nil, 1, 4)

	for _, c := range []struct {
		matcher Labels
		want    []float64 // first point value of each matched series, in canonical order
	}{
		{nil, []float64{4, 3, 2, 1}},
		{Labels{}, []float64{4, 3, 2, 1}},
		{Labels{"k": ""}, []float64{4, 3, 1}},
		{Labels{"k": "v"}, []float64{2}},
		{Labels{"k": "", "node": "a"}, []float64{1}},
		{Labels{"node": ""}, []float64{4}},
		{Labels{"absent": "x"}, nil},
	} {
		var got []float64
		for _, r := range db.Query("m", c.matcher, 0, 10) {
			got = append(got, r.Points[0].Value)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Query(%v) = %v, want %v", c.matcher, got, c.want)
		}
		wantSum := math.NaN()
		if len(c.want) > 0 {
			wantSum = 0
			for _, v := range c.want {
				wantSum += v
			}
		}
		if got := db.AggregateRange("m", c.matcher, 0, 10, AggSum); got != wantSum && !(math.IsNaN(got) && math.IsNaN(wantSum)) {
			t.Errorf("AggregateRange(%v) = %v, want %v", c.matcher, got, wantSum)
		}
	}
}

// TestSnapshotRestorePreservesLabelsAndHandles round-trips a store with
// several label shapes and checks that labels come back equal and that
// handles taken before a Load re-register under their labels.
func TestSnapshotRestorePreservesLabelsAndHandles(t *testing.T) {
	db := New()
	sets := []Labels{
		{"node": "N0001"},
		{"node": "N0001", "dst": "N0002"},
		{"node": "N0002", "event": "rx", "type": "HELLO"},
		{"a": "x=y,z", "b": "<&>"},
	}
	var handles []*Series
	for i, l := range sets {
		h := db.Series("m", l)
		h.Append(float64(i), float64(i))
		handles = append(handles, h)
	}
	if err := db.Load(gobDump(t, db)); err != nil {
		t.Fatal(err)
	}
	for i, l := range sets {
		r, ok := db.QueryOne("m", l, 0, 10)
		if !ok || !reflect.DeepEqual(r.Labels, l) || len(r.Points) != 1 {
			t.Fatalf("set %d after restore: %+v ok=%v, want labels %v", i, r, ok, l)
		}
		handles[i].Append(100, 1)
		if r, _ := db.QueryOne("m", l, 0, 1000); len(r.Points) != 2 {
			t.Fatalf("set %d: handle append after restore landed elsewhere: %+v", i, r)
		}
		if got := handles[i].Labels(); !reflect.DeepEqual(got, l) {
			t.Fatalf("set %d: handle labels = %v, want %v", i, got, l)
		}
	}
	if db.SeriesCount() != len(sets) {
		t.Fatalf("series = %d, want %d", db.SeriesCount(), len(sets))
	}
}
