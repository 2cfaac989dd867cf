package tsdb

import (
	"cmp"
	"slices"
	"testing"
)

// TestMergeRuns pins the merge's contract on small runs: the union in
// order, equal keys in run order, folds of equal keys into the first,
// the limit (counted before folds of the last kept key), and nil for an
// empty union into a nil dst.
func TestMergeRuns(t *testing.T) {
	type kv struct{ k, v int }
	byK := func(a, b *kv) int { return cmp.Compare(a.k, b.k) }
	runs := [][]kv{{{1, 10}, {3, 11}, {3, 12}}, nil, {{0, 20}, {3, 21}, {5, 22}}, {{3, 30}}}
	got := MergeRuns(nil, runs, byK, nil, 0)
	want := []kv{{0, 20}, {1, 10}, {3, 11}, {3, 12}, {3, 21}, {3, 30}, {5, 22}}
	if !slices.Equal(got, want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	sum := func(acc, x *kv) { acc.v += x.v }
	if got, want := MergeRuns(nil, runs, byK, sum, 0), []kv{{0, 20}, {1, 10}, {3, 74}, {5, 22}}; !slices.Equal(got, want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	if got, want := MergeRuns(nil, runs, byK, sum, 3), []kv{{0, 20}, {1, 10}, {3, 74}}; !slices.Equal(got, want) {
		t.Fatalf("fold with limit = %v, want %v", got, want)
	}
	if got, want := MergeRuns([]kv{{9, 9}}, runs, byK, nil, 2), []kv{{9, 9}, {0, 20}, {1, 10}}; !slices.Equal(got, want) {
		t.Fatalf("append with limit = %v, want %v", got, want)
	}
	if got := MergeRuns(nil, [][]kv{nil, {}}, byK, nil, 0); got != nil {
		t.Fatalf("empty merge = %#v, want nil", got)
	}
	if got := MergeRuns([]kv{}, nil, byK, nil, 0); got == nil {
		t.Fatal("empty merge into a non-nil dst came back nil")
	}
}
