package tsdb

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// MergeRuns is the one k-way merge behind every partitioned read: the
// collector's shards and a federation's members each hand back runs
// already sorted by compare, and MergeRuns appends their union to dst
// in that order. Elements that compare equal leave in run order (earlier
// run first, then position within the run). With fold set, each one
// after the first of an equal-key streak is folded into the first
// instead of appended. The merge stops once limit elements have been
// appended (limit <= 0: no bound).
//
// dst is grown once to the input size (capped by limit); a nil dst
// stays nil when every run is empty.
func MergeRuns[T any](dst []T, runs [][]T, compare func(a, b *T) int, fold func(acc, x *T), limit int) []T {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	if limit > 0 && total > limit {
		total = limit
	}
	dst = slices.Grow(dst, total)
	start := len(dst)

	// h is a binary min-heap of the non-empty runs' remainders, ordered
	// by (head element, run index) so equal keys pop in run order.
	type cursor struct {
		rest []T
		run  int
	}
	h := make([]cursor, 0, len(runs))
	less := func(i, j int) bool {
		if c := compare(&h[i].rest[0], &h[j].rest[0]); c != 0 {
			return c < 0
		}
		return h[i].run < h[j].run
	}
	down := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(h) && less(l, m) {
				m = l
			}
			if r := 2*i + 2; r < len(h) && less(r, m) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i, r := range runs {
		if len(r) > 0 {
			h = append(h, cursor{rest: r, run: i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		x := &h[0].rest[0]
		if n := len(dst); fold != nil && n > start && compare(&dst[n-1], x) == 0 {
			fold(&dst[n-1], x)
		} else if limit > 0 && len(dst)-start == limit {
			break
		} else {
			dst = append(dst, *x)
		}
		if h[0].rest = h[0].rest[1:]; len(h[0].rest) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return dst
}

// MergeQuery merges per-run Query results (each ordered by canonical
// label string, as *DB orders them) into one list in that order. A
// series several runs hold becomes one result: labels from the earliest
// run holding it, points merged by timestamp with equal timestamps in
// run order — the series a single store holding every run's samples
// would return.
func MergeQuery(parts [][]Result) []Result {
	return mergeResults(parts, func(_ string, _ Labels, _ []int, pts [][]Point) []Point {
		return MergeRuns(nil, pts, func(a, b *Point) int { return cmp.Compare(a.TS, b.TS) }, nil, 0)
	})
}

// MergeRange merges per-run QueryRange results over one bucket grid.
// A bucket several runs hold folds in run order by agg: sum and count
// add, min and max compare, avg recombines count-weighted — weights are
// the matching buckets of the runs' AggCount results, walked in
// lockstep, and 1 where a bucket is missing there (weights nil: all 1)
// — and last keeps the run whose series has the newest sample by
// latestTS, asked at most once per (series, run).
func MergeRange(parts, weights [][]Result, agg Agg, latestTS func(run int, labels Labels) float64) []Result {
	type cell struct {
		Point
		weight float64 // samples behind Value (avg only)
		pos    int     // index of the contributing run in the group
	}
	byTS := func(a, b *cell) int { return cmp.Compare(a.TS, b.TS) }
	wkeys := make([][]string, len(weights))
	wnext := make([]int, len(weights))
	for r, ws := range weights {
		wkeys[r] = make([]string, len(ws))
		for i := range ws {
			wkeys[r][i] = ws[i].Labels.canonical()
		}
	}
	// weightsFor advances run r's count cursor to key, returning that
	// series' count buckets (nil when the run has none for it).
	weightsFor := func(r int, key string) []Point {
		if r >= len(weights) {
			return nil
		}
		for wnext[r] < len(wkeys[r]) && wkeys[r][wnext[r]] < key {
			wnext[r]++
		}
		if i := wnext[r]; i < len(wkeys[r]) && wkeys[r][i] == key {
			return weights[r][i].Points
		}
		return nil
	}
	return mergeResults(parts, func(key string, labels Labels, runs []int, pts [][]Point) []Point {
		cellRuns := make([][]cell, len(runs))
		for j, r := range runs {
			wpts, k := weightsFor(r, key), 0
			cells := make([]cell, len(pts[j]))
			for i, p := range pts[j] {
				w := 1.0
				for k < len(wpts) && wpts[k].TS < p.TS {
					k++
				}
				if k < len(wpts) && wpts[k].TS == p.TS {
					w = wpts[k].Value
				}
				cells[i] = cell{p, w, j}
			}
			cellRuns[j] = cells
		}
		var latest []float64
		latestOf := func(pos int) float64 {
			if latest == nil {
				latest = make([]float64, len(runs))
				for i := range latest {
					latest[i] = math.NaN()
				}
			}
			if math.IsNaN(latest[pos]) {
				latest[pos] = latestTS(runs[pos], labels)
			}
			return latest[pos]
		}
		merged := MergeRuns(nil, cellRuns, byTS, func(acc, x *cell) {
			switch agg {
			case AggSum, AggCount:
				acc.Value += x.Value
			case AggMin:
				if x.Value < acc.Value {
					acc.Value = x.Value
				}
			case AggMax:
				if x.Value > acc.Value {
					acc.Value = x.Value
				}
			case AggAvg:
				// acc.weight accumulates across runs, so a bucket split
				// three ways (owner + stacked legacies) still recombines
				// to the exact overall mean.
				if acc.weight+x.weight > 0 {
					acc.Value = (acc.Value*acc.weight + x.Value*x.weight) / (acc.weight + x.weight)
					acc.weight += x.weight
				}
			case AggLast:
				if latestOf(x.pos) > latestOf(acc.pos) {
					acc.Value, acc.pos = x.Value, x.pos
				}
			}
		}, 0)
		out := make([]Point, len(merged))
		for i, c := range merged {
			out[i] = c.Point
		}
		return out
	})
}

// mergeResults merges result lists, each ordered by canonical label
// string, into one list in that order. Results of the same series
// become one: its labels come from the earliest run holding it, its
// points from points(key, labels, runs, pts), where runs are the
// indices of the runs holding the series, ascending, and pts are their
// point slices (both only valid during the call).
func mergeResults(parts [][]Result, points func(key string, labels Labels, runs []int, pts [][]Point) []Point) []Result {
	type keyed struct {
		key string
		run int
		res *Result
	}
	keyedRuns := make([][]keyed, len(parts))
	for i, part := range parts {
		keyedRuns[i] = make([]keyed, len(part))
		for j := range part {
			keyedRuns[i][j] = keyed{part[j].Labels.canonical(), i, &part[j]}
		}
	}
	all := MergeRuns(nil, keyedRuns, func(a, b *keyed) int { return strings.Compare(a.key, b.key) }, nil, 0)
	out := make([]Result, 0, len(all))
	var runs []int
	var pts [][]Point
	for i := 0; i < len(all); {
		runs, pts = runs[:0], pts[:0]
		j := i
		for ; j < len(all) && all[j].key == all[i].key; j++ {
			runs = append(runs, all[j].run)
			pts = append(pts, all[j].res.Points)
		}
		first := all[i].res
		out = append(out, Result{Labels: first.Labels, Points: points(all[i].key, first.Labels, runs, pts)})
		i = j
	}
	return out
}
