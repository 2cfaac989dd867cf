package tsdb

import (
	"fmt"
	"math"
)

// Aggregation. Every aggregation in the store folds samples and buckets
// through one accumulator, RollupSample, and answers from it with one
// value(agg); grid is the one loop that buckets a time-ordered stream
// onto a caller-aligned grid.

// Agg selects an aggregation function.
type Agg string

// Aggregations understood by Aggregate and Downsample.
const (
	AggSum   Agg = "sum"
	AggAvg   Agg = "avg"
	AggMin   Agg = "min"
	AggMax   Agg = "max"
	AggCount Agg = "count"
	AggLast  Agg = "last"
)

// Valid reports whether a is one of the aggregations above.
func (a Agg) Valid() bool {
	switch a {
	case AggSum, AggAvg, AggMin, AggMax, AggCount, AggLast:
		return true
	}
	return false
}

// RollupSample is one bucket of samples, and the one accumulator every
// aggregation in the store folds through: every aggregation it supports
// is answerable from the five numbers a rollup bucket stores, so
// re-bucketing to a coarser, caller-aligned grid loses nothing. lastTS,
// the timestamp of the newest sample folded in, says which value is
// Last; a bucket decoded from a rollup chunk takes its TS.
//
// Accumulations differ only in where they start, and each start shows
// in the answer:
//   - a rollup bucket (feed) and a rollup-tier QueryRange bucket start
//     at their first input, so a lone -0 sums to -0;
//   - a raw-tier bucket (Aggregate, Downsample, raw-tier QueryRange)
//     starts at its first sample with the sum taken from +0 (see
//     rawGrid), so a leading NaN makes min and max NaN and a lone -0
//     sums to +0;
//   - AggregateRange starts empty (min +Inf, max -Inf), so NaN is
//     skipped, min and max are +Inf and -Inf when every value is NaN,
//     and a lone -0 sums to +0.
type RollupSample struct {
	TS     float64 // bucket start (inclusive)
	Count  float64
	Sum    float64
	Min    float64
	Max    float64
	Last   float64 // value of the newest sample in the bucket
	lastTS float64
}

// fold merges into acc a bucket of count samples with the given sum,
// min and max, whose newest sample, at lastTS, has value last (acc's TS
// is kept). That Last supersedes acc's unless acc holds a newer sample,
// so buckets folded in time order keep the last one's. The columns come
// as scalars so that an inlined fold stays in registers; a seven-field
// struct argument is copied through memory on every sample.
func (acc *RollupSample) fold(count, sum, min, max, last, lastTS float64) {
	acc.Count += count
	acc.Sum += sum
	if min < acc.Min {
		acc.Min = min
	}
	if max > acc.Max {
		acc.Max = max
	}
	if lastTS >= acc.lastTS {
		acc.Last, acc.lastTS = last, lastTS
	}
}

// add folds the sample (ts, v), a one-sample bucket, into acc.
func (acc *RollupSample) add(ts, v float64) { acc.fold(1, v, v, v, v, ts) }

// value answers agg from the accumulator: NaN when it folded nothing
// (count: 0).
func (acc *RollupSample) value(agg Agg) float64 {
	if acc.Count == 0 && agg != AggCount {
		return math.NaN()
	}
	switch agg {
	case AggCount:
		return acc.Count
	case AggSum:
		return acc.Sum
	case AggAvg:
		return acc.Sum / acc.Count
	case AggMin:
		return acc.Min
	case AggMax:
		return acc.Max
	case AggLast:
		return acc.Last
	default:
		panic(fmt.Sprintf("tsdb: unknown aggregation %q", agg))
	}
}

// grid folds time-ordered buckets onto a grid of width step aligned to
// from and reduces each output bucket with agg — the one bucketing loop
// behind Downsample and both tiers of QueryRange. A bucket goes to the
// output bucket containing its TS; empty output buckets are omitted.
type grid struct {
	from, step float64
	agg        Agg

	out  []Point
	acc  RollupSample
	idx  float64
	open bool
}

// add folds a bucket starting at ts — count samples with the given
// sum, min and max, the newest of them last at lastTS — into the output
// bucket containing ts, which it opens at that bucket when it starts a
// new one. The columns come as scalars, as fold's do.
func (g *grid) add(ts, count, sum, min, max, last, lastTS float64) {
	if idx := math.Floor((ts - g.from) / g.step); !g.open || idx != g.idx {
		g.flush()
		g.acc = RollupSample{TS: ts, Count: count, Sum: sum, Min: min, Max: max, Last: last, lastTS: lastTS}
		g.idx, g.open = idx, true
		return
	}
	g.acc.fold(count, sum, min, max, last, lastTS)
}

// flush closes the open output bucket, if any.
func (g *grid) flush() {
	if g.open {
		g.out = append(g.out, Point{TS: g.from + g.idx*g.step, Value: g.acc.value(g.agg)})
		g.open = false
	}
}

// rawGrid buckets the samples of it onto the grid — Downsample and the
// raw tier of QueryRange. Each sample is a one-sample bucket whose sum is
// taken from +0, as every raw-tier sum is: 0+v differs from v only for
// v = -0.
func rawGrid(it Iter, from, step float64, agg Agg) []Point {
	g := grid{from: from, step: step, agg: agg}
	for it.Next() {
		ts, v := it.At()
		g.add(ts, 1, 0+v, v, v, v, ts)
	}
	g.flush()
	return g.out
}

// Aggregate reduces time-ordered points to a single value, as one
// raw-tier bucket does (see RollupSample). NaN is returned for an empty
// input (except count, which is 0).
func Aggregate(points []Point, agg Agg) float64 {
	var acc RollupSample
	for i, p := range points {
		if v := p.Value; i == 0 {
			acc = RollupSample{Count: 1, Sum: 0 + v, Min: v, Max: v, Last: v, lastTS: p.TS}
		} else {
			acc.add(p.TS, v)
		}
	}
	return acc.value(agg)
}

// Downsample buckets points into fixed step windows aligned to from and
// aggregates each bucket. Empty buckets are omitted.
func Downsample(points []Point, from, step float64, agg Agg) []Point {
	if step <= 0 {
		return nil
	}
	return rawGrid(PointsIter(points), from, step, agg)
}
