// Package metrics is a small, allocation-conscious metrics registry for
// the monitoring system's own health — counters, gauges and fixed-bucket
// histograms, optionally fanned out into labeled families — plus a
// Prometheus text-format exporter. It exists so the collector can be
// observed with the same rigour it observes the mesh: every hot path
// (ingest, HTTP serving, the time-series store, alerting, uplink
// clients) records into instruments obtained once at wiring time, and
// the instruments themselves are lock-free atomics, so observation
// costs a handful of atomic adds per event and zero heap allocations.
//
// The design follows the shape of the Prometheus client library but
// stays stdlib-only:
//
//   - Registry owns named families; duplicate registration panics
//     (metric names are wiring-time constants, not runtime input).
//   - Counter / Gauge / Histogram are the unlabeled instruments.
//   - CounterVec / GaugeVec / HistogramVec add label dimensions;
//     With(values...) returns a cached child handle that callers keep,
//     so the hot path never touches the family map.
//   - GaugeFunc lets a gauge read live state at scrape time (series
//     counts, buffer depths) instead of being pushed.
//
// Exposition is deterministic: families in name order, children in
// label-value order, so the output golden-file tests cleanly.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the metric type, as rendered in the # TYPE exposition line.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry holds named metric families. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with zero or more label dimensions.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histograms only

	mu       sync.RWMutex
	children map[string]metric // canonical label-values key -> instrument
	fn       func() float64    // GaugeFunc callback, exclusive with children
}

// metric is the common interface of the concrete instruments.
type metric interface {
	labelValues() []string
}

// register installs a family, panicking on a duplicate name — metric
// names are compile-time wiring, so a clash is a programming error.
func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", f.name))
	}
	r.families[f.name] = f
	return f
}

// valueKey canonicalises label values for the family's child map.
// Label values never contain \xff in practice (node IDs, route names,
// status codes); the separator keeps ("a","bc") distinct from ("ab","c").
func valueKey(values []string) string {
	return strings.Join(values, "\xff")
}

// --- counter ---

// Counter is a monotonically increasing value.
type Counter struct {
	bits   atomic.Uint64 // float64 bits
	values []string
}

func (c *Counter) labelValues() []string { return c.values }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative deltas are ignored so the
// counter stays monotone.
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	atomicAddFloat(&c.bits, v)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// NewCounter registers and returns an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, kind: KindCounter,
		children: make(map[string]metric)})
	c := &Counter{}
	f.children[""] = c
	return c
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(&family{name: name, help: help, kind: KindCounter,
		labelNames: labelNames, children: make(map[string]metric)})}
}

// With returns the child counter for the label values, creating it on
// first use. Hot paths should call With once and keep the handle.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func(vals []string) metric { return &Counter{values: vals} }).(*Counter)
}

// --- gauge ---

// Gauge is a value that can go up and down.
type Gauge struct {
	bits   atomic.Uint64 // float64 bits
	values []string
}

func (g *Gauge) labelValues() []string { return g.values }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by v (may be negative).
func (g *Gauge) Add(v float64) { atomicAddFloat(&g.bits, v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// NewGauge registers and returns an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(&family{name: name, help: help, kind: KindGauge,
		children: make(map[string]metric)})
	g := &Gauge{}
	f.children[""] = g
	return g
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.register(&family{name: name, help: help, kind: KindGauge,
		labelNames: labelNames, children: make(map[string]metric)})}
}

// With returns the child gauge for the label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func(vals []string) metric { return &Gauge{values: vals} }).(*Gauge)
}

// NewGaugeFunc registers a gauge whose value is read from fn at
// exposition time — for state that already lives elsewhere (series
// counts, queue depths) and should not be double-booked.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: KindGauge, fn: fn})
}

// --- histogram ---

// Histogram accumulates observations into fixed buckets. Buckets are
// upper bounds in ascending order; an implicit +Inf bucket catches the
// rest. Observe is lock-free: a linear scan over a short bucket slice
// and two atomic adds.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // per-bucket (non-cumulative), len(upper)+1
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
	values []string
}

func (h *Histogram) labelValues() []string { return h.values }

func newHistogram(buckets []float64, values []string) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram buckets not ascending at %d", i))
		}
	}
	return &Histogram{
		upper:  buckets,
		counts: make([]atomic.Uint64, len(buckets)+1),
		values: values,
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	atomicAddFloat(&h.sum, v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0..1) by linear interpolation
// within the containing bucket, the same estimate Prometheus's
// histogram_quantile computes. NaN is returned for an empty histogram.
// It is the estimate of a snapshot taken now, bit for bit.
func (h *Histogram) Quantile(q float64) float64 { return h.snapshot().Quantile(q) }

// snapshot copies the histogram's current state. Buckets and totals
// are loaded one by one, so under concurrent observation the copy is
// not a single cut.
func (h *Histogram) snapshot() *HistogramSnapshot {
	hs := &HistogramSnapshot{
		Upper:  h.upper,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.Sum(),
		Count:  h.Count(),
	}
	for i := range h.counts {
		hs.Counts[i] = h.counts[i].Load()
	}
	return hs
}

// NewHistogram registers and returns an unlabeled histogram. A nil or
// empty bucket slice takes DefLatencyBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	f := r.register(&family{name: name, help: help, kind: KindHistogram,
		buckets: buckets, children: make(map[string]metric)})
	h := newHistogram(buckets, nil)
	f.children[""] = h
	return h
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ f *family }

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.register(&family{name: name, help: help, kind: KindHistogram,
		buckets: buckets, labelNames: labelNames, children: make(map[string]metric)})}
}

// With returns the child histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func(vals []string) metric {
		return newHistogram(v.f.buckets, vals)
	}).(*Histogram)
}

// DefLatencyBuckets spans 10 µs to ~2.6 s in powers of two — wide
// enough for in-process ingest (tens of µs) and loopback HTTP (ms)
// alike, with the knee of interest well inside the range.
var DefLatencyBuckets = ExpBuckets(10e-6, 2, 19)

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n bucket bounds starting at start, each width
// apart.
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 {
		panic("metrics: LinearBuckets needs n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// --- family internals ---

// child returns the instrument for the label values, building it via
// mk on first use. The double-checked RLock keeps the common hit path
// contention-light.
func (f *family) child(values []string, mk func([]string) metric) metric {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := valueKey(values)
	f.mu.RLock()
	m, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	vals := make([]string, len(values))
	copy(vals, values)
	m = mk(vals)
	f.children[key] = m
	return m
}

// atomicAddFloat adds delta to the float64 stored as bits in u.
func atomicAddFloat(u *atomic.Uint64, delta float64) {
	for {
		old := u.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if u.CompareAndSwap(old, new) {
			return
		}
	}
}

// sortedFamilies snapshots the registry's families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedChildren snapshots a family's children in label-value order.
func (f *family) sortedChildren() []metric {
	f.mu.RLock()
	out := make([]metric, 0, len(f.children))
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	f.mu.RUnlock()
	sort.Strings(keys)
	f.mu.RLock()
	for _, k := range keys {
		if m, ok := f.children[k]; ok {
			out = append(out, m)
		}
	}
	f.mu.RUnlock()
	return out
}
