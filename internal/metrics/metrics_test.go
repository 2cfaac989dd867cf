package metrics

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "help")
	c.Inc()
	c.Add(2.5)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.NewGauge("g", "help")
	g.Set(10)
	g.Add(-4)
	g.Dec()
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestVecChildrenAreCachedPerLabelSet(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("req_total", "help", "route", "code")
	a := v.With("ingest", "200")
	b := v.With("ingest", "200")
	if a != b {
		t.Fatal("same label values should return the same child")
	}
	v.With("ingest", "400").Add(2)
	a.Inc()
	if got := v.With("ingest", "200").Value(); got != 1 {
		t.Fatalf("child = %v, want 1", got)
	}
	// ("a","bc") and ("ab","c") must be distinct children.
	w := r.NewCounterVec("join_total", "help", "x", "y")
	w.With("a", "bc").Inc()
	if got := w.With("ab", "c").Value(); got != 0 {
		t.Fatalf("label joining collides: got %v, want 0", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	r.NewGauge("dup", "help")
}

func TestWrongLabelCountPanics(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("v_total", "help", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong label count")
		}
	}()
	v.With("only-one")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "help", []float64{0.01, 0.1, 1})
	for i := 0; i < 100; i++ {
		h.Observe(0.005) // first bucket
	}
	h.Observe(0.5) // third bucket
	h.Observe(5)   // +Inf bucket
	if h.Count() != 102 {
		t.Fatalf("count = %d, want 102", h.Count())
	}
	wantSum := 100*0.005 + 0.5 + 5
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	// p50 falls inside the first bucket [0, 0.01].
	if q := h.Quantile(0.5); q <= 0 || q > 0.01 {
		t.Fatalf("p50 = %v, want in (0, 0.01]", q)
	}
	// p99 lands between bucket 1's bound and bucket 3's bound.
	if q := h.Quantile(0.99); q < 0.01 || q > 1 {
		t.Fatalf("p99 = %v, want in [0.01, 1]", q)
	}
	if q := NewRegistry().NewHistogram("empty", "h", nil).Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty histogram quantile = %v, want NaN", q)
	}
}

func TestExpAndLinearBuckets(t *testing.T) {
	e := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if e[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", e, want)
		}
	}
	l := LinearBuckets(0, 5, 3)
	want = []float64{0, 5, 10}
	for i := range want {
		if l[i] != want[i] {
			t.Fatalf("LinearBuckets = %v, want %v", l, want)
		}
	}
}

// TestConcurrentHammer drives every instrument kind from many
// goroutines at once — run under -race, it proves the registry's
// lock-free hot paths and the exporter can interleave safely.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("hammer_total", "counter under fire")
	g := r.NewGauge("hammer_gauge", "gauge under fire")
	cv := r.NewCounterVec("hammer_vec_total", "labeled counter under fire", "worker")
	h := r.NewHistogram("hammer_seconds", "histogram under fire", ExpBuckets(1e-6, 4, 10))
	hv := r.NewHistogramVec("hammer_vec_seconds", "labeled histogram under fire",
		ExpBuckets(1e-6, 4, 10), "worker")
	r.NewGaugeFunc("hammer_func", "callback gauge", func() float64 { return c.Value() })

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w))
			child := cv.With(label)
			hchild := hv.With(label)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				child.Inc()
				h.Observe(float64(i) * 1e-6)
				hchild.Observe(float64(i) * 1e-6)
				if i%500 == 0 {
					// Concurrent scrapes must not race with writers.
					_ = r.Text()
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %v, want %v", got, workers*iters)
	}
	if got := g.Value(); got != workers*iters {
		t.Fatalf("gauge = %v, want %v", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count = %v, want %v", got, workers*iters)
	}
	total := 0.0
	for w := 0; w < workers; w++ {
		total += cv.With(string(rune('a' + w))).Value()
	}
	if total != workers*iters {
		t.Fatalf("vec total = %v, want %v", total, workers*iters)
	}
}

// TestExpositionGolden pins the exact Prometheus text rendering against
// a golden file. Regenerate with -update on deliberate format changes.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("meshmon_demo_batches_total", "Batches ingested.")
	c.Add(42)
	g := r.NewGauge("meshmon_demo_nodes", "Nodes known.")
	g.Set(7)
	v := r.NewCounterVec("meshmon_demo_http_requests_total",
		"HTTP requests by route and status.", "route", "code")
	v.With("ingest", "200").Add(100)
	v.With("ingest", "400").Add(3)
	v.With("query", "200").Add(12)
	h := r.NewHistogram("meshmon_demo_latency_seconds",
		"Ingest latency.", []float64{0.001, 0.01, 0.1, 1})
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2)
	r.NewGaugeFunc("meshmon_demo_series", "Series in the store.",
		func() float64 { return 19 })
	esc := r.NewGaugeVec("meshmon_demo_escapes", `Label values with "quotes" and \slashes\.`, "path")
	esc.With(`C:\temp\"x"`).Set(1)

	got := r.Text()
	golden := filepath.Join("testdata", "exposition.golden")
	if update := os.Getenv("UPDATE_GOLDEN"); update != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHistogramQuantileMatchesSnapshot: over random bucket layouts and
// observations, a live histogram's quantile estimate equals its
// registry snapshot's bit for bit, for quantiles inside, at and beyond
// [0, 1] — the health panel, the experiments and the benchmark read
// snapshots, and the live estimate must not disagree in the last bit.
func TestHistogramQuantileMatchesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qs := []float64{-0.5, 0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1, 1.5, math.NaN()}
	for trial := 0; trial < 300; trial++ {
		buckets := make([]float64, 1+rng.Intn(12))
		edge := 0.0
		for i := range buckets {
			edge += rng.ExpFloat64() / 3
			buckets[i] = edge
		}
		r := NewRegistry()
		h := r.NewHistogram("h_seconds", "help", buckets)
		for n := rng.Intn(200); n > 0; n-- {
			h.Observe(rng.ExpFloat64() * edge / 2)
		}
		fam, ok := r.Family("h_seconds")
		if !ok || len(fam.Samples) != 1 {
			t.Fatalf("trial %d: family %+v", trial, fam)
		}
		snap := fam.Samples[0].Hist
		for _, q := range append(qs, rng.Float64()) {
			if live, s := h.Quantile(q), snap.Quantile(q); math.Float64bits(live) != math.Float64bits(s) {
				t.Fatalf("trial %d q=%v: live %v (%x), snapshot %v (%x)", trial, q, live, math.Float64bits(live), s, math.Float64bits(s))
			}
		}
	}
}
