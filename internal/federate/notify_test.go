package federate

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/dashboard"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// sseRecorder is a streaming http.ResponseWriter: every Write (the
// dashboard writes one SSE frame per call) goes to frames.
type sseRecorder struct {
	header http.Header
	frames chan string
}

func (w *sseRecorder) Header() http.Header { return w.header }
func (w *sseRecorder) WriteHeader(int)     {}
func (w *sseRecorder) Flush()              {}
func (w *sseRecorder) Write(p []byte) (int, error) {
	w.frames <- string(p)
	return len(p), nil
}

// nextFrame returns the stream's next frame, failing after a generous
// deadline instead of hanging the test.
func nextFrame(t *testing.T, frames <-chan string) string {
	t.Helper()
	select {
	case f := <-frames:
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("no SSE frame within 10s")
		return ""
	}
}

// watchFederation builds a View over two collectors, streams it through
// a dashboard's SSE hub until an ingest into a member reaches the
// stream as a delta, then closes the dashboard and returns, dropping
// every reference. released is set once the first member's memory is
// collected: a finalizer watches an acyclic token only that member's
// OnIngest hook references.
func watchFederation(t *testing.T, released *atomic.Bool) {
	token := new([64]byte)
	runtime.SetFinalizer(token, func(*[64]byte) { released.Store(true) })
	cfg := collector.DefaultConfig()
	cfg.OnIngest = func(wire.Batch) { token[0]++ }
	a := collector.New(tsdb.New(), cfg)
	b := collector.New(tsdb.New(), collector.DefaultConfig())
	fed, err := NewView([]MemberView{{Name: "a", View: a}, {Name: "b", View: b}}, ViewConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dash := dashboard.New(fed, nil, dashboard.Config{})

	// Room for every frame the stream writes here (a greeting, a few
	// deltas), so the handler never blocks on the recorder.
	w := &sseRecorder{header: http.Header{}, frames: make(chan string, 64)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan struct{})
	go func() {
		defer close(served)
		dash.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/events", nil).WithContext(ctx))
	}()
	if f := nextFrame(t, w.frames); !strings.HasPrefix(f, "event: epoch") {
		t.Fatalf("first frame %q, want the epoch greeting", f)
	}
	if err := a.Ingest(viewBatch(1, 1)); err != nil {
		t.Fatal(err)
	}
	if f := nextFrame(t, w.frames); !strings.HasPrefix(f, "event: delta") {
		t.Fatalf("frame after ingest %q, want a delta", f)
	}
	dash.Close()
	<-served
}

// TestFederateViewReleasesMembers: once the dashboard watching a
// federation is closed and every reference dropped, no goroutine is
// left behind and the members' memory is released.
func TestFederateViewReleasesMembers(t *testing.T) {
	base := runtime.NumGoroutine()
	var released atomic.Bool
	watchFederation(t, &released)
	leaked := func() bool { return runtime.NumGoroutine() > base || !released.Load() }
	for i := 0; i < 50 && leaked(); i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after teardown, %d before", n, base)
	}
	if !released.Load() {
		t.Error("member collector still reachable after the view and dashboard were dropped")
	}
}

// TestFederateNotifyNested: two members ingest concurrently, one behind
// a View nested inside another. Waiters on both views follow the
// documented protocol (take Changed, re-check Epoch, then block) and
// must reach their final summed epoch without the sum ever going back.
func TestFederateNotifyNested(t *testing.T) {
	const batches = 300
	m1 := collector.New(tsdb.New(), collector.DefaultConfig())
	m2 := collector.New(tsdb.New(), collector.DefaultConfig())
	inner, err := NewView([]MemberView{{Name: "m1", View: m1}}, ViewConfig{})
	if err != nil {
		t.Fatal(err)
	}
	outer, err := NewView([]MemberView{{Name: "inner", View: inner}, {Name: "m2", View: m2}}, ViewConfig{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wait := func(name string, v collector.View, want uint64) {
		defer wg.Done()
		deadline := time.After(30 * time.Second)
		var last uint64
		for last < want {
			ch := v.Changed()
			if e := v.Epoch(); e != last {
				if e < last {
					t.Errorf("%s: epoch went back from %d to %d", name, last, e)
					return
				}
				last = e
				continue
			}
			select {
			case <-ch:
			case <-deadline:
				t.Errorf("%s: waiter stuck at epoch %d of %d", name, last, want)
				return
			}
		}
	}
	wg.Add(2)
	go wait("outer", outer, 2*batches)
	go wait("inner", inner, batches)
	for i, c := range []*collector.Collector{m1, m2} {
		wg.Add(1)
		go func(node wire.NodeID, c *collector.Collector) {
			defer wg.Done()
			for seq := uint64(1); seq <= batches; seq++ {
				if err := c.Ingest(viewBatch(node, seq)); err != nil {
					t.Error(err)
					return
				}
			}
		}(wire.NodeID(i+1), c)
	}
	wg.Wait()
	if got := outer.Epoch(); got != 2*batches {
		t.Fatalf("outer epoch %d, want %d", got, 2*batches)
	}
}

// TestFederateCounterReadsAllocationFree: the counter reads the SSE hub
// makes on every wake run inline and allocate nothing; Stats allocates
// nothing while no member's distinct-count key moves.
func TestFederateCounterReadsAllocationFree(t *testing.T) {
	fed, _ := buildFederation(t, []string{"m1", "m2"}, 6, 2)
	fed.Stats() // materialise the distinct counts
	for _, read := range []struct {
		name string
		fn   func()
	}{
		{"Epoch", func() { fed.Epoch() }},
		{"MaxTS", func() { fed.MaxTS() }},
		{"Restores", func() { fed.Restores() }},
		{"Stats", func() { fed.Stats() }},
	} {
		if n := testing.AllocsPerRun(200, read.fn); n != 0 {
			t.Errorf("View.%s: %v allocations per call, want 0", read.name, n)
		}
	}
}

// TestFanoutBucketsResolveInlineReads: a 2 µs federated read reports a
// median below 5 µs, not the ~5 µs every read under the default 10 µs
// floor interpolates to.
func TestFanoutBucketsResolveInlineReads(t *testing.T) {
	fed, _ := buildFederation(t, []string{"m1", "m2"}, 2, 1)
	fed.obs["epoch"].Observe(2e-6)
	fam, ok := fed.Metrics().Family("meshmon_federate_fanout_seconds")
	if !ok {
		t.Fatal("no fanout histogram family")
	}
	for _, s := range fam.Samples {
		if len(s.LabelValues) != 1 || s.LabelValues[0] != "epoch" {
			continue
		}
		if s.Hist.Count != 1 {
			t.Fatalf("epoch histogram holds %d observations, want 1", s.Hist.Count)
		}
		if p50 := s.Hist.Quantile(0.5); p50 >= 5e-6 {
			t.Fatalf("p50 of one 2 µs read = %.2f µs, want < 5 µs", p50*1e6)
		}
		return
	}
	t.Fatal("no epoch sample")
}
