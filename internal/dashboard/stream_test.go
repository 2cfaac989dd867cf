package dashboard

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/metrics"
	"lorameshmon/internal/readcache"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// sseClient reads Server-Sent Events frames off a live /events stream.
type sseClient struct {
	resp   *http.Response
	rd     *bufio.Reader
	cancel context.CancelFunc
}

type sseEvent struct {
	Name string
	Data delta
}

func dialSSE(t *testing.T, url string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/events", nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		cancel()
		t.Fatalf("content type = %q", ct)
	}
	c := &sseClient{resp: resp, rd: bufio.NewReader(resp.Body), cancel: cancel}
	t.Cleanup(c.close)
	return c
}

func (c *sseClient) close() {
	c.cancel()
	c.resp.Body.Close()
}

// sseReadTimeout bounds how long next waits for a frame, so a missing
// delta fails the test instead of hanging it.
const sseReadTimeout = 10 * time.Second

// next reads one complete SSE frame, blocking until the server sends
// one, the stream ends, or sseReadTimeout passes — which cancels the
// stream for good.
func (c *sseClient) next() (sseEvent, error) {
	timer := time.AfterFunc(sseReadTimeout, c.cancel)
	defer timer.Stop()
	var ev sseEvent
	for {
		line, err := c.rd.ReadString('\n')
		if err != nil {
			if !timer.Stop() {
				return ev, fmt.Errorf("no SSE frame within %v", sseReadTimeout)
			}
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.Data); err != nil {
				return ev, fmt.Errorf("bad data line %q: %w", line, err)
			}
		case line == "":
			if ev.Name != "" {
				return ev, nil
			}
		}
	}
}

// TestSSEProtocol drives the full subscribe → ingest → delta cycle
// over a real HTTP stream: the greeting carries the current epoch, and
// each ingest produces exactly one delta naming the changed panels
// with a monotonically advancing epoch (proved by requiring epoch ==
// previous+1 — a duplicate or dropped event cannot satisfy that).
func TestSSEProtocol(t *testing.T) {
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	dash := New(c, nil, Config{StreamTick: 10 * time.Millisecond})
	srv := httptest.NewServer(dash.Handler())
	// LIFO: the hub must close before the server — handlers exit on
	// hub.done, and srv.Close waits for them (the production shutdown
	// order in cmd/meshmon-collector).
	defer srv.Close()
	defer dash.Close()

	cl := dialSSE(t, srv.URL)
	greet, err := cl.next()
	if err != nil {
		t.Fatal(err)
	}
	if greet.Name != "epoch" {
		t.Fatalf("first event = %q, want epoch", greet.Name)
	}
	if greet.Data.Epoch != 0 {
		t.Fatalf("greeting epoch = %d, want 0", greet.Data.Epoch)
	}

	last := greet.Data.Epoch
	for seq := uint64(1); seq <= 3; seq++ {
		if err := c.Ingest(hammerBatch(1, seq)); err != nil {
			t.Fatal(err)
		}
		ev, err := cl.next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Name != "delta" {
			t.Fatalf("event %d = %q, want delta", seq, ev.Name)
		}
		if ev.Data.Epoch != last+1 {
			t.Fatalf("delta epoch = %d, want %d (exactly one delta per ingest)", ev.Data.Epoch, last+1)
		}
		last = ev.Data.Epoch
		for _, panel := range []string{"overview", "traffic"} {
			if !slices.Contains(ev.Data.Panels, panel) {
				t.Fatalf("delta %d panels = %v, missing %q", seq, ev.Data.Panels, panel)
			}
		}
		if ev.Data.MaxTS != float64(seq) {
			t.Fatalf("delta max_ts = %g, want %g", ev.Data.MaxTS, float64(seq))
		}
	}
}

// TestSSESlowClientDropAndResync exercises the hub's overflow
// semantics directly: with a queue of one, a subscriber that stops
// reading loses intermediate deltas (counted, not blocked on) and is
// handed a resync delta carrying the FINAL epoch once it drains — the
// no-stale-forever guarantee.
func TestSSESlowClientDropAndResync(t *testing.T) {
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	reg := metrics.NewRegistry()
	inst := readcache.NewInstruments(reg)
	hub := newStreamHub(c, nil, c.Epoch, inst, 1, 5*time.Millisecond)
	defer hub.Close()

	sub, ok := hub.subscribe()
	if !ok {
		t.Fatal("subscribe refused")
	}
	defer hub.unsubscribe(sub)

	// Fill the queue and keep ingesting: the hub must not block.
	const batches = 6
	for seq := uint64(1); seq <= batches; seq++ {
		if err := c.Ingest(hammerBatch(1, seq)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(15 * time.Millisecond) // let the hub wake per batch
	}

	first := <-sub.ch
	if first.Resync {
		t.Fatal("first queued delta should be a real delta, not a resync")
	}
	// Having drained, the subscriber must receive a resync with the
	// final epoch within a few ticks.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case d := <-sub.ch:
			if d.Epoch == batches {
				if !d.Resync {
					t.Fatalf("final-epoch delta not marked resync: %+v", d)
				}
				if dropped := counterValue(t, reg, "meshmon_read_sse_dropped_total"); dropped == 0 {
					t.Fatal("no drops counted despite queue overflow")
				}
				return
			}
		case <-deadline:
			t.Fatalf("no resync with final epoch %d", batches)
		}
	}
}

func counterValue(t *testing.T, reg *metrics.Registry, family string) float64 {
	t.Helper()
	fam, ok := reg.Family(family)
	if !ok {
		t.Fatalf("family %s not registered", family)
	}
	total := 0.0
	for _, smp := range fam.Samples {
		total += smp.Value
	}
	return total
}

// TestSSEShutdownDrain: Close() must end live streams gracefully —
// subscribers get their queued deltas, then EOF, and Close returns.
func TestSSEShutdownDrain(t *testing.T) {
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	dash := New(c, nil, Config{StreamTick: 10 * time.Millisecond})
	srv := httptest.NewServer(dash.Handler())
	defer srv.Close()

	cl := dialSSE(t, srv.URL)
	if _, err := cl.next(); err != nil { // greeting
		t.Fatal(err)
	}
	if err := c.Ingest(hammerBatch(1, 1)); err != nil {
		t.Fatal(err)
	}
	if ev, err := cl.next(); err != nil || ev.Name != "delta" {
		t.Fatalf("delta before shutdown: %v %v", ev, err)
	}

	done := make(chan struct{})
	go func() {
		dash.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return")
	}
	// The stream must now end rather than hang.
	errCh := make(chan error, 1)
	go func() {
		_, err := cl.next()
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("stream produced an event after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stream still open after Close")
	}

	// New subscriptions are refused cleanly.
	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-Close subscribe = %d, want 503", resp.StatusCode)
	}
}

func TestLongPoll(t *testing.T) {
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	dash := New(c, nil, Config{})
	srv := httptest.NewServer(dash.Handler())
	defer srv.Close()
	defer dash.Close() // before srv.Close: poll handlers exit on hub.done

	if err := c.Ingest(hammerBatch(1, 1)); err != nil {
		t.Fatal(err)
	}

	// Epoch already past `since`: immediate 200 with the delta.
	code, body := fetch(t, srv.URL+"/events/poll?since=0&timeout=5")
	if code != http.StatusOK {
		t.Fatalf("immediate poll = %d", code)
	}
	var d delta
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatal(err)
	}
	if d.Epoch != 1 {
		t.Fatalf("poll epoch = %d, want 1", d.Epoch)
	}

	// Caught up: the poll blocks until an ingest advances the epoch.
	type pollResult struct {
		code  int
		delta delta
	}
	res := make(chan pollResult, 1)
	go func() {
		code, body := fetch(t, srv.URL+fmt.Sprintf("/events/poll?since=%d&timeout=10", d.Epoch))
		var pd delta
		json.Unmarshal([]byte(body), &pd) //nolint:errcheck
		res <- pollResult{code, pd}
	}()
	select {
	case r := <-res:
		t.Fatalf("poll returned %d before any ingest", r.code)
	case <-time.After(100 * time.Millisecond):
	}
	if err := c.Ingest(hammerBatch(1, 2)); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-res:
		if r.code != http.StatusOK || r.delta.Epoch != 2 {
			t.Fatalf("woken poll = %d epoch %d, want 200 epoch 2", r.code, r.delta.Epoch)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("poll not woken by ingest")
	}

	// No advance within the timeout: 204.
	if code, _ := fetch(t, srv.URL+"/events/poll?since=99&timeout=0.05"); code != http.StatusNoContent {
		t.Fatalf("timed-out poll = %d, want 204", code)
	}

	for _, bad := range []string{"?since=minus-one", "?timeout=forever", "?timeout=-3"} {
		if code, _ := fetch(t, srv.URL+"/events/poll"+bad); code != http.StatusBadRequest {
			t.Errorf("poll%s = %d, want 400", bad, code)
		}
	}
}

// TestSSEDeltaForIngestBeforeHubStart is the baseline-race regression:
// the watch loop is held back after the first subscriber's greeting,
// and a batch is ingested in that gap. The subscriber's baseline is the
// greeted state, so the batch must still arrive as a delta instead of
// being absorbed into a baseline taken later by the hub.
func TestSSEDeltaForIngestBeforeHubStart(t *testing.T) {
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	dash := New(c, nil, Config{StreamTick: 10 * time.Millisecond})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	dash.hub.startHook = func() { <-release }
	srv := httptest.NewServer(dash.Handler())
	defer srv.Close()
	defer dash.Close()
	defer unblock() // before Close, which waits for the held loop

	cl := dialSSE(t, srv.URL)
	greet, err := cl.next()
	if err != nil {
		t.Fatal(err)
	}
	if greet.Name != "epoch" || greet.Data.Epoch != 0 {
		t.Fatalf("greeting = %+v, want epoch 0", greet)
	}
	if err := c.Ingest(hammerBatch(1, 1)); err != nil {
		t.Fatal(err)
	}
	unblock()
	ev, err := cl.next()
	if err != nil {
		t.Fatalf("ingest between greeting and hub start never streamed: %v", err)
	}
	if ev.Name != "delta" || ev.Data.Epoch != 1 {
		t.Fatalf("event = %+v, want delta at epoch 1", ev)
	}
	want := []string{"overview", "node", "chart", "traffic", "topology"}
	if !slices.Equal(ev.Data.Panels, want) {
		t.Fatalf("panels = %v, want %v", ev.Data.Panels, want)
	}
}

// TestFingerprintDiff pins the panel names each fingerprint field maps
// to, in their fixed order.
func TestFingerprintDiff(t *testing.T) {
	base := fingerprint{epoch: 5, records: 40, nodes: 3, links: 2, gen: 1}
	for _, tc := range []struct {
		name string
		edit func(*fingerprint)
		want []string
	}{
		{"unchanged", func(*fingerprint) {}, nil},
		{"epoch", func(f *fingerprint) { f.epoch++ }, []string{"overview", "node", "chart"}},
		{"records", func(f *fingerprint) { f.records++ }, []string{"traffic"}},
		{"nodes", func(f *fingerprint) { f.nodes++ }, []string{"topology"}},
		{"links", func(f *fingerprint) { f.links++ }, []string{"topology"}},
		{"gen", func(f *fingerprint) { f.gen++ }, []string{"overview", "alerts"}},
		{"ingest with new link", func(f *fingerprint) { f.epoch++; f.records += 2; f.links++ },
			[]string{"overview", "node", "chart", "traffic", "topology"}},
		{"everything", func(f *fingerprint) { f.epoch++; f.records++; f.nodes++; f.links++; f.gen++ },
			[]string{"overview", "node", "chart", "traffic", "topology", "alerts"}},
	} {
		cur := base
		tc.edit(&cur)
		if got := diff(base, cur); !slices.Equal(got, tc.want) {
			t.Errorf("%s: diff = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFingerprintMatchesMaterialisedCounts checks the counter-based
// snapshot against the registry and link table it stands in for: after
// every ingest the fingerprint equals one built from len(Nodes()) and
// len(Links(0)), so every delta names the same panels it would have
// named had the hub materialised both lists.
func TestFingerprintMatchesMaterialisedCounts(t *testing.T) {
	cfg := collector.DefaultConfig()
	cfg.Shards = 3
	c := collector.New(tsdb.New(), cfg)
	hub := newStreamHub(c, nil, c.Epoch, readcache.NewInstruments(metrics.NewRegistry()), 0, 0)
	defer hub.Close()
	for step := uint64(1); step <= 40; step++ {
		// Nodes 1..8 in rotation; hammerBatch's HELLO source node%4+1
		// adds links early on and then only re-hears them.
		node := wire.NodeID(step%8 + 1)
		if err := c.Ingest(hammerBatch(node, step)); err != nil {
			t.Fatal(err)
		}
		want := fingerprint{
			epoch:   c.Epoch(),
			records: c.Stats().RecordsIngested,
			nodes:   len(c.Nodes()),
			links:   len(c.Links(0)),
		}
		if got := hub.snapshot(); got != want {
			t.Fatalf("step %d: snapshot %+v, materialised %+v", step, got, want)
		}
	}
}

// countingView counts the reads that copy and sort the whole registry
// or link table.
type countingView struct {
	collector.View
	nodes, links atomic.Int64
}

func (v *countingView) Nodes() []collector.NodeInfo {
	v.nodes.Add(1)
	return v.View.Nodes()
}

func (v *countingView) Links(from float64) []collector.LinkObs {
	v.links.Add(1)
	return v.View.Links(from)
}

// TestSSEHubDoesNotMaterialise: streaming a delta per ingest to one
// subscriber must not call Nodes or Links — the hub's cost per wake is
// independent of registry and link-table size.
func TestSSEHubDoesNotMaterialise(t *testing.T) {
	c := collector.New(tsdb.New(), collector.DefaultConfig())
	view := &countingView{View: c}
	dash := New(view, nil, Config{StreamTick: 5 * time.Millisecond})
	srv := httptest.NewServer(dash.Handler())
	defer srv.Close()
	defer dash.Close()

	cl := dialSSE(t, srv.URL)
	if _, err := cl.next(); err != nil {
		t.Fatal(err)
	}
	const ingests = 20
	for seq := uint64(1); seq <= ingests; seq++ {
		if err := c.Ingest(hammerBatch(wire.NodeID(seq%5+1), seq)); err != nil {
			t.Fatal(err)
		}
		ev, err := cl.next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Data.Epoch != seq {
			t.Fatalf("delta epoch = %d, want %d", ev.Data.Epoch, seq)
		}
	}
	if n, l := view.nodes.Load(), view.links.Load(); n != 0 || l != 0 {
		t.Fatalf("hub made %d Nodes and %d Links calls over %d ingests, want 0", n, l, ingests)
	}
}
