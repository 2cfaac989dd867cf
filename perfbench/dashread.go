package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"lorameshmon/internal/wire"
)

// dash_read's fixed inputs: the seeded history, and the chart metrics and
// windows the long tail of chart reads draws from.
const (
	readNodes    = 300
	historyS     = 7200 // seeded record-time history
	historyStepS = 1800 // one batch per node per 30 minutes of history
)

var (
	chartMetrics = []string{"mesh_packet_rssi", "mesh_packet_snr", "node_route_count", "node_queue_len", "node_duty_cycle"}
	chartSpansS  = []float64{900, 3600, historyS}
)

// readReq is one dashboard GET and what its body must show.
type readReq struct {
	path string
	kind string // overview, node, chart or other
	node string
}

// readMix draws dashboard GETs: every 20 requests are 2 overviews, one
// each of traffic, topology and alerts, 7 node pages and 8 chart queries,
// in that order; chart queries cycle through the metrics and windows, and
// the seed picks the nodes. The long tail's distinct keys (300 node pages,
// 4500 chart queries) far exceed the 512-entry read cache.
type readMix struct {
	rng    *rand.Rand
	nodes  int
	i      int
	charts int
}

func (m *readMix) next() readReq {
	x := m.i % 20
	m.i++
	switch {
	case x < 2:
		return readReq{path: "/", kind: "overview"}
	case x == 2:
		return readReq{path: "/traffic", kind: "other"}
	case x == 3:
		return readReq{path: "/topology", kind: "other"}
	case x == 4:
		return readReq{path: "/alerts", kind: "other"}
	}
	id := wire.NodeID(m.rng.Intn(m.nodes) + 1).String()
	if x < 12 {
		return readReq{path: "/node/" + id, kind: "node", node: id}
	}
	m.charts++
	metric := chartMetrics[m.charts%len(chartMetrics)]
	span := chartSpansS[(m.charts/len(chartMetrics))%len(chartSpansS)]
	return readReq{
		path: fmt.Sprintf("/chart/%s.json?node=%s&from=%g&to=%g", metric, id, historyS-span, float64(historyS)),
		kind: "chart", node: id,
	}
}

// fetch GETs one panel and checks its body.
func fetch(client *http.Client, base string, r readReq, nodes int) error {
	resp, err := client.Get(base + r.path)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("GET %s: %w", r.path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("GET %s: %s", r.path, resp.Status)
	}
	switch r.kind {
	case "overview":
		if n := bytes.Count(body, []byte(`href="/node/`)); n != nodes {
			return fmt.Errorf("GET /: %d node rows, want %d", n, nodes)
		}
	case "node":
		if !bytes.Contains(body, []byte(r.node)) {
			return fmt.Errorf("GET %s: node id missing from page", r.path)
		}
	case "chart":
		if !bytes.Contains(body, []byte(`"series":[{`)) {
			return fmt.Errorf("GET %s: no series", r.path)
		}
	default:
		if len(body) == 0 {
			return fmt.Errorf("GET %s: empty body", r.path)
		}
	}
	return nil
}

// runDashRead: a collector seeded with two hours of history from 300
// nodes (1m/1h rollups on, no WAL) serves dashboard reads from one
// connection at a fixed rate, while an in-process ingest trickle keeps
// invalidating the read cache and one SSE watcher follows the deltas.
func runDashRead(e *env) (*result, error) {
	res := newResult()
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   10 * time.Second,
	}
	defer client.CloseIdleConnections()
	var (
		setup  []float64
		srv    *server
		w      *watcher
		g      *batchGen
		mix    *readMix
		clock0 time.Time
		seeded uint64
	)
	// phase runs reads and the trickle side by side for d.
	phase := func(d time.Duration) (reads, trickle []sample, vis []visible) {
		e0 := srv.coll.Epoch()
		done := make(chan struct{})
		go func() {
			defer close(done)
			trickle = openLoop(trickleRate, d, func(_ int, due time.Time) error {
				err := srv.coll.Ingest(g.next(historyS + due.Sub(clock0).Seconds()))
				if err == nil {
					vis = append(vis, visible{due: due, epoch: e0 + uint64(len(vis)) + 1})
				}
				return err
			})
		}()
		reads = openLoop(readRate, d, func(int, time.Time) error {
			return fetch(client, srv.http.URL, mix.next(), readNodes)
		})
		<-done
		return reads, trickle, vis
	}
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		s, err := newServer(e, serverConfig{tiered: true})
		if err != nil {
			return nil, err
		}
		srv = s
		// History arrives as the agents buffer it: one batch per node per
		// 30 minutes, with a stats summary and heartbeat per minute.
		g = newBatchGen(e.seed, readNodes, 120)
		g.spreadS, g.summaries = historyStepS, 30
		for step := 0; step < historyS/historyStepS; step++ {
			for n := 1; n <= readNodes; n++ {
				ts := float64(step*historyStepS) + float64(n*historyStepS)/readNodes
				if err := s.coll.Ingest(g.from(wire.NodeID(n), ts)); err != nil {
					s.close()
					return nil, fmt.Errorf("seed: %w", err)
				}
			}
		}
		seeded = s.coll.Stats().BatchesIngested
		g.packets, g.spreadS, g.summaries = 29, 10, 1 // live batches from here on
		w, err = startWatcher(s.http.URL+"/events", s.engine.Generation, 5*time.Second)
		if err != nil {
			s.close()
			return nil, err
		}
		mix = &readMix{rng: rand.New(rand.NewSource(e.seed)), nodes: readNodes}
		clock0 = time.Now()
		reads, trickle, _ := phase(warmup)
		_, _, rf := summarize(reads)
		_, _, tf := summarize(trickle)
		if rf+tf > 0 {
			w.stop()
			s.close()
			return nil, fmt.Errorf("warm-up: %d reads, %d trickle batches failed", rf, tf)
		}
		if !w.waitEpoch(s.coll.Epoch(), 5*time.Second) {
			w.stop()
			s.close()
			return nil, fmt.Errorf("warm-up: no SSE delta for epoch %d", s.coll.Epoch())
		}
		setup = append(setup, time.Since(t0).Seconds())
		if round < setupRounds-1 {
			w.stop()
			s.close()
			srv = nil
			runtime.GC() // peak memory should count one system, not two
		}
	}
	res.e2e["setup_s"] = metric{Value: median(setup), Unit: "s", N: len(setup)}

	before0 := srv.coll.Stats().BatchesIngested
	if e.rec != nil {
		e.rec.reset()
	}
	before := takeSnap()
	prof := e.startProfile()
	reads, trickle, vis := phase(e.window)
	prof.stop(res)
	after := takeSnap()
	w.waitEpoch(srv.coll.Epoch(), 2*time.Second)
	w.stop()

	lats, lags, readFailed := summarize(reads)
	_, _, trickleFailed := summarize(trickle)
	fresh, missing := freshness(vis, w.snapshot())
	res.attempted = len(reads) + len(trickle)
	res.failed = readFailed + trickleFailed + missing
	res.e2e["op_p50_ms"] = metric{Value: median(lats), Unit: "ms", N: len(lats)}
	res.e2e["fresh_p50_ms"] = metric{Value: median(fresh), Unit: "ms", N: len(fresh)}
	phaseCost(before, after, len(lats), res)
	memoryMetrics(res)

	for _, s := range reads {
		if s.err != nil {
			res.check(false, "read failed: %v (%d reads failed)", s.err, readFailed)
			break
		}
	}
	res.check(trickleFailed == 0, "%d trickle batches failed", trickleFailed)
	res.check(missing == 0, "%d trickle batches never reached an SSE delta", missing)
	st := srv.coll.Stats()
	res.check(st.NodesKnown == readNodes, "nodes known %d, seeded %d", st.NodesKnown, readNodes)
	res.check(st.BatchesIngested == before0+uint64(len(vis)), "BatchesIngested %d != %d before + %d trickle",
		st.BatchesIngested, before0, len(vis))
	res.check(srv.coll.Epoch() == st.BatchesIngested, "epoch %d != accepted batches %d", srv.coll.Epoch(), st.BatchesIngested)

	registryMetrics(res, srv.reg)
	res.layer["dashboard.get_p99_ms"] = metric{Value: quantileOr0(lats, 0.99), N: len(lats)}
	res.layer["dashboard.sse_delta_p99_ms"] = metric{Value: quantileOr0(fresh, 0.99), N: len(fresh)}
	res.layer["loadgen.lag_p99_ms"] = metric{Value: quantileOr0(lags, 0.99), N: len(lags)}
	if e.rec != nil {
		spanMetrics(res, e.rec.finished(), len(lats))
	}
	res.named = append(res.named,
		namedMetric{"setup_s", res.e2e["setup_s"]},
		namedMetric{"read_p50_ms", res.e2e["op_p50_ms"]},
		namedMetric{"fresh_p50_ms", res.e2e["fresh_p50_ms"]},
		namedMetric{"cpu_us_per_op", res.e2e["cpu_us_per_op"]},
		namedMetric{"allocs_per_op", res.e2e["allocs_per_op"]},
		namedMetric{"rss_peak_mb", res.e2e["rss_peak_mb"]},
		namedMetric{"heap_live_mb", res.e2e["heap_live_mb"]},
		okShare(res),
	)
	res.info = append(res.info, fmt.Sprintf(
		"load open-loop reads=%g/s (achieved %.0f/s) trickle=%g batches/s window=%v history=%d nodes x %ds seeded=%d batches connections=1 read + 1 SSE transport=loopback",
		readRate, achieved(reads), trickleRate, e.window, readNodes, historyS, seeded))
	if err := srv.close(); err != nil {
		return nil, err
	}
	return res, nil
}
