package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"lorameshmon/internal/alert"
	"lorameshmon/internal/collector"
	"lorameshmon/internal/dashboard"
	"lorameshmon/internal/metrics"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/uplink"
	"lorameshmon/internal/wal"
)

// server is one collector assembled the way cmd/meshmon-collector does it
// with that command's flag defaults: one shared registry, an instrumented
// store, an optional WAL (fsync per batch), the alert engine checked every
// 10 s, the cached dashboard with SSE, and one HTTP mux on loopback.
type server struct {
	reg    *metrics.Registry
	db     *tsdb.DB
	coll   *collector.Collector
	wal    *wal.Log
	engine *alert.Engine
	dash   *dashboard.Server
	http   *httptest.Server
	bg     background
}

type serverConfig struct {
	walDir string // empty: no WAL
	tiered bool   // 1-minute and 1-hour rollup tiers on
}

func walOptions(reg *metrics.Registry) wal.Options {
	return wal.Options{Sync: wal.SyncEveryBatch, SyncEvery: 100 * time.Millisecond, SegmentBytes: 8 << 20, Metrics: reg}
}

func newServer(e *env, cfg serverConfig) (*server, error) {
	s := &server{reg: metrics.NewRegistry(), db: tsdb.New()}
	s.db.Instrument(s.reg)
	if cfg.walDir != "" {
		w, err := wal.Open(cfg.walDir, walOptions(s.reg))
		if err != nil {
			return nil, fmt.Errorf("open WAL: %w", err)
		}
		s.wal = w
	}
	ccfg := collector.Config{RecentPackets: 1000, Metrics: s.reg, WAL: s.wal}
	if cfg.tiered {
		ccfg.Retain1mS = 86400 // 1-minute tier for a day, 1-hour tier forever
	}
	s.coll = collector.New(s.db, ccfg)
	if s.wal != nil {
		if _, err := s.coll.Recover(s.wal); err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
	}
	view := e.view(s.coll)
	s.engine = alert.NewEngine(view, alert.Config{HeartbeatTimeoutS: 90})
	s.engine.Instrument(s.reg)
	s.dash = dashboard.New(view, s.engine, dashboard.Config{
		Title: "LoRa Mesh Monitor", Metrics: s.reg, CacheEntries: 512, SSEQueue: 16,
	})
	s.bg.every(10*time.Second, func() { s.engine.Check(s.coll.MaxTS()) })
	if s.wal != nil {
		s.bg.every(time.Minute, func() { _ = s.coll.Checkpoint(s.wal) }) // as the command: logged, not fatal
	}
	mux := http.NewServeMux()
	mux.Handle("/api/", e.handler(apiSpan, s.coll.APIHandler()))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.reg.WriteText(w) //nolint:errcheck // client gone
		w.Write([]byte(s.coll.PrometheusExposition()))
	})
	mux.Handle("/", e.handler(dashSpan, s.dash.Handler()))
	s.http = httptest.NewServer(mux)
	return s, nil
}

// close stops the background loops, the SSE hub and the HTTP server, and
// seals the WAL without a final checkpoint, so the log holds every batch.
func (s *server) close() error {
	s.bg.stop()
	s.dash.Close()
	s.http.Close()
	if s.wal != nil {
		return s.wal.Seal()
	}
	return nil
}

// background runs periodic tasks until stop, which waits for them.
type background struct {
	once sync.Once
	done chan struct{}
	wg   sync.WaitGroup
}

func (b *background) every(d time.Duration, fn func()) {
	b.once.Do(func() { b.done = make(chan struct{}) })
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-b.done:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

func (b *background) stop() {
	if b.done != nil {
		close(b.done)
	}
	b.wg.Wait()
}

// ingestSystem is a system under ingest load, as the shared ingest driver
// sees it.
type ingestSystem struct {
	ingestURL string
	eventsURL string
	gen       func() uint64 // alert generation
	epoch     func() uint64 // ingest epoch of the dashboard's view
	stats     func() collector.Stats
}

// ingestParams fixes one ingest workload's load.
type ingestParams struct {
	rate    float64 // batches/s, one connection
	nodes   int
	packets int // packet records per batch; every batch adds 3 more
}

const warmup = time.Second

// runIngest drives an ingest workload: setupRounds builds, each with an
// SSE watcher and a one-second warm-up at the workload's rate, then the
// timed window against the last build. build returns the system and its
// teardown; finish runs checks and extra metrics on the last build while
// it is still up, then tears it down.
func runIngest(e *env, p ingestParams, res *result,
	build func(round int) (ingestSystem, func() error, error),
	finish func(sys ingestSystem, acked uint64, teardown func() error) error,
) error {
	var (
		setup    []float64
		sys      ingestSystem
		teardown func() error
		w        *watcher
		g        *batchGen
		clock0   time.Time
		sender   func(due time.Time) error
	)
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		var err error
		sys, teardown, err = build(round)
		if err != nil {
			return err
		}
		w, err = startWatcher(sys.eventsURL, sys.gen, 5*time.Second)
		if err != nil {
			teardown()
			return err
		}
		up := uplink.NewHTTP(sys.ingestURL)
		g = newBatchGen(e.seed, p.nodes, p.packets)
		clock0 = t0
		sender = func(due time.Time) error {
			// Record time advances one second per second.
			return up.SendSync(g.next(1000 + due.Sub(clock0).Seconds()))
		}
		warm := openLoop(p.rate, warmup, func(_ int, due time.Time) error { return sender(due) })
		if _, _, failed := summarize(warm); failed > 0 {
			w.stop()
			teardown()
			return fmt.Errorf("warm-up: %d of %d batches failed", failed, len(warm))
		}
		if !w.waitEpoch(sys.epoch(), 5*time.Second) {
			w.stop()
			teardown()
			return fmt.Errorf("warm-up: no SSE delta for epoch %d", sys.epoch())
		}
		setup = append(setup, time.Since(t0).Seconds())
		if round < setupRounds-1 {
			w.stop()
			if err := teardown(); err != nil {
				return err
			}
			runtime.GC() // peak memory should count one system, not two
		}
	}
	res.e2e["setup_s"] = metric{Value: median(setup), Unit: "s", N: len(setup)}

	warmAcked := sys.stats().BatchesIngested
	e0 := sys.epoch()
	var vis []visible
	if e.rec != nil {
		e.rec.reset()
	}
	before := takeSnap()
	prof := e.startProfile()
	samples := openLoop(p.rate, e.window, func(_ int, due time.Time) error {
		err := sender(due)
		if err == nil {
			vis = append(vis, visible{due: due, epoch: e0 + uint64(len(vis)) + 1})
		}
		return err
	})
	prof.stop(res)
	after := takeSnap()
	w.waitEpoch(e0+uint64(len(vis)), 2*time.Second)
	w.stop()

	lats, lags, failed := summarize(samples)
	fresh, missing := freshness(vis, w.snapshot())
	res.attempted = len(samples)
	res.failed = failed + missing
	res.e2e["op_p50_ms"] = metric{Value: median(lats), Unit: "ms", N: len(lats)}
	res.e2e["fresh_p50_ms"] = metric{Value: median(fresh), Unit: "ms", N: len(fresh)}
	phaseCost(before, after, len(lats), res)
	memoryMetrics(res)

	acked := uint64(len(vis))
	st := sys.stats()
	res.check(st.BatchesIngested == warmAcked+acked, "acked batches %d != BatchesIngested %d", warmAcked+acked, st.BatchesIngested)
	res.check(sys.epoch() == warmAcked+acked, "epoch %d != accepted batches %d", sys.epoch(), warmAcked+acked)
	res.check(missing == 0, "%d accepted batches never reached an SSE delta", missing)

	res.layer["uplink.send_p50_ms"] = metric{Value: quantileOr0(lats, 0.5), N: len(lats)}
	res.layer["uplink.send_p99_ms"] = metric{Value: quantileOr0(lats, 0.99), N: len(lats)}
	res.layer["uplink.send_n"] = metric{Value: float64(len(lats)), N: len(lats)}
	res.layer["loadgen.lag_p99_ms"] = metric{Value: quantileOr0(lags, 0.99), N: len(lags)}
	res.layer["dashboard.sse_delta_p99_ms"] = metric{Value: quantileOr0(fresh, 0.99), N: len(fresh)}
	if e.rec != nil {
		spanMetrics(res, e.rec.finished(), len(lats))
	}

	res.named = append(res.named,
		namedMetric{"setup_s", res.e2e["setup_s"]},
		namedMetric{"ack_p50_ms", res.e2e["op_p50_ms"]},
		namedMetric{"fresh_p50_ms", res.e2e["fresh_p50_ms"]},
		namedMetric{"cpu_us_per_op", res.e2e["cpu_us_per_op"]},
		namedMetric{"allocs_per_op", res.e2e["allocs_per_op"]},
		namedMetric{"rss_peak_mb", res.e2e["rss_peak_mb"]},
		namedMetric{"heap_live_mb", res.e2e["heap_live_mb"]},
		okShare(res),
	)
	res.info = append(res.info, fmt.Sprintf("load open-loop rate=%g batches/s (achieved %.0f/s) window=%v nodes=%d records/batch=%d connections=1 ingest + 1 SSE transport=loopback",
		p.rate, achieved(samples), e.window, p.nodes, p.packets+3))
	return finish(sys, warmAcked+acked, teardown)
}

func okShare(res *result) namedMetric {
	return namedMetric{"ok_share", metric{Value: float64(res.attempted-res.failed) / float64(max(res.attempted, 1)), Unit: "share", N: res.attempted}}
}

// runIngestDurable: one collector with a WAL (fsync per batch) under
// JSON ingest over HTTP, then a cold recovery of the run's WAL.
func runIngestDurable(e *env) (*result, error) {
	res := newResult()
	p := ingestParams{rate: ingestDurableRate, nodes: 200, packets: 29}
	var srv *server
	var dir string
	build := func(round int) (ingestSystem, func() error, error) {
		dir = filepath.Join(e.workDir, fmt.Sprintf("wal-%d", round))
		s, err := newServer(e, serverConfig{walDir: dir})
		if err != nil {
			return ingestSystem{}, nil, err
		}
		srv = s
		return ingestSystem{
			ingestURL: s.http.URL + "/api/v1/ingest",
			eventsURL: s.http.URL + "/events",
			gen:       s.engine.Generation,
			epoch:     s.coll.Epoch,
			stats:     s.coll.Stats,
		}, s.close, nil
	}
	finish := func(_ ingestSystem, acked uint64, teardown func() error) error {
		registryMetrics(res, srv.reg)
		pre := srv.coll.Stats()
		preNodes := srv.coll.Nodes()
		prePoints := srv.db.PointCount()
		walBytes := sumFamily([]*metrics.Registry{srv.reg}, "meshmon_wal_bytes_total")
		if err := teardown(); err != nil {
			return fmt.Errorf("seal WAL: %w", err)
		}
		disk := dirBytes(dir)
		records := float64(max(pre.RecordsIngested, 1))
		res.layer["wal.bytes_per_record"] = metric{Value: walBytes / records, N: int(pre.RecordsIngested)}
		res.layer["wal.disk_bytes_per_record"] = metric{Value: float64(disk) / records, N: int(pre.RecordsIngested)}

		t0 := time.Now()
		wl, err := wal.Open(dir, walOptions(nil))
		if err != nil {
			return fmt.Errorf("reopen WAL: %w", err)
		}
		openS := time.Since(t0).Seconds()
		rec := collector.New(tsdb.New(), collector.Config{RecentPackets: 1000, WAL: wl})
		rs, err := rec.Recover(wl)
		recoverS := time.Since(t0).Seconds()
		if err != nil {
			wl.Seal()
			return fmt.Errorf("recover: %w", err)
		}
		res.layer["wal.open_s"] = metric{Value: openS, N: 1}
		res.layer["wal.replay_s"] = metric{Value: rs.Duration.Seconds(), N: int(rs.Batches)}
		res.layer["wal.recover_s"] = metric{Value: recoverS, N: int(rs.Batches)}
		res.named = append(res.named,
			namedMetric{"recover_s", metric{Value: recoverS, Unit: "s", N: int(rs.Batches)}},
			namedMetric{"disk_bytes_per_record", metric{Value: float64(disk) / records, Unit: "B", N: int(pre.RecordsIngested)}},
		)
		res.check(rec.Stats() == pre, "recovered stats %+v != pre-restart %+v", rec.Stats(), pre)
		res.check(rs.Batches == acked, "replayed %d batches, acked %d", rs.Batches, acked)
		res.check(rec.TSDB().PointCount() == prePoints, "recovered points %d != %d", rec.TSDB().PointCount(), prePoints)
		post := rec.Nodes()
		same := len(post) == len(preNodes)
		for i := 0; same && i < len(post); i++ {
			same = post[i].ID == preNodes[i].ID && post[i].BatchesOK == preNodes[i].BatchesOK && post[i].Records == preNodes[i].Records
		}
		res.check(same, "recovered node set differs from pre-restart node set")
		res.info = append(res.info, fmt.Sprintf("wal fsync=%v segment=8MiB fs=%s", wal.SyncEveryBatch, fsType(dir)))
		return wl.Seal()
	}
	if err := runIngest(e, p, res, build, finish); err != nil {
		return nil, err
	}
	return res, nil
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, en := range entries {
		if info, err := en.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
