// Command meshmon-collector runs the monitoring server standalone: the
// JSON ingest API, the web dashboard and the alert engine, backed by the
// in-memory time-series store. Monitoring clients (or meshmon-replay)
// POST wire.Batch JSON to /api/v1/ingest.
//
// With -data-dir set, the collector is crash-safe: accepted batches are
// appended to a write-ahead log before they are acknowledged, periodic
// checkpoints snapshot the full collector state, and on startup the
// newest snapshot plus the WAL tail rebuild exactly the state that was
// acknowledged before the previous process died.
//
// The dashboard serves reads through an epoch-keyed per-panel cache
// (-read-cache-entries bounds it) and
// pushes incremental updates over GET /events (Server-Sent Events;
// -sse-queue bounds each subscriber's delta queue) with a long-poll
// fallback at GET /events/poll.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"lorameshmon/internal/alert"
	"lorameshmon/internal/collector"
	"lorameshmon/internal/dashboard"
	"lorameshmon/internal/metrics"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		retainRaw   = flag.Float64("retain-raw", 0, "drop raw samples older than this many seconds behind the newest (0 = keep all)")
		retain1m    = flag.Float64("retain-1m", 0, "keep 1-minute rollups for this many seconds (0 with -retain-1h set = forever; both 0 = rollups off)")
		retain1h    = flag.Float64("retain-1h", 0, "keep 1-hour rollups for this many seconds (0 with -retain-1m set = forever; both 0 = rollups off)")
		recent      = flag.Int("recent", 1000, "packet records kept for the live-traffic view")
		shards      = flag.Int("shards", 0, "node-partitioned ingest shards (0 = one per GOMAXPROCS)")
		hbTimeout   = flag.Float64("node-down-after", 90, "node-down alert after this many record-seconds of heartbeat silence")
		checkEvery  = flag.Duration("check-every", 10*time.Second, "alert evaluation cadence (wall clock)")
		title       = flag.String("title", "LoRa Mesh Monitor", "dashboard title")
		dataDir     = flag.String("data-dir", "", "durability directory (WAL + snapshots); empty disables crash safety")
		fsync       = flag.String("fsync", "batch", "WAL fsync policy: batch (acked = durable), interval, or off")
		fsyncEvery  = flag.Duration("fsync-every", 100*time.Millisecond, "flush cadence under -fsync interval")
		segBytes    = flag.Int64("wal-segment-bytes", 8<<20, "rotate WAL segments at this size")
		snapEvery   = flag.Duration("snapshot-every", time.Minute, "checkpoint cadence with -data-dir")
		enablePprof = flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
		cacheSize   = flag.Int("read-cache-entries", 512, "panel response cache capacity")
		sseQueue    = flag.Int("sse-queue", 16, "per-subscriber SSE event queue; overflow coalesces into a resync")
	)
	flag.Parse()

	// One registry backs every subsystem's self-observability metrics;
	// /metrics exposes them all in one scrape.
	reg := metrics.NewRegistry()
	db := tsdb.New()
	db.Instrument(reg)

	var wlog *wal.Log
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatal(err)
		}
		wlog, err = wal.Open(*dataDir, wal.Options{
			Sync:         policy,
			SyncEvery:    *fsyncEvery,
			SegmentBytes: *segBytes,
			Metrics:      reg,
		})
		if err != nil {
			log.Fatalf("open WAL: %v", err)
		}
	}
	coll := collector.New(db, collector.Config{
		RecentPackets: *recent,
		Shards:        *shards,
		RetentionS:    *retainRaw,
		Retain1mS:     *retain1m,
		Retain1hS:     *retain1h,
		Metrics:       reg,
		WAL:           wlog,
	})
	log.Printf("collector running %d ingest shards", coll.ShardCount())
	if wlog != nil {
		stats, err := coll.Recover(wlog)
		if err != nil {
			log.Fatalf("recover from %s: %v", *dataDir, err)
		}
		log.Printf("recovered from %s in %v: %d batches replayed (%d bytes), %d torn bytes dropped; store holds %d points",
			*dataDir, stats.Duration.Round(time.Millisecond), stats.Batches, stats.Bytes, stats.Truncated, db.PointCount())
	}
	engine := alert.NewEngine(coll, alert.Config{HeartbeatTimeoutS: *hbTimeout})
	engine.Instrument(reg)
	dash := dashboard.New(coll, engine, dashboard.Config{
		Title:        *title,
		Metrics:      reg, // meshmon_read_* on /metrics and the health panel
		CacheEntries: *cacheSize,
		SSEQueue:     *sseQueue,
	})

	// Evaluate alert rules periodically against record time: MaxTS is the
	// newest timestamp any client reported, which keeps replayed and live
	// data on one clock.
	go func() {
		for range time.Tick(*checkEvery) {
			for _, a := range engine.Check(coll.MaxTS()) {
				log.Printf("ALERT [%s] %s: %s", a.Severity, a.Kind, a.Message)
			}
		}
	}()

	if wlog != nil {
		// Periodic checkpoints bound recovery time: snapshot the collector
		// and drop the WAL segments the snapshot covers.
		go func() {
			for range time.Tick(*snapEvery) {
				if err := coll.Checkpoint(wlog); err != nil {
					log.Printf("checkpoint failed: %v", err)
				}
			}
		}()
	}

	mux := http.NewServeMux()
	mux.Handle("/api/", coll.APIHandler())
	// /metrics serves the /api/v1/metrics payload at the path Prometheus
	// scrapers expect.
	mux.HandleFunc("GET /metrics", coll.ServeMetrics)
	if *enablePprof {
		// Sample lock contention too, so residual contention in the
		// sharded ingest path shows up under /debug/pprof/mutex and
		// /debug/pprof/block.
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(int(time.Microsecond)) // 1 sample/µs blocked
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("pprof enabled at /debug/pprof/ (with mutex + block profiling)")
	}
	mux.Handle("/", dash.Handler())

	srv := &http.Server{Addr: *addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	log.Printf("meshmon-collector listening on %s (dashboard at /, ingest at /api/v1/ingest, metrics at /metrics)", *addr)

	// SIGINT/SIGTERM drain in-flight requests, cut a final checkpoint and
	// seal the WAL, so a clean restart replays nothing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Stop the SSE hub first: subscribers drain their queued deltas and
	// hang up, which lets Shutdown's in-flight drain finish.
	dash.Close()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if wlog != nil {
		if err := coll.Checkpoint(wlog); err != nil {
			log.Printf("final checkpoint failed: %v", err)
		}
		if err := wlog.Seal(); err != nil {
			log.Printf("seal WAL: %v", err)
		}
	}
	log.Printf("meshmon-collector stopped")
}
