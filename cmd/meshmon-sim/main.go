// Command meshmon-sim runs one monitored LoRa mesh deployment and
// prints the administrator's view: node table, delivery statistics,
// inferred topology accuracy and any alerts. Optionally it records every
// uploaded telemetry batch to a JSONL file (replayable with
// meshmon-replay) and/or serves the live dashboard afterwards.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"lorameshmon"
	"lorameshmon/internal/radio"
	"lorameshmon/internal/wire"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 10, "number of mesh nodes")
		layout   = flag.String("layout", "random", "layout: line|grid|random|star")
		area     = flag.Float64("area", 3000, "random layout: square side in metres")
		spacing  = flag.Float64("spacing", 2400, "line/grid pitch or star radius in metres")
		duration = flag.Duration("duration", 2*time.Hour, "simulated time to run")
		seed     = flag.Int64("seed", 1, "simulation seed")
		traffic  = flag.Duration("traffic", 2*time.Minute, "convergecast packet interval (0 disables)")
		reliable = flag.Bool("reliable", false, "use end-to-end acknowledged data")
		fail     = flag.Int("fail", 0, "node to power off halfway through (0 = none)")
		record   = flag.String("record", "", "write every uploaded batch to this JSONL file")
		serve    = flag.String("serve", "", "serve the dashboard on this address after the run (e.g. :8080)")
	)
	flag.Parse()

	spec := lorameshmon.DefaultSpec()
	spec.Seed = *seed
	spec.N = *nodes
	spec.AreaM = *area
	spec.SpacingM = *spacing
	switch strings.ToLower(*layout) {
	case "line":
		spec.Layout = lorameshmon.Line
	case "grid":
		spec.Layout = lorameshmon.Grid
	case "random":
		spec.Layout = lorameshmon.RandomGeometric
	case "star":
		spec.Layout = lorameshmon.Star
	default:
		log.Fatalf("unknown layout %q", *layout)
	}

	var opts lorameshmon.Options
	var recorder *batchRecorder
	if *record != "" {
		var err error
		recorder, err = newBatchRecorder(*record)
		if err != nil {
			log.Fatal(err)
		}
		defer recorder.Close()
		opts.Collector.OnIngest = recorder.record
	}
	sys, err := lorameshmon.NewWithOptions(spec, opts)
	if err != nil {
		log.Fatal(err)
	}

	sys.Start()
	if *traffic > 0 {
		if err := sys.Deployment.ConvergecastTraffic(1, *traffic, 20, *reliable); err != nil {
			log.Fatal(err)
		}
	}
	if *fail > 0 {
		at := sys.Deployment.Sim.Now().Add(*duration / 2)
		if err := sys.Deployment.ScheduleFailure(radio.ID(*fail), at, 0); err != nil {
			log.Fatal(err)
		}
	}
	start := time.Now()
	sys.RunFor(*duration)
	fmt.Printf("simulated %v of a %d-node %s mesh in %v\n\n",
		*duration, *nodes, *layout, time.Since(start).Round(time.Millisecond))

	printReport(sys)

	if recorder != nil {
		fmt.Printf("\nrecorded %d batches to %s\n", recorder.count, *record)
	}
	if *serve != "" {
		fmt.Printf("\nserving dashboard on http://localhost%s (Ctrl-C to stop)\n", *serve)
		log.Fatal(http.ListenAndServe(*serve, sys.Handler()))
	}
}

func printReport(sys *lorameshmon.System) {
	fmt.Println("== nodes (collector registry) ==")
	fmt.Printf("%-6s %-9s %-9s %-8s %-8s %-8s\n",
		"node", "lastbeat", "uptime", "batches", "lost", "records")
	for _, n := range sys.Collector.Nodes() {
		fmt.Printf("%-6s %-9.0f %-9.0f %-8d %-8d %-8d\n",
			n.ID, n.LastBeatTS, n.UptimeS, n.BatchesOK, n.BatchesLost, n.Records)
	}

	totals := sys.Deployment.AppTotals()
	fmt.Printf("\n== delivery ==\napp packets offered %d, delivered %d (PDR %.1f%%)\n",
		totals.Offered, totals.Received, 100*sys.TruePDR())
	if est, ok := sys.TelemetryPDR(); ok {
		fmt.Printf("PDR as seen from telemetry: %.1f%%\n", 100*est)
	}
	fmt.Printf("monitoring completeness: %.1f%%\n", 100*sys.MonitoringCompleteness())

	acc := sys.TopologyAccuracy(2)
	fmt.Printf("\n== topology inference ==\nedges: %d true-positive, %d false-positive, %d missed (F1 %.2f)\n",
		acc.TruePositives, acc.FalsePositives, acc.FalseNegatives, acc.F1)

	st := sys.Deployment.Medium.Stats()
	fmt.Printf("\n== radio medium ==\nframes %d, delivered receptions %d, weak %d, collided %d, half-duplex %d\n",
		st.TxFrames, st.Delivered, st.BelowSensitivity, st.Collided, st.HalfDuplexMiss)

	if alerts := sys.FiredAlerts(); len(alerts) > 0 {
		fmt.Println("\n== alerts ==")
		for _, a := range alerts {
			fmt.Printf("t=%.0fs [%s] %s: %s\n", a.FiredAt, a.Severity, a.Kind, a.Message)
		}
	}
}

// batchRecorder tees ingested batches to a JSONL file, one
// wire.AppendBatchJSON line per batch (what json.Encoder writes).
type batchRecorder struct {
	f     *os.File
	line  []byte
	count int // lines written
}

func newBatchRecorder(path string) (*batchRecorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &batchRecorder{f: f}, nil
}

func (r *batchRecorder) Close() error { return r.f.Close() }

// record appends one ingested batch as a JSON line. Recording is best
// effort: a batch that cannot be encoded or written is left out and not
// counted.
func (r *batchRecorder) record(b wire.Batch) {
	line, err := wire.AppendBatchJSON(r.line[:0], &b)
	if err != nil {
		return
	}
	r.line = append(line, '\n')
	if _, err := r.f.Write(r.line); err != nil {
		return
	}
	r.count++
}
