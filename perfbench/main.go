// Command perfbench is the repository's end-to-end benchmark. It builds
// the monitoring system from its packages' public constructors, drives one
// workload open loop for a fixed wall-clock window, checks that the
// system's outputs are correct, and prints one JSON result object as the
// last line of standard output.
//
//	perfbench --workload ingest_durable --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no wrappers installed. With --trace 1 the same workload runs with timing
// wrappers around the layer interfaces (collector.View, tsdb.Querier,
// uplink.Sink and the HTTP handlers) and a CPU profile, and the result
// carries the per-layer metrics instead. Every metric is also printed on
// its own line with its unit and sample count.
//
// The exit code is 0 when every correctness check passed and 1 otherwise;
// a run that cannot build its system exits 2 without printing a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRounds is how many times each workload builds, seeds and warms up
// its system; setup_s is the median, and the last build is measured.
const setupRounds = 3

// Fixed offered loads, each about half of what one connection sustained
// at the parent commit on the recording machine (2 vCPU, GOMAXPROCS=2).
const (
	ingestDurableRate = 300.0 // batches/s, JSON, WAL fsync per batch
	federatedRate     = 400.0 // batches/s through the router
	readRate          = 100.0 // dashboard GETs/s
	trickleRate       = 20.0  // in-process ingest batches/s under dash_read
)

// env is what every workload receives: its generated-input seed, the
// length of the timed window and, in a traced run, the span recorder.
type env struct {
	seed    int64
	window  time.Duration
	rec     *recorder // nil unless --trace 1
	workDir string    // scratch directory inside the checkout
}

func (e *env) traced() bool { return e.rec != nil }

// metric is one reported value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// result is what a workload reports back.
type result struct {
	attempted, failed int
	problems          []string          // failed correctness checks
	e2e               map[string]metric // gated end-to-end metrics
	named             []namedMetric     // the same numbers under the issue's per-workload names
	layer             map[string]metric // per-layer metrics (traced run)
	info              []string          // environment and fixed-parameter lines
}

type namedMetric struct {
	name string
	metric
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// e2eNames are the gated end-to-end metrics every workload reports. Each
// has a workload-specific meaning, printed under the workload's own name
// (ack_p50_ms, read_p50_ms, sim_ms_per_sim_s, ...) on the lines above the
// JSON result.
var e2eNames = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"fresh_p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"rss_peak_mb", "MB"},
	{"heap_live_mb", "MB"},
}

var workloads = map[string]func(*env) (*result, error){
	"ingest_durable":   runIngestDurable,
	"dash_read":        runDashRead,
	"federated_ingest": runFederatedIngest,
	"mesh_sim":         runMeshSim,
}

func main() {
	workload := flag.String("workload", "", "workload name: ingest_durable, dash_read, federated_ingest or mesh_sim")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	e := &env{seed: *seed, window: time.Duration(*seconds * float64(time.Second))}
	if *trace == 1 {
		e.rec = newRecorder()
	}
	dir, err := os.MkdirTemp(buildDir(), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	e.workDir = dir
	res, err := run(e)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(2)
	}
	os.Exit(report(*workload, e, res))
}

// buildDir is the checkout-local directory for build outputs and scratch
// state (.bench_build, created by run.sh).
func buildDir() string {
	if d := os.Getenv("PERFBENCH_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// report prints the human-readable lines and the JSON result, and
// returns the exit code.
func report(workload string, e *env, res *result) int {
	fmt.Printf("# workload %s seed %d window %v traced %v\n", workload, e.seed, e.window, e.traced())
	fmt.Printf("# env nproc=%d gomaxprocs=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, l := range res.info {
		fmt.Printf("# %s\n", l)
	}
	for _, m := range res.named {
		fmt.Printf("%-34s %14.6g %-6s n=%d\n", m.name, m.Value, m.Unit, m.N)
	}
	for _, p := range res.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}

	metrics := map[string]metric{}
	if !e.traced() {
		for _, d := range e2eNames {
			m, ok := res.e2e[d.name]
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				res.problems = append(res.problems, fmt.Sprintf("end-to-end metric %s missing or malformed", d.name))
				fmt.Printf("CHECK FAILED: end-to-end metric %s missing or malformed\n", d.name)
				m = metric{Value: 0, Unit: d.unit}
			}
			metrics[d.name] = m
		}
		saveUntraced(workload, metrics)
	} else {
		addOverhead(workload, res)
		names := make([]string, 0, len(layerNames))
		for _, d := range layerNames {
			m := res.layer[d.name]
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				m.Value = 0
			}
			m.Unit = d.unit
			metrics[d.name] = m
			names = append(names, d.name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("layer %-40s %14.6g %-6s n=%d\n", n, metrics[n].Value, metrics[n].Unit, metrics[n].N)
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, max(res.attempted, 1), res.failed, metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// saveUntraced keeps the last untraced end-to-end figures of a workload,
// so a later traced run can state its own overhead against them.
func saveUntraced(workload string, m map[string]metric) {
	data, err := json.Marshal(m)
	if err != nil {
		return
	}
	_ = os.WriteFile(filepath.Join(buildDir(), "untraced-"+workload+".json"), data, 0o644) // best effort
}

// addOverhead states the tracing overhead: the traced run's op_p50_ms and
// cpu_us_per_op relative to the last untraced run of the same workload in
// this checkout (0 when there is none).
func addOverhead(workload string, res *result) {
	traced := res.e2e
	res.layer["trace.op_p50_ms"] = metric{Value: traced["op_p50_ms"].Value, Unit: "ms", N: traced["op_p50_ms"].N}
	data, err := os.ReadFile(filepath.Join(buildDir(), "untraced-"+workload+".json"))
	if err != nil {
		return
	}
	var base map[string]metric
	if json.Unmarshal(data, &base) != nil {
		return
	}
	rel := func(name string) float64 {
		b := base[name].Value
		if b <= 0 {
			return 0
		}
		return traced[name].Value/b - 1
	}
	res.layer["trace.overhead_op_p50"] = metric{Value: rel("op_p50_ms"), N: 1}
	res.layer["trace.overhead_cpu_per_op"] = metric{Value: rel("cpu_us_per_op"), N: 1}
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// durMS converts durations to float milliseconds.
func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
