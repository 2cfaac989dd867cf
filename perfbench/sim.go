package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/metrics"
	"lorameshmon/internal/scenario"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/uplink"
)

// mesh_sim's fixed inputs.
const (
	simNodes    = 500
	simLayout   = scenario.RandomGeometric
	simWarmup   = 130 * time.Second // two 60 s HELLO rounds, then traffic starts
	simTrafficI = 5 * time.Minute   // convergecast report interval per node
	// simGoldenAt is the simulated second of the timed window whose
	// counters are compared across runs of one seed.
	simGoldenAt = 20
)

// simCounters fingerprints a simulation's progress; runs of one seed
// must agree on it at equal simulated times.
type simCounters struct {
	SimS      float64 `json:"sim_s"`
	Events    uint64  `json:"events"`
	TxFrames  uint64  `json:"tx_frames"`
	Batches   uint64  `json:"batches_ingested"`
	Records   uint64  `json:"records_ingested"`
	Hellos    uint64  `json:"hellos"`
	AgentSent uint64  `json:"agent_batches"`
}

type simSystem struct {
	dep  *scenario.Deployment
	coll *collector.Collector
	reg  *metrics.Registry
	sink *timingSink
}

func (s *simSystem) counters() simCounters {
	c := simCounters{
		SimS:     time.Duration(s.dep.Sim.Now()).Seconds(),
		Events:   s.dep.Sim.EventsFired(),
		TxFrames: s.dep.Medium.Stats().TxFrames,
		Batches:  s.coll.Stats().BatchesIngested,
		Records:  s.coll.Stats().RecordsIngested,
	}
	for _, n := range s.dep.Nodes {
		c.Hellos += n.Router().Counters().HelloSent
		if a := n.Agent(); a != nil {
			c.AgentSent += a.Counters().BatchesSent
		}
	}
	return c
}

// buildSim builds the campus, starts it and runs the routing warm-up.
func buildSim(e *env) (*simSystem, error) {
	reg := metrics.NewRegistry()
	db := tsdb.New()
	db.Instrument(reg)
	coll := collector.New(db, collector.Config{RecentPackets: 1000, Metrics: reg})
	sink := &timingSink{next: coll, rec: e.rec}
	spec := scenario.DefaultSpec()
	spec.Seed = e.seed
	spec.N = simNodes
	spec.Layout = simLayout
	spec.AreaM = 3000 * math.Sqrt(simNodes/10.0) // the 10-node reference density
	dep, err := scenario.Build(spec, sink)
	if err != nil {
		return nil, err
	}
	if err := dep.ConvergecastTraffic(1, simTrafficI, 20, false); err != nil {
		return nil, err
	}
	dep.Start()
	dep.RunFor(simWarmup)
	return &simSystem{dep: dep, coll: coll, reg: reg, sink: sink}, nil
}

// runMeshSim: a 1000-node campus at constant density with monitoring on
// (packet capture and convergecast application traffic); agents send
// through simulated uplinks into an in-process collector via a timing
// sink. The timed window advances the simulation one simulated second
// at a time until the wall-clock window is used up.
func runMeshSim(e *env) (*result, error) {
	res := newResult()
	var (
		setup []float64
		sys   *simSystem
		first simCounters
	)
	for round := 0; round < setupRounds; round++ {
		sys = nil
		runtime.GC() // peak memory should count one system, not two
		t0 := time.Now()
		s, err := buildSim(e)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		c := s.counters()
		if round == 0 {
			first = c
		}
		res.check(c == first, "set-up round %d counters %+v differ from round 1 %+v", round+1, c, first)
		sys = s
	}
	res.e2e["setup_s"] = metric{Value: median(setup), Unit: "s", N: len(setup)}

	start := sys.counters()
	up0 := simUplinkTotals(sys)
	sys.sink.durs = sys.sink.durs[:0]
	if e.rec != nil {
		e.rec.reset()
	}
	before := takeSnap()
	prof := e.startProfile()
	var steps []time.Duration
	var golden simCounters
	t0 := time.Now()
	for time.Since(t0) < e.window {
		s := time.Now()
		sys.dep.RunFor(time.Second)
		steps = append(steps, time.Since(s))
		if len(steps) == simGoldenAt {
			golden = sys.counters()
		}
	}
	wall := time.Since(t0)
	prof.stop(res)
	after := takeSnap()
	end := sys.counters()
	up1 := simUplinkTotals(sys)

	simS := len(steps)
	stepMS := durMS(steps)
	ingestMS := durMS(sys.sink.durs)
	res.attempted = simS
	res.e2e["op_p50_ms"] = metric{Value: median(stepMS), Unit: "ms", N: simS}
	res.e2e["fresh_p50_ms"] = metric{Value: median(ingestMS), Unit: "ms", N: len(ingestMS)}
	phaseCost(before, after, simS, res)
	memoryMetrics(res)

	res.check(end.Batches > start.Batches, "no batches ingested in the timed window")
	res.check(sys.coll.Stats().BatchesRejected == 0, "%d batches rejected", sys.coll.Stats().BatchesRejected)
	if len(steps) >= simGoldenAt {
		if err := checkGolden(e.seed, first, golden, res); err != nil {
			res.info = append(res.info, "golden counters: "+err.Error())
		}
	}

	sinkTotal := 0.0
	for _, d := range sys.sink.durs {
		sinkTotal += d.Seconds()
	}
	events := float64(end.Events - start.Events)
	res.layer["simkit.events"] = metric{Value: events, N: simS}
	res.layer["simkit.events_per_sim_s"] = metric{Value: events / float64(max(simS, 1)), N: simS}
	res.layer["simkit.self_share"] = metric{Value: 1 - sinkTotal/wall.Seconds(), N: simS}
	tx := float64(end.TxFrames - start.TxFrames)
	res.layer["radio.tx_frames"] = metric{Value: tx, N: simS}
	// Delivery attempts are read from the medium directly; the fingerprint
	// keeps only frames.
	res.layer["radio.delivery_attempts_per_tx"] = metric{Value: float64(sys.dep.Medium.Stats().DeliveryAttempts) / math.Max(float64(end.TxFrames), 1), N: int(end.TxFrames)}
	routes := 0
	for _, n := range sys.dep.Nodes {
		routes += n.Router().Table().Len()
	}
	res.layer["mesh.route_entries_mean"] = metric{Value: float64(routes) / float64(len(sys.dep.Nodes)), N: len(sys.dep.Nodes)}
	res.layer["mesh.hellos"] = metric{Value: float64(end.Hellos - start.Hellos), N: simS}
	res.layer["agent.batches"] = metric{Value: float64(end.AgentSent - start.AgentSent), N: simS}
	if acked := up1.acked - up0.acked; acked > 0 {
		res.layer["agent.records_per_batch"] = metric{Value: float64(up1.records-up0.records) / float64(acked), N: int(acked)}
	}
	if d := up1.delivered - up0.delivered; d > 0 {
		res.layer["uplink.sim_bytes_per_batch"] = metric{Value: float64(up1.bytes-up0.bytes) / float64(d), N: int(d)}
	}
	res.layer["collector.sink_ingest_us_per_batch"] = metric{Value: mean(ingestMS) * 1000, N: len(ingestMS)}
	registryMetrics(res, sys.reg)
	if e.rec != nil {
		spanMetrics(res, e.rec.finished(), simS)
	}

	speedup := float64(simS) / wall.Seconds()
	res.named = append(res.named,
		namedMetric{"setup_s", res.e2e["setup_s"]},
		namedMetric{"sim_ms_per_sim_s", res.e2e["op_p50_ms"]},
		namedMetric{"sink_ingest_p50_ms", res.e2e["fresh_p50_ms"]},
		namedMetric{"sim_speedup", metric{Value: speedup, Unit: "ratio", N: simS}},
		namedMetric{"cpu_us_per_sim_s", res.e2e["cpu_us_per_op"]},
		namedMetric{"sim_allocs_per_sim_s", res.e2e["allocs_per_op"]},
		namedMetric{"rss_peak_mb", res.e2e["rss_peak_mb"]},
		namedMetric{"heap_live_mb", res.e2e["heap_live_mb"]},
	)
	res.info = append(res.info, fmt.Sprintf(
		"sim nodes=%d layout=%v area=%.0fm warmup=%v traffic=convergecast/%v window=%v simulated=%ds events=%d batches=%d app=%+v",
		simNodes, simLayout, 3000*math.Sqrt(simNodes/10.0), simWarmup, simTrafficI, e.window, simS, end.Events-start.Events, end.Batches-start.Batches,
		sys.dep.AppTotals()))
	return res, nil
}

type uplinkTotals struct{ acked, records, delivered, bytes uint64 }

func simUplinkTotals(s *simSystem) uplinkTotals {
	var t uplinkTotals
	for _, n := range s.dep.Nodes {
		a := n.Agent()
		if a == nil {
			continue
		}
		c := a.Counters()
		t.acked += c.BatchesAcked
		t.records += c.RecordsShipped
		if u, ok := a.Uplink().(*uplink.Sim); ok {
			st := u.Stats()
			t.delivered += st.Delivered
			t.bytes += st.BytesSent
		}
	}
	return t
}

// checkGolden compares this run's counters with the first run of the same
// seed in this checkout (recording them when there is none).
func checkGolden(seed int64, warm, at simCounters, res *result) error {
	dir := filepath.Join(buildDir(), "golden")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("mesh_sim-%v-n%d-seed%d.json", simLayout, simNodes, seed))
	cur := [2]simCounters{warm, at}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.Marshal(cur)
		if err != nil {
			return err
		}
		return os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		return err
	}
	var want [2]simCounters
	if err := json.Unmarshal(data, &want); err != nil {
		return err
	}
	res.check(cur == want, "counters %+v differ from an earlier run of seed %d: %+v", cur, seed, want)
	return nil
}
