package experiments

import (
	"fmt"
	"time"

	"lorameshmon"
)

// S1Scale measures the simulator at collector scale: node counts far
// beyond the paper's 10-node campus, on random-geometric and campus
// topologies at constant density (areaForDensity). Each point runs a
// short hello-traffic window — the HelloInterval is stretched so
// roughly a quarter of the mesh beacons once, which is the steady-state
// shape of a converged large mesh without paying for full route-table
// convergence — and, where monitoring is on, drives every agent's
// batches through the real uplink→collector ingest path.
//
// The headline column is the delivery-event reduction: with the
// spatial-grid medium, reception decisions per frame track the in-range
// neighbourhood (constant under constant density) instead of N-1, which
// is what makes meshes of 10k nodes up to scenario.MaxNodes (65 534)
// simulable. The wall-clock
// events/sec column feeds the BENCH trajectory via BenchmarkS1Scale.
func S1Scale() Table {
	t := Table{
		ID:    "S1",
		Title: "Simulator scale: spatial-grid medium, delivery events and throughput vs node count",
		Columns: []string{"topology", "nodes", "monitored", "tx frames", "delivery events",
			"events/frame", "all-pairs/frame", "reduction", "sim events", "kev/s wall", "batches ingested"},
	}
	type point struct {
		layout  lorameshmon.Layout
		n       int
		monitor bool
	}
	points := []point{
		{lorameshmon.RandomGeometric, 1_000, true},
		{lorameshmon.RandomGeometric, 10_000, true},
		{lorameshmon.Campus, 10_000, false},
		{lorameshmon.RandomGeometric, 50_000, false},
	}
	type result struct {
		row       []string
		reduction float64
	}
	results := Sweep(len(points), func(i int) result {
		p := points[i]
		spec := baseSpec(131, p.n)
		spec.Layout = p.layout
		spec.AreaM = areaForDensity(p.n)
		// A quarter of the mesh beacons once inside the 2 min window
		// (first hellos are uniformly jittered across the interval).
		spec.Mesh.HelloInterval = 8 * time.Minute
		spec.Monitor = p.monitor
		spec.Agent.ReportInterval = 60 * time.Second
		spec.Agent.HeartbeatInterval = 60 * time.Second
		spec.Agent.DisablePacketCapture = true
		sys, err := lorameshmon.NewWithOptions(spec, lorameshmon.Options{
			AlertCheckInterval: time.Hour, // out of the window: no alert sweeps over 10k+ nodes
		})
		if err != nil {
			panic(fmt.Sprintf("S1 %v/%d: %v", p.layout, p.n, err))
		}
		start := time.Now()
		sys.Start()
		sys.RunFor(2 * time.Minute)
		wall := time.Since(start).Seconds()
		st := sys.Deployment.Medium.Stats()
		evPerTx := float64(st.DeliveryAttempts) / float64(st.TxFrames)
		allPairs := float64(p.n - 1)
		reduction := allPairs / evPerTx
		fired := sys.Deployment.Sim.EventsFired()
		return result{
			row: []string{
				p.layout.String(), d(p.n), fmt.Sprintf("%v", p.monitor),
				d(st.TxFrames), d(st.DeliveryAttempts), f1(evPerTx), f1(allPairs),
				f1(reduction) + "x", d(fired), f1(float64(fired) / wall / 1000),
				d(sys.Collector.Stats().BatchesIngested),
			},
			reduction: reduction,
		}
	})
	redAt10 := 0.0
	for i, r := range results {
		t.AddRow(r.row...)
		if points[i].layout == lorameshmon.RandomGeometric && points[i].n == 10_000 {
			redAt10 = r.reduction
		}
	}
	t.Note("constant density (area scales with sqrt(N)); hellos only, HelloInterval 8 min, 2 min window")
	t.Note("reduction = all-pairs delivery events / scheduled delivery events; at 10k random-geometric: %.1fx (acceptance floor 10x)", redAt10)
	t.Note("kev/s wall is wall-clock dependent and excluded from determinism comparisons")
	return t
}
