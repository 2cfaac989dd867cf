package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"lorameshmon/internal/phy"
	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
	"lorameshmon/internal/wire"
)

type nullSink struct{ batches int }

func (s *nullSink) Ingest(wire.Batch) error { s.batches++; return nil }

// deterministicSpec returns a spec with the steep test channel so that
// line/grid adjacency is exact.
func deterministicSpec(layout Layout, n int) Spec {
	spec := DefaultSpec()
	spec.Layout = layout
	spec.N = n
	spec.Monitor = false
	spec.Region = phy.Unregulated()
	spec.Radio.Channel = phy.FreeSpaceChannel()
	spec.Radio.Channel.PathLossExponent = 8
	spec.Radio.DeterministicDelivery = true
	spec.SpacingM = 16.5
	return spec
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Spec{N: 0}, nil); err == nil {
		t.Fatal("zero nodes accepted")
	}
	spec := DefaultSpec()
	spec.Monitor = true
	if _, err := Build(spec, nil); err == nil {
		t.Fatal("monitoring without sink accepted")
	}
	bad := deterministicSpec(Line, 3)
	bad.SpacingM = 0
	if _, err := Build(bad, nil); err == nil {
		t.Fatal("line without spacing accepted")
	}
}

// TestBuildNodeIDBound pins the radio ID space: N nodes take IDs 1..N
// and 0xFFFF is broadcast, so 65534 is the largest deployment. Specs
// ask for monitoring without a sink, the next check after the bound, so
// an accepted N fails there without building the mesh.
func TestBuildNodeIDBound(t *testing.T) {
	for _, tc := range []struct {
		n         int
		overBound bool
	}{
		{n: 65534, overBound: false},
		{n: 65535, overBound: true},
	} {
		spec := DefaultSpec()
		spec.N = tc.n
		spec.Monitor = true
		_, err := Build(spec, nil)
		if err == nil {
			t.Fatalf("N=%d: accepted without a sink", tc.n)
		}
		if got := strings.Contains(err.Error(), "radio ID space"); got != tc.overBound {
			t.Errorf("N=%d: err = %v, want ID-bound rejection %v", tc.n, err, tc.overBound)
		}
	}
}

func TestLinePlacement(t *testing.T) {
	dep, err := Build(deterministicSpec(Line, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range dep.Nodes {
		want := phy.Point{X: float64(i) * 16.5}
		if n.Radio().Position() != want {
			t.Fatalf("node %d at %+v, want %+v", i+1, n.Radio().Position(), want)
		}
	}
}

func TestGridPlacement(t *testing.T) {
	dep, err := Build(deterministicSpec(Grid, 9), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 9 nodes: 3x3 grid.
	last := dep.Nodes[8].Radio().Position()
	if last.X != 2*16.5 || last.Y != 2*16.5 {
		t.Fatalf("corner node at %+v", last)
	}
}

func TestStarPlacement(t *testing.T) {
	dep, err := Build(deterministicSpec(Star, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	center := dep.Nodes[0].Radio().Position()
	if center != (phy.Point{}) {
		t.Fatalf("gateway not at origin: %+v", center)
	}
	for _, n := range dep.Nodes[1:] {
		d := n.Radio().Position().Distance(center)
		if math.Abs(d-16.5) > 1e-9 {
			t.Fatalf("leaf at distance %v, want 16.5", d)
		}
	}
}

func TestRandomGeometricIsConnected(t *testing.T) {
	spec := DefaultSpec()
	spec.N = 15
	spec.Monitor = false
	spec.Radio.Channel.ShadowingSigmaDB = 0 // match the planner's prediction
	spec.AreaM = 4000
	dep, err := Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxRange := spec.Radio.Channel.MaxRangeM(spec.Phy) * 0.9
	pts := make([]phy.Point, len(dep.Nodes))
	for i, n := range dep.Nodes {
		pts[i] = n.Radio().Position()
	}
	if !connected(pts, maxRange) {
		t.Fatal("random layout not connected")
	}
}

func TestRandomGeometricImpossibleFails(t *testing.T) {
	spec := DefaultSpec()
	spec.N = 20
	spec.Monitor = false
	spec.AreaM = 500_000 // far beyond any LoRa range
	if _, err := Build(spec, nil); err == nil {
		t.Fatal("hopeless placement succeeded")
	}
}

func TestLineConvergesAndDelivers(t *testing.T) {
	dep, err := Build(deterministicSpec(Line, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	dep.Start()
	at, ok := dep.TimeToConvergence(15*time.Minute, 10*time.Second)
	if !ok {
		t.Fatal("line never converged")
	}
	if at <= 0 {
		t.Fatalf("convergence at %v", at)
	}
	if err := dep.ConvergecastTraffic(1, time.Minute, 20, false); err != nil {
		t.Fatal(err)
	}
	dep.RunFor(20 * time.Minute)
	// Hidden-terminal collisions cost a few percent even on an idle
	// deterministic line; anything below ~0.85 means routing is broken.
	pdr := dep.PDR()
	if pdr < 0.85 {
		t.Fatalf("PDR = %v, want > 0.85 on an idle deterministic line", pdr)
	}
	totals := dep.AppTotals()
	if totals.Offered == 0 || totals.Received == 0 {
		t.Fatalf("totals = %+v", totals)
	}
	// All traffic targets node 1.
	if dep.Nodes[0].App().Received != totals.Received {
		t.Fatal("deliveries not all at the convergecast target")
	}
}

func TestMonitoringAgentsReport(t *testing.T) {
	sink := &nullSink{}
	spec := deterministicSpec(Line, 3)
	spec.Monitor = true
	dep, err := Build(spec, sink)
	if err != nil {
		t.Fatal(err)
	}
	dep.Start()
	dep.RunFor(5 * time.Minute)
	if sink.batches == 0 {
		t.Fatal("no batches reached the sink")
	}
	if dep.Nodes[0].Agent() == nil {
		t.Fatal("agent missing")
	}
}

func TestScheduleFailureAndRecovery(t *testing.T) {
	dep, err := Build(deterministicSpec(Line, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	dep.Start()
	if _, ok := dep.TimeToConvergence(15*time.Minute, 10*time.Second); !ok {
		t.Fatal("no initial convergence")
	}
	now := dep.Sim.Now()
	if err := dep.ScheduleFailure(2, now.Add(time.Minute), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	dep.RunFor(2 * time.Minute)
	if dep.Node(2).Running() {
		t.Fatal("node 2 still running after failure")
	}
	// Stale routes persist until the route timeout (3.5 hello intervals),
	// then the survivors lose their paths through the dead relay.
	dep.RunFor(5 * time.Minute)
	if dep.Converged() {
		t.Fatal("deployment still converged after route timeout with relay down")
	}
	dep.RunFor(5 * time.Minute)
	if !dep.Node(2).Running() {
		t.Fatal("node 2 did not recover")
	}
	if _, ok := dep.TimeToConvergence(15*time.Minute, 10*time.Second); !ok {
		t.Fatal("no reconvergence after recovery")
	}
	if err := dep.ScheduleFailure(99, 0, 0); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestRandomTrafficRoundRobin(t *testing.T) {
	dep, err := Build(deterministicSpec(Line, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.RandomTraffic(time.Minute, 16, false); err != nil {
		t.Fatal(err)
	}
	dep.Start()
	dep.RunFor(30 * time.Minute)
	if dep.PDR() < 0.8 {
		t.Fatalf("PDR = %v", dep.PDR())
	}
	// Every node both sent and received something.
	for i, n := range dep.Nodes {
		if n.App().Offered == 0 {
			t.Fatalf("node %d offered nothing", i+1)
		}
	}
}

func TestNodeLookup(t *testing.T) {
	dep, err := Build(deterministicSpec(Line, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Node(1) == nil || dep.Node(2) == nil {
		t.Fatal("node lookup failed")
	}
	if dep.Node(0) != nil || dep.Node(3) != nil || dep.Node(radio.Broadcast) != nil {
		t.Fatal("out-of-range lookup returned a node")
	}
}

func TestDeterministicBuildAndRun(t *testing.T) {
	run := func() (float64, uint64) {
		spec := deterministicSpec(Line, 4)
		dep, err := Build(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		dep.ConvergecastTraffic(1, time.Minute, 20, false)
		dep.Start()
		dep.RunFor(30 * time.Minute)
		return dep.PDR(), dep.AppTotals().Offered
	}
	pdr1, off1 := run()
	pdr2, off2 := run()
	if pdr1 != pdr2 || off1 != off2 {
		t.Fatalf("runs diverged: (%v,%d) vs (%v,%d)", pdr1, off1, pdr2, off2)
	}
}

func TestMobilityMovesNodes(t *testing.T) {
	spec := DefaultSpec()
	spec.Seed = 21
	spec.N = 8
	spec.Monitor = false
	spec.AreaM = 3000
	dep, err := Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	dep.Start()
	before := make([]phy.Point, len(dep.Nodes))
	for i, n := range dep.Nodes {
		before[i] = n.Radio().Position()
	}
	cfg := DefaultMobility(5) // 5 m/s
	cfg.PinnedIDs = []uint16{1}
	if err := dep.EnableMobility(cfg); err != nil {
		t.Fatal(err)
	}
	dep.RunFor(10 * time.Minute)
	if dep.Nodes[0].Radio().Position() != before[0] {
		t.Fatal("pinned node moved")
	}
	moved := 0
	for i, n := range dep.Nodes[1:] {
		p := n.Radio().Position()
		if p != before[i+1] {
			moved++
		}
		if p.X < 0 || p.X > spec.AreaM || p.Y < 0 || p.Y > spec.AreaM {
			t.Fatalf("node %d left the area: %+v", i+2, p)
		}
	}
	if moved != len(dep.Nodes)-1 {
		t.Fatalf("moved = %d, want %d", moved, len(dep.Nodes)-1)
	}
	if dep.RouteChurn() == 0 {
		t.Fatal("no route churn under mobility")
	}
}

// TestMobilityPauseExactDwell pins the random-waypoint pause
// accounting: with an effectively infinite speed the walker reaches a
// fresh waypoint on every moving tick, so consecutive position changes
// must be exactly Pause apart — not ⌈Pause/Tick⌉ ticks plus an extra
// idle tick, which the old countdown accounting produced.
func TestMobilityPauseExactDwell(t *testing.T) {
	spec := DefaultSpec()
	spec.N = 1
	spec.Monitor = false
	spec.AreaM = 1000
	dep, err := Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MobilityConfig{SpeedMps: 1e9, Pause: 3 * time.Second, Tick: time.Second}
	if err := dep.EnableMobility(cfg); err != nil {
		t.Fatal(err)
	}
	r := dep.Nodes[0].Radio()
	last := r.Position()
	var moves []simkit.Time
	// Registered after EnableMobility, so this observer sees each tick's
	// position after the walker stepped.
	dep.Sim.Every(cfg.Tick, func() {
		if p := r.Position(); p != last {
			moves = append(moves, dep.Sim.Now())
			last = p
		}
	})
	dep.RunFor(20 * time.Second)
	if len(moves) < 4 {
		t.Fatalf("only %d moves observed: %v", len(moves), moves)
	}
	for i := 1; i < len(moves); i++ {
		if d := moves[i].Sub(moves[i-1]); d != cfg.Pause {
			t.Fatalf("dwell between moves = %v, want exactly %v (moves at %v)", d, cfg.Pause, moves)
		}
	}
}

func TestCampusPlacement(t *testing.T) {
	spec := DefaultSpec()
	spec.Layout = Campus
	spec.N = 48
	spec.Monitor = false
	spec.AreaM = 3000
	dep, err := Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]phy.Point, len(dep.Nodes))
	for i, n := range dep.Nodes {
		p := n.Radio().Position()
		if p.X < 0 || p.X > spec.AreaM || p.Y < 0 || p.Y > spec.AreaM {
			t.Fatalf("node %d outside the area: %+v", i+1, p)
		}
		pts[i] = p
	}
	// Clustered placement: mean nearest-neighbour distance must sit well
	// under the ~216 m a uniform scatter of 48 nodes in this area gives.
	var meanNN float64
	for i := range pts {
		nn := math.Inf(1)
		for j := range pts {
			if i != j {
				if d := pts[i].Distance(pts[j]); d < nn {
					nn = d
				}
			}
		}
		meanNN += nn
	}
	meanNN /= float64(len(pts))
	if meanNN > 100 {
		t.Fatalf("mean nearest-neighbour distance %.0fm — campus layout not clustered", meanNN)
	}
	// Same seed, same campus.
	dep2, err := Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range dep2.Nodes {
		if n.Radio().Position() != pts[i] {
			t.Fatal("campus placement not deterministic")
		}
	}
	bad := spec
	bad.AreaM = 0
	if _, err := Build(bad, nil); err == nil {
		t.Fatal("campus without area accepted")
	}
}

func TestMobilityValidation(t *testing.T) {
	noArea := deterministicSpec(Line, 2)
	noArea.AreaM = 0
	dep, err := Build(noArea, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.EnableMobility(DefaultMobility(5)); err == nil {
		t.Fatal("mobility without area accepted")
	}
	spec := DefaultSpec()
	spec.Monitor = false
	dep2, err := Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep2.EnableMobility(DefaultMobility(0)); err == nil {
		t.Fatal("zero speed accepted")
	}
}
