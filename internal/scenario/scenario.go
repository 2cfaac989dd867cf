// Package scenario builds complete simulated deployments: node
// placement (line, grid, random geometric, star, campus), radio and mesh
// configuration, per-node monitoring agents and uplinks, application
// traffic, and failure schedules. Every experiment in the evaluation is
// expressed as a Spec.
package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"lorameshmon/internal/agent"
	"lorameshmon/internal/energy"
	"lorameshmon/internal/mesh"
	"lorameshmon/internal/node"
	"lorameshmon/internal/phy"
	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
	"lorameshmon/internal/uplink"
)

// Layout selects the node placement strategy.
type Layout int

// Placement strategies.
const (
	// Line places nodes on a line with SpacingM between neighbours.
	Line Layout = iota
	// Grid places nodes on a near-square grid with SpacingM pitch.
	Grid
	// RandomGeometric scatters nodes uniformly in an AreaM×AreaM square,
	// resampling until the predicted connectivity graph is connected.
	RandomGeometric
	// Star puts node 1 in the centre and the rest on a circle of radius
	// SpacingM — the classic LoRaWAN single-gateway shape.
	Star
	// Campus scatters nodes in dense clusters around uniformly placed
	// building centres inside an AreaM×AreaM square — the smart-campus
	// deployment shape, with strong density contrast between buildings
	// and the open space between them. SpacingM is the in-building
	// scatter σ (default AreaM/40).
	Campus
)

func (l Layout) String() string {
	switch l {
	case Line:
		return "line"
	case Grid:
		return "grid"
	case RandomGeometric:
		return "random"
	case Star:
		return "star"
	case Campus:
		return "campus"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// MaxNodes is the largest deployment Build accepts: nodes take radio
// IDs 1..N, and the 16-bit ID space reserves 0xFFFF for broadcast.
const MaxNodes = int(radio.Broadcast) - 1

// Spec describes a deployment.
type Spec struct {
	Seed int64
	N    int

	Layout   Layout
	SpacingM float64 // line/grid pitch, star radius
	AreaM    float64 // random-geometric square side

	Radio  radio.Config
	Phy    phy.Params
	Region phy.Region
	Mesh   mesh.Config

	// Monitor enables the per-node monitoring agent.
	Monitor bool
	Agent   agent.Config
	Uplink  uplink.SimConfig

	// Energy, when non-nil, gives every node a battery (and optionally a
	// solar panel) with this configuration. Radios charge TX/RX airtime
	// to it, agents report state of charge in telemetry, and depletion
	// powers the node off through the real failure path. Nil means mains
	// power: infinite energy, exactly the pre-energy behaviour.
	Energy *energy.Config
}

// DefaultSpec is a 10-node random-geometric campus deployment with
// monitoring enabled and EU868 regulation.
func DefaultSpec() Spec {
	ch := radio.DefaultConfig()
	return Spec{
		Seed:    1,
		N:       10,
		Layout:  RandomGeometric,
		AreaM:   3000,
		Radio:   ch,
		Phy:     phy.DefaultParams(),
		Region:  phy.EU868(),
		Mesh:    mesh.DefaultConfig(),
		Monitor: true,
		Agent:   agent.DefaultConfig(),
		Uplink:  uplink.DefaultSimConfig(),
	}
}

// Deployment is a built, ready-to-run network.
type Deployment struct {
	Sim    *simkit.Sim
	Medium *radio.Medium
	Nodes  []*node.Node
	Spec   Spec
}

// Build constructs the deployment described by spec. Monitoring agents
// (when enabled) upload through per-node simulated uplinks into sink;
// sink may be nil when Monitor is false.
func Build(spec Spec, sink uplink.Sink) (*Deployment, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("scenario: need at least one node, got %d", spec.N)
	}
	if spec.N > MaxNodes {
		return nil, fmt.Errorf("scenario: %d nodes exceed the radio ID space (at most %d)", spec.N, MaxNodes)
	}
	if spec.Monitor && sink == nil {
		return nil, fmt.Errorf("scenario: monitoring enabled but no sink provided")
	}
	if spec.Phy.SF == 0 { // zero-value spec fields get defaults
		spec.Phy = phy.DefaultParams()
	}
	if spec.Region.Name == "" {
		spec.Region = phy.EU868()
	}
	sim := simkit.New(spec.Seed)
	positions, err := placeNodes(sim.Rand(), spec)
	if err != nil {
		return nil, err
	}
	medium := radio.NewMedium(sim, spec.Radio)
	dep := &Deployment{Sim: sim, Medium: medium, Spec: spec}
	for i := 0; i < spec.N; i++ {
		id := radio.ID(i + 1)
		rad, err := medium.AttachRadio(id, positions[i], spec.Phy, spec.Region)
		if err != nil {
			return nil, fmt.Errorf("scenario: attach %v: %w", id, err)
		}
		router := mesh.NewRouter(sim, rad, spec.Mesh)
		var acc *energy.Account
		if spec.Energy != nil {
			acc = energy.NewAccount(sim, *spec.Energy)
		}
		var ag *agent.Agent
		if spec.Monitor {
			link := uplink.NewSim(sim, sink, spec.Uplink)
			acfg := spec.Agent
			if acc != nil {
				acfg.Energy = acc
			}
			ag = agent.New(sim, router, link, acfg)
		}
		nd := node.New(sim, rad, router, ag)
		if acc != nil {
			nd.SetEnergy(acc)
		}
		dep.Nodes = append(dep.Nodes, nd)
	}
	return dep, nil
}

// placeNodes computes positions for the requested layout.
func placeNodes(rng *rand.Rand, spec Spec) ([]phy.Point, error) {
	n := spec.N
	switch spec.Layout {
	case Line:
		s := spec.SpacingM
		if s <= 0 {
			return nil, fmt.Errorf("scenario: line layout needs positive SpacingM")
		}
		pts := make([]phy.Point, n)
		for i := range pts {
			pts[i] = phy.Point{X: float64(i) * s}
		}
		return pts, nil
	case Grid:
		s := spec.SpacingM
		if s <= 0 {
			return nil, fmt.Errorf("scenario: grid layout needs positive SpacingM")
		}
		cols := int(math.Ceil(math.Sqrt(float64(n))))
		pts := make([]phy.Point, n)
		for i := range pts {
			pts[i] = phy.Point{X: float64(i%cols) * s, Y: float64(i/cols) * s}
		}
		return pts, nil
	case Star:
		r := spec.SpacingM
		if r <= 0 {
			return nil, fmt.Errorf("scenario: star layout needs positive SpacingM (radius)")
		}
		pts := make([]phy.Point, n)
		for i := 1; i < n; i++ {
			theta := 2 * math.Pi * float64(i-1) / float64(n-1)
			pts[i] = phy.Point{X: r * math.Cos(theta), Y: r * math.Sin(theta)}
		}
		return pts, nil
	case RandomGeometric:
		if spec.AreaM <= 0 {
			return nil, fmt.Errorf("scenario: random layout needs positive AreaM")
		}
		return randomConnected(rng, spec)
	case Campus:
		if spec.AreaM <= 0 {
			return nil, fmt.Errorf("scenario: campus layout needs positive AreaM")
		}
		return campusClusters(rng, spec), nil
	default:
		return nil, fmt.Errorf("scenario: unknown layout %v", spec.Layout)
	}
}

// randomConnected scatters nodes until the predicted adjacency graph
// (mean path loss within 90%% of nominal range) is connected, so random
// deployments are meshes rather than archipelagos.
func randomConnected(rng *rand.Rand, spec Spec) ([]phy.Point, error) {
	maxRange := spec.Radio.Channel.MaxRangeM(spec.Phy) * 0.9
	const attempts = 200
	for try := 0; try < attempts; try++ {
		pts := make([]phy.Point, spec.N)
		for i := range pts {
			pts[i] = phy.Point{X: rng.Float64() * spec.AreaM, Y: rng.Float64() * spec.AreaM}
		}
		if connected(pts, maxRange) {
			return pts, nil
		}
	}
	return nil, fmt.Errorf(
		"scenario: could not place %d connected nodes in %.0fm area (range %.0fm) after %d tries",
		spec.N, spec.AreaM, maxRange, attempts)
}

// campusClusters scatters nodes normally around uniformly placed
// building centres (one building per ~24 nodes), clamped into the area.
// Unlike RandomGeometric there is no connectivity resampling: a campus
// with an unreachable outbuilding is a legitimate topology.
func campusClusters(rng *rand.Rand, spec Spec) []phy.Point {
	sigma := spec.SpacingM
	if sigma <= 0 {
		sigma = spec.AreaM / 40
	}
	buildings := spec.N / 24
	if buildings < 1 {
		buildings = 1
	}
	centres := make([]phy.Point, buildings)
	for i := range centres {
		centres[i] = phy.Point{X: rng.Float64() * spec.AreaM, Y: rng.Float64() * spec.AreaM}
	}
	clamp := func(v float64) float64 { return math.Min(math.Max(v, 0), spec.AreaM) }
	pts := make([]phy.Point, spec.N)
	for i := range pts {
		c := centres[i%buildings]
		pts[i] = phy.Point{
			X: clamp(c.X + rng.NormFloat64()*sigma),
			Y: clamp(c.Y + rng.NormFloat64()*sigma),
		}
	}
	return pts
}

// connected reports whether the unit-disk graph over pts with the given
// radius is connected. Points are bucketed into radius-sized cells so
// the traversal touches only the 3×3 neighbourhood per node — O(n·deg)
// instead of the all-pairs scan, which matters when placement resamples
// 10k+ node topologies.
func connected(pts []phy.Point, radius float64) bool {
	n := len(pts)
	if n <= 1 {
		return true
	}
	if radius <= 0 {
		return false
	}
	cellOf := func(p phy.Point) [2]int32 {
		return [2]int32{int32(math.Floor(p.X / radius)), int32(math.Floor(p.Y / radius))}
	}
	buckets := make(map[[2]int32][]int32, n)
	for i, p := range pts {
		k := cellOf(p)
		buckets[k] = append(buckets[k], int32(i))
	}
	visited := make([]bool, n)
	stack := make([]int32, 0, n)
	stack = append(stack, 0)
	visited[0] = true
	seen := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p := pts[cur]
		k := cellOf(p)
		for dy := int32(-1); dy <= 1; dy++ {
			for dx := int32(-1); dx <= 1; dx++ {
				for _, j := range buckets[[2]int32{k[0] + dx, k[1] + dy}] {
					if !visited[j] && p.Distance(pts[j]) <= radius {
						visited[j] = true
						seen++
						stack = append(stack, j)
					}
				}
			}
		}
	}
	return seen == n
}

// Start powers on every node.
func (d *Deployment) Start() {
	for _, n := range d.Nodes {
		n.Start()
	}
}

// RunFor advances the simulation.
func (d *Deployment) RunFor(dur time.Duration) { d.Sim.RunFor(dur) }

// Node returns the node with the given ID, or nil.
func (d *Deployment) Node(id radio.ID) *node.Node {
	idx := int(id) - 1
	if idx < 0 || idx >= len(d.Nodes) {
		return nil
	}
	return d.Nodes[idx]
}

// ConvergecastTraffic makes every node except the target send periodic
// data to target — the paper's sensors-report-to-gateway workload.
func (d *Deployment) ConvergecastTraffic(target radio.ID, interval time.Duration, payload int, reliable bool) error {
	for _, n := range d.Nodes {
		if n.ID() == target {
			continue
		}
		err := n.AddTraffic(node.TrafficConfig{
			Dst:          target,
			Interval:     interval,
			JitterFrac:   0.2,
			PayloadBytes: payload,
			Reliable:     reliable,
			// Let routing converge before offering load.
			StartDelay: 2 * d.Spec.Mesh.HelloInterval,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RandomTraffic makes every node send periodic data to random peers.
func (d *Deployment) RandomTraffic(interval time.Duration, payload int, reliable bool) error {
	peers := make([]radio.ID, len(d.Nodes))
	for i, n := range d.Nodes {
		peers[i] = n.ID()
	}
	for _, n := range d.Nodes {
		err := n.AddTraffic(node.TrafficConfig{
			RandomDst:    true,
			Peers:        peers,
			Interval:     interval,
			JitterFrac:   0.2,
			PayloadBytes: payload,
			Reliable:     reliable,
			StartDelay:   2 * d.Spec.Mesh.HelloInterval,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ScheduleFailure powers the node off at 'at' and, if recoverAfter > 0,
// back on after that much downtime.
func (d *Deployment) ScheduleFailure(id radio.ID, at simkit.Time, recoverAfter time.Duration) error {
	n := d.Node(id)
	if n == nil {
		return fmt.Errorf("scenario: unknown node %v", id)
	}
	d.Sim.At(at, n.Fail)
	if recoverAfter > 0 {
		d.Sim.At(at.Add(recoverAfter), n.Recover)
	}
	return nil
}

// AppTotals sums application counters across the deployment.
func (d *Deployment) AppTotals() node.AppCounters {
	var total node.AppCounters
	for _, n := range d.Nodes {
		c := n.App()
		total.Offered += c.Offered
		total.Enqueued += c.Enqueued
		total.SendErrs += c.SendErrs
		total.Received += c.Received
		total.RecvBytes += c.RecvBytes
	}
	return total
}

// PDR returns delivered/offered across all application traffic, or NaN
// before any packet was offered.
func (d *Deployment) PDR() float64 {
	t := d.AppTotals()
	if t.Offered == 0 {
		return math.NaN()
	}
	return float64(t.Received) / float64(t.Offered)
}

// Converged reports whether every running node has a route to every
// other running node.
func (d *Deployment) Converged() bool {
	for _, a := range d.Nodes {
		if !a.Running() {
			continue
		}
		for _, b := range d.Nodes {
			if a == b || !b.Running() {
				continue
			}
			if _, ok := a.Router().Table().Lookup(b.ID()); !ok {
				return false
			}
		}
	}
	return true
}

// TimeToConvergence runs the simulation until Converged or the deadline
// and returns the convergence instant (checked at the given resolution).
func (d *Deployment) TimeToConvergence(deadline, resolution time.Duration) (simkit.Time, bool) {
	if resolution <= 0 {
		resolution = time.Second
	}
	end := d.Sim.Now().Add(deadline)
	for d.Sim.Now() < end {
		if d.Converged() {
			return d.Sim.Now(), true
		}
		d.Sim.RunFor(resolution)
	}
	return 0, d.Converged()
}
