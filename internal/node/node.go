// Package node assembles one complete mesh node as deployed in the
// paper's testbed: a LoRa radio, the mesh router, application traffic
// generators (the sensor workload), and optionally the monitoring agent.
// It also tracks application-level accounting (offered vs delivered
// packets), which the evaluation's PDR figures are computed from.
package node

import (
	"fmt"
	"strconv"
	"time"

	"lorameshmon/internal/agent"
	"lorameshmon/internal/energy"
	"lorameshmon/internal/mesh"
	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
	"lorameshmon/internal/wire"
)

// TrafficConfig describes one application traffic flow.
type TrafficConfig struct {
	// Dst is the fixed destination; use radio.Broadcast for broadcast or
	// set RandomDst to pick among peers each time.
	Dst radio.ID
	// RandomDst draws a uniform destination from Peers on every packet.
	RandomDst bool
	// Peers is the candidate set for RandomDst.
	Peers []radio.ID
	// Interval is the mean inter-packet time.
	Interval time.Duration
	// JitterFrac randomises periodic intervals; ignored for Poisson.
	JitterFrac float64
	// Poisson draws exponential inter-arrival times with mean Interval.
	Poisson bool
	// PayloadBytes is the application payload size.
	PayloadBytes int
	// Reliable requests end-to-end acknowledgement.
	Reliable bool
	// StartDelay postpones the first packet.
	StartDelay time.Duration
}

// AppCounters tracks application-layer outcomes at one node.
type AppCounters struct {
	Offered   uint64 // generator fires
	Enqueued  uint64 // accepted by the router
	SendErrs  uint64 // rejected (no route, queue full, ...)
	Received  uint64 // payloads delivered to this node
	RecvBytes uint64
}

// ReceiveFunc is the application receive callback.
type ReceiveFunc func(src radio.ID, payload []byte, info radio.RxInfo)

// Node is one simulated device.
type Node struct {
	sim    *simkit.Sim
	rad    *radio.Radio
	router *mesh.Router
	agent  *agent.Agent // nil when monitoring is disabled

	gens    []*trafficGen
	app     AppCounters
	latency []LatencySample
	onRecv  ReceiveFunc
	running bool
	energy  *energy.Account // nil for mains-powered nodes
}

// New wires a node from its parts. agent may be nil (unmonitored node).
func New(sim *simkit.Sim, rad *radio.Radio, router *mesh.Router, ag *agent.Agent) *Node {
	n := &Node{sim: sim, rad: rad, router: router, agent: ag}
	router.OnReceive(func(src radio.ID, payload []byte, info radio.RxInfo) {
		n.app.Received++
		n.app.RecvBytes += uint64(len(payload))
		if sentAt, ok := parseStamp(payload); ok {
			n.recordLatency(src, sim.Now().Sub(sentAt))
		}
		if n.onRecv != nil {
			n.onRecv(src, payload, info)
		}
	})
	return n
}

// ID returns the node address.
func (n *Node) ID() radio.ID { return n.rad.ID() }

// Radio returns the node's radio.
func (n *Node) Radio() *radio.Radio { return n.rad }

// Router returns the node's mesh router.
func (n *Node) Router() *mesh.Router { return n.router }

// Agent returns the node's monitoring agent, or nil.
func (n *Node) Agent() *agent.Agent { return n.agent }

// App returns the application-layer counters.
func (n *Node) App() AppCounters { return n.app }

// Energy returns the node's battery account, or nil (mains powered).
func (n *Node) Energy() *energy.Account { return n.energy }

// SetEnergy attaches a battery account and wires it into the node's
// lifecycle: the radio charges TX/RX activity to it, the router
// advertises its state of charge in HELLOs, depletion powers the node
// off through the real failure path (Fail), and a recharge past the
// restart threshold boots it back up (Recover). Call before Start.
func (n *Node) SetEnergy(acc *energy.Account) {
	n.energy = acc
	n.rad.SetEnergySink(acc)
	n.router.SetBatterySource(acc.BatteryFraction)
	acc.OnDepleted(n.Fail)
	acc.OnRecharged(n.Recover)
}

// OnReceive installs the application receive callback.
func (n *Node) OnReceive(f ReceiveFunc) { n.onRecv = f }

// AddTraffic registers a traffic flow; it begins when the node starts
// (or immediately if the node is already running).
func (n *Node) AddTraffic(cfg TrafficConfig) error {
	if cfg.Interval <= 0 {
		return fmt.Errorf("node: traffic interval must be positive, got %v", cfg.Interval)
	}
	if cfg.RandomDst && len(cfg.Peers) == 0 {
		return fmt.Errorf("node: random-destination traffic needs peers")
	}
	if cfg.PayloadBytes <= 0 {
		cfg.PayloadBytes = 16
	}
	if cfg.PayloadBytes > mesh.MaxPayload {
		return fmt.Errorf("node: payload %d exceeds mesh maximum %d", cfg.PayloadBytes, mesh.MaxPayload)
	}
	g := &trafficGen{node: n, cfg: cfg}
	g.timer = n.sim.NewTimer(g.fire)
	n.gens = append(n.gens, g)
	if n.running {
		g.start()
	}
	return nil
}

// Start powers the node on: router, agent and traffic.
func (n *Node) Start() {
	if n.running {
		return
	}
	n.running = true
	if n.energy != nil {
		n.energy.Start()
		n.energy.SetPowered(true)
	}
	n.router.Start()
	if n.agent != nil {
		n.agent.Start()
	}
	for _, g := range n.gens {
		g.start()
	}
}

// Stop powers the node off cleanly (protocol, monitoring and traffic).
func (n *Node) Stop() {
	if !n.running {
		return
	}
	n.running = false
	for _, g := range n.gens {
		g.stop()
	}
	if n.agent != nil {
		n.agent.Stop()
	}
	n.router.Stop()
}

// Fail simulates an abrupt power failure: the radio goes deaf and all
// software stops, exactly as a crashed device behaves from the outside.
// On a battery-backed node the account stops drawing the idle floor
// (harvesting continues — a dead node's panel still charges).
func (n *Node) Fail() {
	n.Stop()
	n.rad.SetDown(true)
	if n.energy != nil {
		n.energy.SetPowered(false)
	}
}

// Recover restores a failed node and restarts its software. A node
// whose battery is still below the restart threshold stays down — an
// externally scheduled recovery cannot boot a brown-out.
func (n *Node) Recover() {
	if n.energy != nil && n.energy.Depleted() {
		return
	}
	n.rad.SetDown(false)
	n.Start()
}

// Running reports whether the node is powered.
func (n *Node) Running() bool { return n.running }

// trafficGen emits application packets per its config.
type trafficGen struct {
	node    *Node
	cfg     TrafficConfig
	timer   *simkit.Timer
	stopped bool
	seq     uint64
}

func (g *trafficGen) start() {
	g.stopped = false
	first := g.cfg.StartDelay
	if first <= 0 {
		first = g.next()
	}
	g.timer.Reset(first)
}

func (g *trafficGen) stop() {
	g.stopped = true
	g.timer.Stop()
}

// next draws the following inter-packet gap.
func (g *trafficGen) next() time.Duration {
	rng := g.node.sim.Rand()
	if g.cfg.Poisson {
		return time.Duration(rng.ExpFloat64() * float64(g.cfg.Interval))
	}
	return simkit.Jitter(rng, g.cfg.Interval, g.cfg.JitterFrac)
}

func (g *trafficGen) fire() {
	if g.stopped {
		return
	}
	dst := g.cfg.Dst
	if g.cfg.RandomDst {
		for tries := 0; tries < 8; tries++ {
			dst = g.cfg.Peers[g.node.sim.Rand().Intn(len(g.cfg.Peers))]
			if dst != g.node.ID() {
				break
			}
		}
	}
	g.seq++
	g.node.app.Offered++
	payload := make([]byte, g.cfg.PayloadBytes)
	// Timestamp header for end-to-end latency measurement, then a flow
	// marker for debugging.
	stampPayload(payload, g.node.sim.Now())
	if len(payload) > latencyHeaderBytes {
		var marker [32]byte
		m := append(wire.NodeID(g.node.ID()).Append(marker[:0]), '/')
		copy(payload[latencyHeaderBytes:], strconv.AppendUint(m, g.seq, 10))
	}
	if _, err := g.node.router.Send(dst, payload, g.cfg.Reliable); err != nil {
		g.node.app.SendErrs++
	} else {
		g.node.app.Enqueued++
	}
	g.timer.Reset(g.next())
}
