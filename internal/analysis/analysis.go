// Package analysis turns collected monitoring data back into statements
// about the mesh — the "further analysis" the paper's tool exists to
// enable: topology inference from telemetry, its accuracy against ground
// truth, network-wide delivery estimates, routing-convergence detection
// and monitoring-completeness accounting.
package analysis

import (
	"math"
	"sort"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/phy"
	"lorameshmon/internal/radio"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

// Edge is a directed radio link tx→rx.
type Edge struct {
	Tx, Rx wire.NodeID
}

// Topology is a set of directed links between nodes.
type Topology struct {
	Edges map[Edge]bool
}

// NewTopology returns an empty topology.
func NewTopology() Topology { return Topology{Edges: make(map[Edge]bool)} }

// Add inserts a directed edge.
func (t Topology) Add(tx, rx wire.NodeID) { t.Edges[Edge{Tx: tx, Rx: rx}] = true }

// Has reports whether the directed edge exists.
func (t Topology) Has(tx, rx wire.NodeID) bool { return t.Edges[Edge{Tx: tx, Rx: rx}] }

// Len returns the number of edges.
func (t Topology) Len() int { return len(t.Edges) }

// Nodes returns every node appearing in the topology, sorted.
func (t Topology) Nodes() []wire.NodeID {
	set := make(map[wire.NodeID]bool)
	for e := range t.Edges {
		set[e.Tx] = true
		set[e.Rx] = true
	}
	out := make([]wire.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InferTopology reconstructs the mesh's direct links from telemetry:
// every received single-hop HELLO observed since 'from' with at least
// minObs observations becomes a directed edge transmitter→receiver.
func InferTopology(c collector.View, from float64, minObs uint64) Topology {
	if minObs == 0 {
		minObs = 1
	}
	t := NewTopology()
	for _, l := range c.Links(from) {
		if l.Count >= minObs {
			t.Add(l.Tx, l.Rx)
		}
	}
	return t
}

// TrueTopology extracts the ground-truth adjacency from the simulated
// medium: a directed edge exists when the mean link closes (positive
// demodulation margin).
func TrueTopology(m *radio.Medium) Topology {
	t := NewTopology()
	radios := m.Radios()
	for _, a := range radios {
		for _, b := range radios {
			if a == b {
				continue
			}
			link, err := m.MeanLink(a.ID(), b.ID())
			if err == nil && link.MarginDB > 0 {
				t.Add(wire.NodeID(a.ID()), wire.NodeID(b.ID()))
			}
		}
	}
	return t
}

// Accuracy compares an inferred topology against ground truth.
type Accuracy struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
	Precision      float64
	Recall         float64
	F1             float64
}

// CompareTopology scores inferred against truth.
func CompareTopology(inferred, truth Topology) Accuracy {
	var acc Accuracy
	for e := range inferred.Edges {
		if truth.Edges[e] {
			acc.TruePositives++
		} else {
			acc.FalsePositives++
		}
	}
	for e := range truth.Edges {
		if !inferred.Edges[e] {
			acc.FalseNegatives++
		}
	}
	if acc.TruePositives+acc.FalsePositives > 0 {
		acc.Precision = float64(acc.TruePositives) / float64(acc.TruePositives+acc.FalsePositives)
	}
	if acc.TruePositives+acc.FalseNegatives > 0 {
		acc.Recall = float64(acc.TruePositives) / float64(acc.TruePositives+acc.FalseNegatives)
	}
	if acc.Precision+acc.Recall > 0 {
		acc.F1 = 2 * acc.Precision * acc.Recall / (acc.Precision + acc.Recall)
	}
	return acc
}

// NetworkPDRFromStats estimates the application delivery ratio from the
// latest per-node counter summaries: total delivered / total originated.
// The second return is false when no node has reported data traffic yet.
func NetworkPDRFromStats(c collector.View) (float64, bool) {
	return NetworkPDR(c.Nodes())
}

// NetworkPDR is NetworkPDRFromStats over a registry already read.
func NetworkPDR(nodes []collector.NodeInfo) (float64, bool) {
	var sent, delivered uint64
	for _, n := range nodes {
		if n.LastStats == nil {
			continue
		}
		sent += n.LastStats.DataSent
		delivered += n.LastStats.Delivered
	}
	if sent == 0 {
		return 0, false
	}
	return float64(delivered) / float64(sent), true
}

// ConvergenceFromTelemetry finds, per node, the first telemetry
// timestamp at which the node reported routes to all n-1 peers, and
// returns the network-wide convergence instant (the latest of them).
// ok is false when some node never converged in the recorded data.
func ConvergenceFromTelemetry(c collector.View, n int) (float64, bool) {
	if n < 2 {
		return 0, true
	}
	nodes := c.Nodes()
	if len(nodes) < n {
		return 0, false
	}
	latest := 0.0
	for _, info := range nodes {
		it, ok := c.DB().IterOne("node_route_count",
			tsdb.Labels{"node": info.ID.String()}, 0, math.MaxFloat64)
		if !ok {
			return 0, false
		}
		// Streaming early-exit: decoding stops at the first qualifying
		// sample instead of materialising the whole series.
		first := math.NaN()
		for it.Next() {
			if ts, v := it.At(); v >= float64(n-1) {
				first = ts
				break
			}
		}
		if math.IsNaN(first) {
			return 0, false
		}
		if first > latest {
			latest = first
		}
	}
	return latest, true
}

// PacketEventsIngested counts the packet-event records materialised in
// the store over [from, to].
func PacketEventsIngested(c collector.View, from, to float64) uint64 {
	// Count pushdown: the store folds compressed chunks directly, no
	// point slice is materialised.
	return uint64(c.DB().AggregateRange("mesh_packets", nil, from, to, tsdb.AggCount))
}

// Completeness is the fraction of ground-truth events visible at the
// server — the paper's key quality metric for the monitoring pipeline.
// It returns NaN when no events occurred.
func Completeness(visible, actual uint64) float64 {
	if actual == 0 {
		return math.NaN()
	}
	f := float64(visible) / float64(actual)
	if f > 1 {
		f = 1 // duplicates can make visible exceed actual
	}
	return f
}

// SilentNodes returns registered nodes whose last heartbeat is older
// than timeoutS at the given reference time, sorted by ID — the raw
// material of the node-down detector.
func SilentNodes(c collector.View, now, timeoutS float64) []wire.NodeID {
	var out []wire.NodeID
	for _, n := range c.Nodes() {
		if now-n.LastBeatTS > timeoutS {
			out = append(out, n.ID)
		}
	}
	return out
}

// Availability estimates the fraction of the window [from, now] during
// which the node was alive, from its heartbeat telemetry: each heartbeat
// attests to liveness since the previous one (gaps longer than
// maxGapS count as downtime). It returns NaN when the node reported no
// heartbeats in the window.
func Availability(c collector.View, node wire.NodeID, from, now, maxGapS float64) float64 {
	it, ok := c.DB().IterOne("node_uptime", tsdb.Labels{"node": node.String()}, from, now)
	if !ok || now <= from {
		return math.NaN()
	}
	alive := 0.0
	prev := from
	beats := 0
	for it.Next() {
		ts, _ := it.At()
		gap := ts - prev
		if gap <= maxGapS {
			alive += gap
		} else {
			alive += maxGapS // the beacon only attests maxGapS of history
		}
		prev = ts
		beats++
	}
	if beats == 0 {
		return math.NaN()
	}
	// Credit the tail only if the last heartbeat is fresh.
	if tail := now - prev; tail <= maxGapS {
		alive += tail
	}
	frac := alive / (now - from)
	if frac > 1 {
		frac = 1
	}
	return frac
}

// LinkQuality summarises one observed link for reporting.
type LinkQuality struct {
	Tx, Rx   wire.NodeID
	Count    uint64
	MeanRSSI float64
	MeanSNR  float64
	// Margin is mean SNR above the demodulation floor for the network's
	// spreading factor.
	Margin float64
}

// LinkMatrix returns the observed link qualities with demodulation
// margin computed for the given spreading factor.
func LinkMatrix(c collector.View, sf phy.SpreadingFactor, from float64) []LinkQuality {
	links := c.Links(from)
	out := make([]LinkQuality, len(links))
	floor := phy.SNRFloorDB(sf)
	for i, l := range links {
		out[i] = LinkQuality{
			Tx: l.Tx, Rx: l.Rx, Count: l.Count,
			MeanRSSI: l.MeanRSSI, MeanSNR: l.MeanSNR,
			Margin: l.MeanSNR - floor,
		}
	}
	return out
}
