package alert

import (
	"fmt"
	"slices"
	"testing"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/wire"
)

// countingView counts registry reads through a real collector.
type countingView struct {
	collector.View
	nodes int
}

func (v *countingView) Nodes() []collector.NodeInfo {
	v.nodes++
	return v.View.Nodes()
}

// TestCheckReadsRegistryOnce: one evaluation reads the node registry
// once for all four rules, and a scripted run through every rule
// (node down and back, duty-cycle pressure, growing upload loss, a
// battery that drains and recharges) fires and resolves exactly the
// alerts the four-read engine did.
func TestCheckReadsRegistryOnce(t *testing.T) {
	c := newColl()
	v := &countingView{View: c}
	e := NewEngine(v, Config{HeartbeatTimeoutS: 90, LossWarnBatches: 3})
	seq := map[wire.NodeID]uint64{}
	send := func(b wire.Batch, skip uint64) {
		seq[b.Node] += 1 + skip
		b.SeqNo = seq[b.Node]
		if err := c.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	hb := func(node wire.NodeID, ts float64) []wire.Heartbeat {
		return []wire.Heartbeat{{TS: ts, Node: node, UptimeS: ts}}
	}
	stats := func(node wire.NodeID, ts, duty, batt float64) []wire.NodeStats {
		return []wire.NodeStats{{TS: ts, Node: node, DutyCycleUsed: duty,
			Energy: batt >= 0, BatteryFrac: max(batt, 0), BatteryV: 3 + 1.2*max(batt, 0)}}
	}
	var got []string
	for step := 0; step < 12; step++ {
		now := float64(60 * step)
		for node := wire.NodeID(1); node <= 4; node++ {
			if node == 2 && step >= 3 && step < 7 {
				continue // node 2 goes silent, then returns
			}
			duty, batt := 0.001, -1.0
			if node == 3 && step >= 2 && step < 5 {
				duty = 0.0095
			}
			if node == 4 {
				batt = []float64{0.9, 0.5, 0.15, 0.05, 0.1, 0.4, 0.8, 0.9, 0.9, 0.08, 0.5, 0.9}[step]
			}
			skip := uint64(0)
			if node == 1 && step%4 == 1 {
				skip = uint64(2 * step)
			}
			send(wire.Batch{Node: node, SentAt: now, Heartbeats: hb(node, now), Stats: stats(node, now, duty, batt)}, skip)
		}
		before := v.nodes
		for _, a := range e.Check(now + 30) {
			got = append(got, fmt.Sprintf("fire %v %v at %v: %s", a.Kind, a.Node, a.FiredAt, a.Message))
		}
		if n := v.nodes - before; n != 1 {
			t.Errorf("step %d: Check read Nodes %d times, want 1", step, n)
		}
	}
	for _, a := range e.History() {
		got = append(got, fmt.Sprintf("resolved %v %v at %v, fired at %v", a.Kind, a.Node, a.ResolvedAt, a.FiredAt))
	}
	for _, a := range e.Active() {
		got = append(got, fmt.Sprintf("active %v %v since %v", a.Kind, a.Node, a.FiredAt))
	}
	want := []string{
		"fire duty-cycle-pressure N0003 at 150: N0003 duty cycle 0.950% is 95% of the EU868 limit",
		"fire low-battery N0004 at 150: N0004 battery at 15% (3.18 V), below the 20% warning level",
		"fire node-down N0002 at 270: N0002 silent for 150s (last heartbeat at 120s)",
		"fire upload-loss N0001 at 330: N0001 has lost 12 upload batches in total",
		"fire upload-loss N0001 at 570: N0001 has lost 30 upload batches in total",
		"fire low-battery N0004 at 570: N0004 battery at 8% (3.10 V), below the 20% warning level",
		"resolved duty-cycle-pressure N0003 at 330, fired at 150",
		"resolved low-battery N0004 at 330, fired at 150",
		"resolved node-down N0002 at 450, fired at 270",
		"resolved upload-loss N0001 at 570, fired at 330",
		"resolved low-battery N0004 at 630, fired at 570",
		"active upload-loss N0001 since 570",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("alert transcript differs:\n got %q\nwant %q", got, want)
	}
}
