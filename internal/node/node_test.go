package node

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lorameshmon/internal/mesh"
	"lorameshmon/internal/phy"
	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
)

func buildPair(t *testing.T, seed int64) (*simkit.Sim, *Node, *Node) {
	t.Helper()
	sim := simkit.New(seed)
	cfg := radio.DefaultConfig()
	cfg.Channel = phy.FreeSpaceChannel()
	cfg.Channel.PathLossExponent = 8
	cfg.DeterministicDelivery = true
	medium := radio.NewMedium(sim, cfg)
	mk := func(id radio.ID, x float64) *Node {
		rad, err := medium.AttachRadio(id, phy.Point{X: x}, phy.DefaultParams(), phy.Unregulated())
		if err != nil {
			t.Fatal(err)
		}
		return New(sim, rad, mesh.NewRouter(sim, rad, mesh.Config{}), nil)
	}
	return sim, mk(1, 0), mk(2, 16.5)
}

func TestPeriodicTrafficDelivers(t *testing.T) {
	sim, a, b := buildPair(t, 1)
	err := a.AddTraffic(TrafficConfig{
		Dst: 2, Interval: time.Minute, PayloadBytes: 24,
		StartDelay: 3 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []radio.ID
	b.OnReceive(func(src radio.ID, payload []byte, _ radio.RxInfo) {
		if len(payload) != 24 {
			t.Errorf("payload len = %d", len(payload))
		}
		// After the latency stamp, the flow marker "<src>/<seq>",
		// zero-padded.
		marker := make([]byte, 24-latencyHeaderBytes)
		copy(marker, fmt.Sprintf("%v/%d", src, len(got)+1))
		if !bytes.Equal(payload[latencyHeaderBytes:], marker) {
			t.Errorf("flow marker = %q, want %q", payload[latencyHeaderBytes:], marker)
		}
		got = append(got, src)
	})
	a.Start()
	b.Start()
	sim.RunFor(30 * time.Minute)
	ca, cb := a.App(), b.App()
	if ca.Offered == 0 || ca.Enqueued == 0 {
		t.Fatalf("sender counters = %+v", ca)
	}
	// The final packet may still be queued when the run is cut off.
	if cb.Received < ca.Enqueued-1 {
		t.Fatalf("received %d, enqueued %d on a clean 1-hop link", cb.Received, ca.Enqueued)
	}
	if cb.RecvBytes != cb.Received*24 {
		t.Fatalf("RecvBytes = %d", cb.RecvBytes)
	}
	if len(got) == 0 || got[0] != 1 {
		t.Fatalf("receive callback sources = %v", got)
	}
}

func TestTrafficValidation(t *testing.T) {
	_, a, _ := buildPair(t, 2)
	if err := a.AddTraffic(TrafficConfig{Dst: 2}); err == nil {
		t.Fatal("zero interval accepted")
	}
	if err := a.AddTraffic(TrafficConfig{RandomDst: true, Interval: time.Second}); err == nil {
		t.Fatal("random dst without peers accepted")
	}
	if err := a.AddTraffic(TrafficConfig{Dst: 2, Interval: time.Second, PayloadBytes: mesh.MaxPayload + 1}); err == nil {
		t.Fatal("oversize payload accepted")
	}
}

func TestSendErrsCountedBeforeConvergence(t *testing.T) {
	sim, a, b := buildPair(t, 3)
	// Fire immediately, long before routing can converge.
	if err := a.AddTraffic(TrafficConfig{Dst: 2, Interval: 10 * time.Second, StartDelay: time.Second}); err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	sim.RunFor(30 * time.Second)
	c := a.App()
	if c.SendErrs == 0 {
		t.Fatalf("no send errors before convergence: %+v", c)
	}
	if c.Offered != c.Enqueued+c.SendErrs {
		t.Fatalf("counter identity broken: %+v", c)
	}
}

func TestFailAndRecover(t *testing.T) {
	sim, a, b := buildPair(t, 4)
	a.AddTraffic(TrafficConfig{Dst: 2, Interval: time.Minute, StartDelay: 3 * time.Minute})
	a.Start()
	b.Start()
	sim.RunFor(10 * time.Minute)
	received := b.App().Received
	if received == 0 {
		t.Fatal("no traffic before failure")
	}
	a.Fail()
	if a.Running() || !a.Radio().Down() {
		t.Fatal("Fail did not stop the node")
	}
	offered := a.App().Offered
	sim.RunFor(10 * time.Minute)
	if a.App().Offered != offered {
		t.Fatal("failed node kept generating traffic")
	}
	a.Recover()
	if !a.Running() || a.Radio().Down() {
		t.Fatal("Recover did not restart the node")
	}
	sim.RunFor(15 * time.Minute)
	if b.App().Received <= received {
		t.Fatal("no traffic after recovery")
	}
}

func TestPoissonTrafficRate(t *testing.T) {
	sim, a, b := buildPair(t, 5)
	a.AddTraffic(TrafficConfig{
		Dst: 2, Interval: 30 * time.Second, Poisson: true, StartDelay: 3 * time.Minute,
	})
	a.Start()
	b.Start()
	sim.RunFor(3*time.Minute + 100*30*time.Second)
	offered := a.App().Offered
	// Mean 100 fires; Poisson sd = 10. Accept ±4 sd.
	if offered < 60 || offered > 140 {
		t.Fatalf("poisson offered = %d, want ~100", offered)
	}
}

func TestRandomDstAvoidsSelf(t *testing.T) {
	sim, a, b := buildPair(t, 6)
	err := a.AddTraffic(TrafficConfig{
		RandomDst: true, Peers: []radio.ID{1, 2},
		Interval: 30 * time.Second, StartDelay: 3 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	sim.RunFor(30 * time.Minute)
	// All traffic should land on node 2 (self excluded).
	if b.App().Received == 0 {
		t.Fatal("node 2 received nothing")
	}
	if a.App().Received != 0 {
		t.Fatal("node 1 delivered to itself")
	}
}

func TestAddTrafficWhileRunning(t *testing.T) {
	sim, a, b := buildPair(t, 7)
	a.Start()
	b.Start()
	sim.RunFor(5 * time.Minute) // converge first
	if err := a.AddTraffic(TrafficConfig{Dst: 2, Interval: time.Minute}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(10 * time.Minute)
	if b.App().Received == 0 {
		t.Fatal("late-added traffic never flowed")
	}
}

func TestLatencyMeasured(t *testing.T) {
	sim, a, b := buildPair(t, 8)
	a.AddTraffic(TrafficConfig{Dst: 2, Interval: time.Minute, PayloadBytes: 24, StartDelay: 3 * time.Minute})
	a.Start()
	b.Start()
	sim.RunFor(30 * time.Minute)
	samples := b.Latencies()
	if len(samples) == 0 {
		t.Fatal("no latency samples")
	}
	for _, s := range samples {
		if s.Src != 1 {
			t.Fatalf("sample src = %v", s.Src)
		}
		// One hop at SF7 with a 24B payload is ~50ms airtime plus queue
		// and CSMA delays: well under a second, never non-positive.
		if s.Latency <= 0 || s.Latency > 5*time.Second {
			t.Fatalf("implausible latency %v", s.Latency)
		}
	}
	if a.Latencies() != nil && len(a.Latencies()) != 0 {
		t.Fatal("sender recorded latencies for packets it never received")
	}
}

func TestTinyPayloadSkipsStamp(t *testing.T) {
	sim, a, b := buildPair(t, 9)
	// 8-byte payloads cannot carry the 12-byte stamp; delivery must
	// still work and simply record no latency.
	a.AddTraffic(TrafficConfig{Dst: 2, Interval: time.Minute, PayloadBytes: 8, StartDelay: 3 * time.Minute})
	a.Start()
	b.Start()
	sim.RunFor(20 * time.Minute)
	if b.App().Received == 0 {
		t.Fatal("tiny payloads not delivered")
	}
	if len(b.Latencies()) != 0 {
		t.Fatal("unstamped payloads produced latency samples")
	}
}
