package alert

import (
	"testing"

	"lorameshmon/internal/collector"
	"lorameshmon/internal/tsdb"
	"lorameshmon/internal/wire"
)

func newColl() *collector.Collector {
	return collector.New(tsdb.New(), collector.DefaultConfig())
}

func beat(c *collector.Collector, node wire.NodeID, seq uint64, ts float64) {
	c.Ingest(wire.Batch{Node: node, SeqNo: seq, SentAt: ts,
		Heartbeats: []wire.Heartbeat{{TS: ts, Node: node, UptimeS: ts}}})
}

func TestNodeDownFiresAndResolves(t *testing.T) {
	c := newColl()
	beat(c, 1, 1, 10)
	e := NewEngine(c, Config{HeartbeatTimeoutS: 90})

	if fired := e.Check(50); len(fired) != 0 {
		t.Fatalf("fired too early: %+v", fired)
	}
	fired := e.Check(150)
	if len(fired) != 1 || fired[0].Kind != KindNodeDown || fired[0].Node != 1 {
		t.Fatalf("fired = %+v", fired)
	}
	if fired[0].Severity != SeverityCritical {
		t.Fatalf("severity = %v", fired[0].Severity)
	}
	// Still down: no duplicate alert.
	if again := e.Check(200); len(again) != 0 {
		t.Fatalf("duplicate alert: %+v", again)
	}
	if len(e.Active()) != 1 {
		t.Fatalf("active = %+v", e.Active())
	}
	// Node comes back: alert resolves into history.
	beat(c, 1, 2, 210)
	if resolved := e.Check(220); len(resolved) != 0 {
		t.Fatalf("resolution fired new alerts: %+v", resolved)
	}
	if len(e.Active()) != 0 {
		t.Fatal("alert still active after recovery")
	}
	hist := e.History()
	if len(hist) != 1 || !hist[0].Resolved || hist[0].ResolvedAt != 220 {
		t.Fatalf("history = %+v", hist)
	}
}

func TestNodeDownDetectionLatency(t *testing.T) {
	c := newColl()
	// Heartbeats every 30s until t=300, then silence (node dies).
	seq := uint64(0)
	for ts := 0.0; ts <= 300; ts += 30 {
		seq++
		beat(c, 1, seq, ts)
	}
	e := NewEngine(c, Config{HeartbeatTimeoutS: 90})
	var firedAt float64 = -1
	for now := 300.0; now <= 600; now += 10 {
		if fired := e.Check(now); len(fired) > 0 {
			firedAt = now
			break
		}
	}
	if firedAt < 0 {
		t.Fatal("node-down never fired")
	}
	// Death at ~300, timeout 90 ⇒ detection at the first check after 390.
	if firedAt < 390 || firedAt > 410 {
		t.Fatalf("detection at %v, want ~390-400", firedAt)
	}
}

func TestDutyCyclePressure(t *testing.T) {
	c := newColl()
	c.Ingest(wire.Batch{Node: 1, SeqNo: 1, SentAt: 100,
		Heartbeats: []wire.Heartbeat{{TS: 100, Node: 1}},
		Stats:      []wire.NodeStats{{TS: 100, Node: 1, DutyCycleUsed: 0.009}}})
	e := NewEngine(c, Config{HeartbeatTimeoutS: 1e9})
	fired := e.Check(100)
	if len(fired) != 1 || fired[0].Kind != KindDutyCycle {
		t.Fatalf("fired = %+v", fired)
	}
	// Pressure eases: resolve.
	c.Ingest(wire.Batch{Node: 1, SeqNo: 2, SentAt: 200,
		Stats: []wire.NodeStats{{TS: 200, Node: 1, DutyCycleUsed: 0.001}}})
	e.Check(200)
	if len(e.Active()) != 0 {
		t.Fatalf("duty alert did not resolve: %+v", e.Active())
	}
}

func TestUploadLossFiresOnGrowth(t *testing.T) {
	c := newColl()
	beat(c, 1, 1, 10)
	// Jump sequence to 10: 8 batches lost.
	beat(c, 1, 10, 20)
	e := NewEngine(c, Config{HeartbeatTimeoutS: 1e9, LossWarnBatches: 3})
	fired := e.Check(30)
	if len(fired) != 1 || fired[0].Kind != KindUploadLoss {
		t.Fatalf("fired = %+v", fired)
	}
	// No growth: silent.
	if again := e.Check(40); len(again) != 0 {
		t.Fatalf("re-fired without growth: %+v", again)
	}
	// Another big gap: re-fires.
	beat(c, 1, 20, 50)
	if again := e.Check(60); len(again) != 1 {
		t.Fatalf("no alert on renewed loss: %+v", again)
	}
}

func TestActiveSortedAndConfigDefaults(t *testing.T) {
	c := newColl()
	beat(c, 2, 1, 0)
	beat(c, 1, 1, 0)
	e := NewEngine(c, Config{})
	if e.Config() != DefaultConfig() {
		t.Fatalf("defaults = %+v", e.Config())
	}
	e.Check(1000) // both nodes down
	active := e.Active()
	if len(active) != 2 || active[0].Node != 1 || active[1].Node != 2 {
		t.Fatalf("active = %+v", active)
	}
}

// TestHistoryBounded: after more resolutions than HistoryLen, History
// holds exactly the newest HistoryLen of them, oldest first, and a
// caller's copy is not overwritten by later resolutions.
func TestHistoryBounded(t *testing.T) {
	c := newColl()
	e := NewEngine(c, Config{HeartbeatTimeoutS: 10})
	// Cycle k: node 1 beats at 100k, goes silent (fires at 100k+20),
	// and beats again at 100k+30, which resolves the alert.
	const cycles = HistoryLen + 57
	var early []Alert
	for k := 0; k < cycles; k++ {
		base := float64(100 * k)
		beat(c, 1, uint64(2*k+1), base)
		e.Check(base + 20)
		beat(c, 1, uint64(2*k+2), base+30)
		e.Check(base + 30)
		if k == HistoryLen-1 {
			early = e.History()
		}
	}
	hist := e.History()
	if len(hist) != HistoryLen {
		t.Fatalf("history holds %d alerts, want %d", len(hist), HistoryLen)
	}
	for i, a := range hist {
		base := float64(100 * (cycles - HistoryLen + i))
		if a.Kind != KindNodeDown || a.Node != 1 || !a.Resolved || a.FiredAt != base+20 || a.ResolvedAt != base+30 {
			t.Fatalf("history[%d] = %+v, want the node-down fired at %v and resolved at %v", i, a, base+20, base+30)
		}
	}
	if len(early) != HistoryLen || early[0].FiredAt != 20 || early[HistoryLen-1].FiredAt != float64(100*(HistoryLen-1)+20) {
		t.Fatalf("an earlier History copy changed: first %+v, last %+v", early[0], early[len(early)-1])
	}
}
