package agent

import (
	"math"
	"testing"
	"time"

	"lorameshmon/internal/mesh"
	"lorameshmon/internal/phy"
	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
	"lorameshmon/internal/uplink"
	"lorameshmon/internal/wire"
)

// testSink accumulates ingested batches like a collector would.
type testSink struct {
	batches []wire.Batch
}

func (s *testSink) Ingest(b wire.Batch) error {
	s.batches = append(s.batches, b)
	return nil
}

func (s *testSink) heartbeats(node wire.NodeID) []wire.Heartbeat {
	var out []wire.Heartbeat
	for _, b := range s.batches {
		if b.Node == node {
			out = append(out, b.Heartbeats...)
		}
	}
	return out
}

func (s *testSink) packets(node wire.NodeID) []wire.PacketRecord {
	var out []wire.PacketRecord
	for _, b := range s.batches {
		if b.Node == node {
			out = append(out, b.Packets...)
		}
	}
	return out
}

type rig struct {
	sim     *simkit.Sim
	sink    *testSink
	routers []*mesh.Router
	agents  []*Agent
	links   []*uplink.Sim
}

// newRig builds an n-node line mesh where every node runs an agent that
// reports into a shared sink.
func newRig(t *testing.T, seed int64, n int, acfg Config, ucfg uplink.SimConfig) *rig {
	t.Helper()
	sim := simkit.New(seed)
	mcfg := radio.DefaultConfig()
	mcfg.Channel = phy.FreeSpaceChannel()
	mcfg.Channel.PathLossExponent = 8
	mcfg.DeterministicDelivery = true
	medium := radio.NewMedium(sim, mcfg)
	r := &rig{sim: sim, sink: &testSink{}}
	for i := 0; i < n; i++ {
		rad, err := medium.AttachRadio(radio.ID(i+1),
			phy.Point{X: float64(i) * 16.5}, phy.DefaultParams(), phy.Unregulated())
		if err != nil {
			t.Fatal(err)
		}
		router := mesh.NewRouter(sim, rad, mesh.Config{})
		router.Start()
		link := uplink.NewSim(sim, r.sink, ucfg)
		a := New(sim, router, link, acfg)
		a.Start()
		r.routers = append(r.routers, router)
		r.agents = append(r.agents, a)
		r.links = append(r.links, link)
	}
	return r
}

func TestHeartbeatsFlowToSink(t *testing.T) {
	r := newRig(t, 1, 1, Config{}, uplink.SimConfig{})
	r.sim.RunFor(5 * time.Minute)
	hbs := r.sink.heartbeats(1)
	// 30s heartbeat over 5 min: initial + ~10 periodic, minus the tail
	// still buffered.
	if len(hbs) < 8 {
		t.Fatalf("heartbeats = %d, want >= 8", len(hbs))
	}
	for i := 1; i < len(hbs); i++ {
		if hbs[i].UptimeS < hbs[i-1].UptimeS {
			t.Fatal("heartbeat uptimes not monotonic")
		}
		if hbs[i].Firmware == "" {
			t.Fatal("heartbeat missing firmware")
		}
	}
}

func TestBatchSeqNosIncrease(t *testing.T) {
	r := newRig(t, 2, 1, Config{}, uplink.SimConfig{})
	r.sim.RunFor(5 * time.Minute)
	if len(r.sink.batches) < 2 {
		t.Fatalf("batches = %d", len(r.sink.batches))
	}
	for i := 1; i < len(r.sink.batches); i++ {
		if r.sink.batches[i].SeqNo != r.sink.batches[i-1].SeqNo+1 {
			t.Fatalf("batch seq gap: %d then %d",
				r.sink.batches[i-1].SeqNo, r.sink.batches[i].SeqNo)
		}
	}
}

func TestPacketEventsCaptured(t *testing.T) {
	r := newRig(t, 3, 2, Config{}, uplink.SimConfig{})
	r.sim.RunFor(5 * time.Minute) // converge
	if _, err := r.routers[0].Send(2, []byte("ping"), false); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(2 * time.Minute) // deliver + report

	var txData, rxData *wire.PacketRecord
	for _, p := range r.sink.packets(1) {
		if p.Event == wire.EventTx && p.Type == "DATA" {
			p := p
			txData = &p
		}
	}
	for _, p := range r.sink.packets(2) {
		if p.Event == wire.EventRx && p.Type == "DATA" {
			p := p
			rxData = &p
		}
	}
	if txData == nil {
		t.Fatal("no tx DATA record from node 1")
	}
	if rxData == nil {
		t.Fatal("no rx DATA record at node 2")
	}
	if txData.Src != 1 || txData.Dst != 2 || txData.AirtimeMS <= 0 {
		t.Fatalf("tx record = %+v", txData)
	}
	if !rxData.ForUs || rxData.RSSIdBm >= 0 || rxData.Seq != txData.Seq {
		t.Fatalf("rx record = %+v", rxData)
	}
	// Hello traffic must also be visible from both sides.
	helloSeen := false
	for _, p := range r.sink.packets(2) {
		if p.Event == wire.EventRx && p.Type == "HELLO" && p.Src == 1 {
			helloSeen = true
		}
	}
	if !helloSeen {
		t.Fatal("node 2 never reported receiving node 1's hellos")
	}
}

func TestStatsAndRouteSnapshotsReported(t *testing.T) {
	r := newRig(t, 4, 2, Config{}, uplink.SimConfig{})
	r.sim.RunFor(10 * time.Minute)
	var stats []wire.NodeStats
	var routes []wire.RouteSnapshot
	for _, b := range r.sink.batches {
		if b.Node == 1 {
			stats = append(stats, b.Stats...)
			routes = append(routes, b.Routes...)
		}
	}
	if len(stats) == 0 {
		t.Fatal("no NodeStats reported")
	}
	last := stats[len(stats)-1]
	if last.HelloSent == 0 || last.HelloRecv == 0 {
		t.Fatalf("stats missing hello counters: %+v", last)
	}
	if last.RouteCount != 1 {
		t.Fatalf("RouteCount = %d, want 1", last.RouteCount)
	}
	if last.AirtimeMS <= 0 {
		t.Fatal("stats missing airtime")
	}
	if len(routes) == 0 {
		t.Fatal("no route snapshots reported")
	}
	lastSnap := routes[len(routes)-1]
	if len(lastSnap.Routes) != 1 || lastSnap.Routes[0].Dst != 2 || lastSnap.Routes[0].Metric != 1 {
		t.Fatalf("route snapshot = %+v", lastSnap)
	}
}

// TestRouteSnapshotsSortedAndUnique: every route snapshot an agent
// reports lists each destination once, in ascending order — the form
// the collector diffs without copying.
func TestRouteSnapshotsSortedAndUnique(t *testing.T) {
	r := newRig(t, 7, 6, Config{}, uplink.SimConfig{})
	r.sim.RunFor(15 * time.Minute)
	widest := 0
	for _, b := range r.sink.batches {
		for _, s := range b.Routes {
			for i := 1; i < len(s.Routes); i++ {
				if s.Routes[i-1].Dst >= s.Routes[i].Dst {
					t.Fatalf("node %v snapshot at %v not sorted and unique: %+v", s.Node, s.TS, s.Routes)
				}
			}
			widest = max(widest, len(s.Routes))
		}
	}
	if widest < 3 {
		t.Fatalf("widest snapshot has %d routes; the check needs multi-hop tables", widest)
	}
}

// TestTelemetryAtRegisterResolution: agents ship link measurements at
// the SX127x's resolution — RSSI in whole dBm, SNR in 0.25 dB steps,
// route ages in whole seconds — while the router keeps the simulator's
// floats.
func TestTelemetryAtRegisterResolution(t *testing.T) {
	r := newRig(t, 7, 6, Config{}, uplink.SimConfig{})
	r.sim.RunFor(15 * time.Minute)
	onQuarter := func(f float64) bool { return f*4 == math.Trunc(f*4) }
	var entries, rx int
	for _, b := range r.sink.batches {
		for _, s := range b.Routes {
			for _, e := range s.Routes {
				entries++
				if e.AgeS != math.Trunc(e.AgeS) || !onQuarter(e.SNRdB) {
					t.Fatalf("node %v route entry %+v: age not whole seconds or SNR off the 0.25 dB grid", s.Node, e)
				}
			}
		}
		for _, p := range b.Packets {
			if p.Event != wire.EventRx {
				continue
			}
			rx++
			if p.RSSIdBm != math.Trunc(p.RSSIdBm) || !onQuarter(p.SNRdB) {
				t.Fatalf("node %v rx record RSSI %v SNR %v: off the register grid", p.Node, p.RSSIdBm, p.SNRdB)
			}
		}
	}
	if entries == 0 || rx == 0 {
		t.Fatalf("%d route entries and %d rx records shipped; the check needs both", entries, rx)
	}
	offGrid := 0
	for _, router := range r.routers {
		for _, route := range router.Table().Snapshot() {
			if !onQuarter(route.SNRdB) {
				offGrid++
			}
		}
	}
	if offGrid == 0 {
		t.Fatal("every routing-table SNR is on the 0.25 dB grid: the router's floats were rounded, or the rig cannot tell")
	}
}

func TestBufferingSurvivesOutage(t *testing.T) {
	run := func(disableBuffering bool) int {
		sim := simkit.New(9)
		sink := &testSink{}
		link := uplink.NewSim(sim, sink, uplink.SimConfig{})
		mcfg := radio.DefaultConfig()
		mcfg.DeterministicDelivery = true
		medium := radio.NewMedium(sim, mcfg)
		rad, _ := medium.AttachRadio(1, phy.Point{}, phy.DefaultParams(), phy.Unregulated())
		router := mesh.NewRouter(sim, rad, mesh.Config{})
		router.Start()
		a := New(sim, router, link, Config{DisableBuffering: disableBuffering})
		a.Start()
		// 10-minute outage in the middle of a 30-minute run.
		link.ScheduleOutage(simkit.Time(5*time.Minute), 10*time.Minute)
		sim.RunFor(30 * time.Minute)
		return len(sink.heartbeats(1))
	}
	buffered := run(false)
	unbuffered := run(true)
	// ~60 heartbeats total; buffering must recover nearly all, while
	// fire-and-forget loses the outage window (~20).
	if buffered < 55 {
		t.Fatalf("buffered heartbeats = %d, want nearly all (~60)", buffered)
	}
	if unbuffered > buffered-10 {
		t.Fatalf("unbuffered = %d vs buffered = %d: outage loss not visible",
			unbuffered, buffered)
	}
}

func TestOverflowDropPolicies(t *testing.T) {
	lastHB := func(dropNewest bool) (Counters, float64) {
		sim := simkit.New(11)
		sink := &testSink{}
		link := uplink.NewSim(sim, sink, uplink.SimConfig{})
		link.SetDown(true) // never recovers during the fill phase
		mcfg := radio.DefaultConfig()
		medium := radio.NewMedium(sim, mcfg)
		rad, _ := medium.AttachRadio(1, phy.Point{}, phy.DefaultParams(), phy.Unregulated())
		router := mesh.NewRouter(sim, rad, mesh.Config{})
		router.Start()
		a := New(sim, router, link, Config{
			BufferCap:  8,
			DropNewest: dropNewest,
			// Heartbeats every 10s fill the 8-slot buffer quickly.
			HeartbeatInterval: 10 * time.Second,
			StatsInterval:     time.Hour,
			RouteInterval:     time.Hour,
		})
		a.Start()
		sim.RunFor(10 * time.Minute)
		// Restore the link and let the buffer drain.
		link.SetDown(false)
		sim.RunFor(10 * time.Minute)
		hbs := sink.heartbeats(1)
		if len(hbs) == 0 {
			t.Fatal("no heartbeats after recovery")
		}
		return a.Counters(), hbs[0].TS
	}
	cOld, firstOld := lastHB(false)
	cNew, firstNew := lastHB(true)
	if cOld.OverflowDropped == 0 || cNew.OverflowDropped == 0 {
		t.Fatalf("no overflow recorded: %+v / %+v", cOld, cNew)
	}
	// Drop-oldest keeps recent records: the first delivered heartbeat is
	// late. Drop-newest preserves history: the first heartbeat is the
	// boot one.
	if firstNew != 0 {
		t.Fatalf("drop-newest first heartbeat TS = %v, want 0 (boot)", firstNew)
	}
	if firstOld == 0 {
		t.Fatal("drop-oldest kept the boot heartbeat; oldest not evicted")
	}
}

func TestRetryBackoffBoundsAttempts(t *testing.T) {
	sim := simkit.New(13)
	sink := &testSink{}
	link := uplink.NewSim(sim, sink, uplink.SimConfig{})
	link.SetDown(true)
	mcfg := radio.DefaultConfig()
	medium := radio.NewMedium(sim, mcfg)
	rad, _ := medium.AttachRadio(1, phy.Point{}, phy.DefaultParams(), phy.Unregulated())
	router := mesh.NewRouter(sim, rad, mesh.Config{})
	router.Start()
	a := New(sim, router, link, Config{RetryMin: 10 * time.Second, RetryMax: 2 * time.Minute})
	a.Start()
	sim.RunFor(30 * time.Minute)
	c := a.Counters()
	if c.BatchesFailed < 3 {
		t.Fatalf("BatchesFailed = %d, want a retry sequence", c.BatchesFailed)
	}
	// With exponential backoff capped at 2 min plus the 30s report tick,
	// 30 minutes admits well under 80 attempts (uncapped 30s cadence
	// would approach 60 from the ticker alone plus retries).
	if c.BatchesFailed > 40 {
		t.Fatalf("BatchesFailed = %d: backoff not applied", c.BatchesFailed)
	}
	if c.BatchesAcked != 0 {
		t.Fatal("acked batches on a dead link")
	}
}

func TestMaxBatchRecordsRespectedAndDrained(t *testing.T) {
	r := newRig(t, 14, 1, Config{
		MaxBatchRecords:   5,
		HeartbeatInterval: time.Second,
		StatsInterval:     time.Hour,
		RouteInterval:     time.Hour,
	}, uplink.SimConfig{})
	r.sim.RunFor(5 * time.Minute)
	total := 0
	for _, b := range r.sink.batches {
		if b.Len() > 5 {
			t.Fatalf("batch with %d records exceeds MaxBatchRecords", b.Len())
		}
		total += b.Len()
	}
	// ~300 heartbeats generated; nearly all must have shipped.
	if total < 280 {
		t.Fatalf("shipped records = %d, want ~300 (drain loop broken)", total)
	}
}

func TestDisablePacketCapture(t *testing.T) {
	r := newRig(t, 15, 2, Config{DisablePacketCapture: true}, uplink.SimConfig{})
	r.sim.RunFor(10 * time.Minute)
	if n := len(r.sink.packets(1)); n != 0 {
		t.Fatalf("packet records = %d with capture disabled", n)
	}
	if len(r.sink.heartbeats(1)) == 0 {
		t.Fatal("summaries must still flow with capture disabled")
	}
}

func TestStopHaltsReporting(t *testing.T) {
	r := newRig(t, 16, 1, Config{}, uplink.SimConfig{})
	r.sim.RunFor(2 * time.Minute)
	r.agents[0].Stop()
	if r.agents[0].Running() {
		t.Fatal("Running after Stop")
	}
	n := len(r.sink.batches)
	r.sim.RunFor(10 * time.Minute)
	if len(r.sink.batches) != n {
		t.Fatal("stopped agent kept uploading")
	}
	r.agents[0].Start()
	r.sim.RunFor(5 * time.Minute)
	if len(r.sink.batches) == n {
		t.Fatal("restarted agent never uploaded")
	}
}

func TestAgentCountersConsistent(t *testing.T) {
	r := newRig(t, 17, 2, Config{}, uplink.SimConfig{})
	r.sim.RunFor(10 * time.Minute)
	c := r.agents[0].Counters()
	if c.Captured == 0 || c.BatchesSent == 0 || c.BatchesAcked == 0 {
		t.Fatalf("counters = %+v", c)
	}
	if c.BatchesAcked > c.BatchesSent {
		t.Fatalf("acked %d > sent %d", c.BatchesAcked, c.BatchesSent)
	}
	if c.RecordsShipped+uint64(r.agents[0].BufferLen()) < c.Captured-c.OverflowDropped {
		t.Fatalf("records unaccounted: %+v, buffered %d", c, r.agents[0].BufferLen())
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg != DefaultConfig() {
		t.Fatalf("withDefaults = %+v", cfg)
	}
	c := Config{RetryMin: time.Minute, RetryMax: time.Second}.withDefaults()
	if c.RetryMax < c.RetryMin {
		t.Fatalf("RetryMax %v < RetryMin %v", c.RetryMax, c.RetryMin)
	}
}
