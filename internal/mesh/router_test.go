package mesh

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"lorameshmon/internal/phy"
	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
)

// testChannel is a steep, deterministic channel: with exponent 8 and the
// hard delivery threshold, nodes 16.5 m apart hear each other (+10 dB
// margin) while nodes two slots apart are far below the floor (-14 dB).
const testSpacing = 16.5

func testMediumConfig() radio.Config {
	cfg := radio.DefaultConfig()
	cfg.Channel = phy.FreeSpaceChannel()
	cfg.Channel.PathLossExponent = 8
	cfg.DeterministicDelivery = true
	return cfg
}

type testNet struct {
	sim     *simkit.Sim
	medium  *radio.Medium
	routers []*Router
}

// newLine builds an n-node line mesh with only-adjacent connectivity and
// starts every router.
func newLine(t *testing.T, seed int64, n int, cfg Config) *testNet {
	t.Helper()
	sim := simkit.New(seed)
	medium := radio.NewMedium(sim, testMediumConfig())
	net := &testNet{sim: sim, medium: medium}
	for i := 0; i < n; i++ {
		rad, err := medium.AttachRadio(radio.ID(i+1),
			phy.Point{X: float64(i) * testSpacing}, phy.DefaultParams(), phy.Unregulated())
		if err != nil {
			t.Fatal(err)
		}
		r := NewRouter(sim, rad, cfg)
		r.Start()
		net.routers = append(net.routers, r)
	}
	return net
}

func (n *testNet) converge(d time.Duration) { n.sim.RunFor(d) }

func TestTwoNodesDiscoverEachOther(t *testing.T) {
	net := newLine(t, 1, 2, Config{})
	net.converge(5 * time.Minute)
	for i, r := range net.routers {
		other := radio.ID(2 - i)
		route, ok := r.Table().Lookup(other)
		if !ok {
			t.Fatalf("node %d has no route to %v", i+1, other)
		}
		if route.Metric != 1 || route.NextHop != other {
			t.Fatalf("node %d route = %+v", i+1, route)
		}
	}
}

func TestLineConvergesToHopCounts(t *testing.T) {
	net := newLine(t, 2, 4, Config{})
	net.converge(10 * time.Minute)
	r0 := net.routers[0]
	for dst := 2; dst <= 4; dst++ {
		route, ok := r0.Table().Lookup(radio.ID(dst))
		if !ok {
			t.Fatalf("node 1 missing route to node %d", dst)
		}
		wantMetric := uint8(dst - 1)
		if route.Metric != wantMetric {
			t.Fatalf("route to node %d metric = %d, want %d", dst, route.Metric, wantMetric)
		}
		if route.NextHop != 2 {
			t.Fatalf("route to node %d via %v, want N0002", dst, route.NextHop)
		}
	}
}

func TestMultiHopDelivery(t *testing.T) {
	net := newLine(t, 3, 4, Config{})
	net.converge(10 * time.Minute)
	var got []byte
	var gotSrc radio.ID
	net.routers[3].OnReceive(func(src radio.ID, payload []byte, _ radio.RxInfo) {
		gotSrc = src
		got = append([]byte(nil), payload...)
	})
	payload := []byte("sensor reading 42")
	if _, err := net.routers[0].Send(4, payload, false); err != nil {
		t.Fatal(err)
	}
	net.converge(30 * time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered payload = %q, want %q", got, payload)
	}
	if gotSrc != 1 {
		t.Fatalf("delivered src = %v, want N0001", gotSrc)
	}
	// The two middle nodes forwarded exactly once each.
	if f := net.routers[1].Counters().Forwarded; f != 1 {
		t.Fatalf("node 2 forwarded = %d, want 1", f)
	}
	if f := net.routers[2].Counters().Forwarded; f != 1 {
		t.Fatalf("node 3 forwarded = %d, want 1", f)
	}
}

func TestTTLDecrementsPerHop(t *testing.T) {
	net := newLine(t, 4, 4, Config{})
	net.converge(10 * time.Minute)
	var lastTTL uint8
	net.routers[3].SetTap(Tap{PacketIn: func(p Packet, _ radio.RxInfo, forUs bool) {
		if p.Type == TypeData && forUs {
			lastTTL = p.TTL
		}
	}})
	if _, err := net.routers[0].Send(4, []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	net.converge(30 * time.Second)
	want := net.routers[0].Config().DefaultTTL - 2 // two forwards
	if lastTTL != want {
		t.Fatalf("TTL at destination = %d, want %d", lastTTL, want)
	}
}

func TestSendNoRouteBeforeConvergence(t *testing.T) {
	net := newLine(t, 5, 2, Config{})
	if _, err := net.routers[0].Send(2, []byte("x"), false); err != ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestSendValidation(t *testing.T) {
	net := newLine(t, 6, 2, Config{})
	net.converge(5 * time.Minute)
	if _, err := net.routers[0].Send(2, make([]byte, MaxPayload+1), false); err != ErrPayloadSize {
		t.Fatalf("oversize err = %v, want ErrPayloadSize", err)
	}
	net.routers[0].Stop()
	if _, err := net.routers[0].Send(2, []byte("x"), false); err != ErrStopped {
		t.Fatalf("stopped err = %v, want ErrStopped", err)
	}
}

func TestBroadcastDataIsSingleHop(t *testing.T) {
	net := newLine(t, 7, 3, Config{})
	net.converge(10 * time.Minute)
	recv := make([]int, 3)
	for i, r := range net.routers {
		i := i
		r.OnReceive(func(radio.ID, []byte, radio.RxInfo) { recv[i]++ })
	}
	if _, err := net.routers[0].Send(radio.Broadcast, []byte("hi all"), false); err != nil {
		t.Fatal(err)
	}
	net.converge(30 * time.Second)
	if recv[0] != 0 {
		t.Fatal("sender delivered its own broadcast")
	}
	if recv[1] != 1 {
		t.Fatalf("neighbour received %d, want 1", recv[1])
	}
	if recv[2] != 0 {
		t.Fatalf("two-hop node received broadcast %d times; broadcasts must be single-hop", recv[2])
	}
}

func TestDuplicateSuppression(t *testing.T) {
	net := newLine(t, 8, 2, Config{})
	net.converge(5 * time.Minute)
	delivered := 0
	net.routers[1].OnReceive(func(radio.ID, []byte, radio.RxInfo) { delivered++ })
	pkt := Packet{
		Type: TypeData, Src: 1, Dst: 2, Via: 2, Seq: 999, TTL: 5,
		Payload: []byte("dup"),
	}
	info := radio.RxInfo{At: net.sim.Now(), From: 1}
	net.routers[1].onFrame(radio.Frame{Payload: pkt, Bytes: pkt.Size()}, info)
	net.routers[1].onFrame(radio.Frame{Payload: pkt, Bytes: pkt.Size()}, info)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if net.routers[1].Counters().DupSuppressed != 1 {
		t.Fatalf("DupSuppressed = %d, want 1", net.routers[1].Counters().DupSuppressed)
	}
}

func TestReliableDeliveryAcked(t *testing.T) {
	net := newLine(t, 9, 3, Config{})
	net.converge(10 * time.Minute)
	failed := false
	net.routers[0].SetTap(Tap{DeliveryFailed: func(Packet) { failed = true }})
	if _, err := net.routers[0].Send(3, []byte("important"), true); err != nil {
		t.Fatal(err)
	}
	net.converge(2 * time.Minute)
	if net.routers[0].PendingAcks() != 0 {
		t.Fatal("ack still pending after delivery")
	}
	if failed {
		t.Fatal("reliable delivery reported failed despite ACK")
	}
	if net.routers[0].Counters().SendFailures != 0 {
		t.Fatal("SendFailures nonzero")
	}
	if net.routers[2].Counters().AckSent != 1 {
		t.Fatalf("destination AckSent = %d, want 1", net.routers[2].Counters().AckSent)
	}
}

func TestReliableRetriesThenFails(t *testing.T) {
	net := newLine(t, 10, 2, Config{})
	net.converge(5 * time.Minute)
	var failedPkt *Packet
	net.routers[0].SetTap(Tap{DeliveryFailed: func(p Packet) { failedPkt = &p }})
	// Destination dies after convergence; the route is still in the table.
	net.routers[1].Radio().SetDown(true)
	seq, err := net.routers[0].Send(2, []byte("void"), true)
	if err != nil {
		t.Fatal(err)
	}
	net.converge(5 * time.Minute)
	c := net.routers[0].Counters()
	if c.RetriesSpent != uint64(net.routers[0].Config().MaxRetries) {
		t.Fatalf("RetriesSpent = %d, want %d", c.RetriesSpent, net.routers[0].Config().MaxRetries)
	}
	if c.SendFailures != 1 {
		t.Fatalf("SendFailures = %d, want 1", c.SendFailures)
	}
	if failedPkt == nil || failedPkt.Seq != seq {
		t.Fatalf("DeliveryFailed packet = %+v, want seq %d", failedPkt, seq)
	}
	if net.routers[0].PendingAcks() != 0 {
		t.Fatal("pending ack leaked after giving up")
	}
}

func TestRouteExpiryAfterNodeDeath(t *testing.T) {
	net := newLine(t, 11, 2, Config{})
	net.converge(5 * time.Minute)
	if _, ok := net.routers[0].Table().Lookup(2); !ok {
		t.Fatal("precondition: no route before death")
	}
	net.routers[1].Radio().SetDown(true)
	net.routers[1].Stop()
	net.converge(net.routers[0].Config().RouteTimeout() + 2*net.routers[0].Config().HelloInterval)
	if _, ok := net.routers[0].Table().Lookup(2); ok {
		t.Fatal("route to dead node never expired")
	}
	if net.routers[0].Counters().RouteEvicted == 0 {
		t.Fatal("RouteEvicted not counted")
	}
}

func TestNodeRecoveryRestoresRoutes(t *testing.T) {
	net := newLine(t, 12, 3, Config{})
	net.converge(10 * time.Minute)
	mid := net.routers[1]
	mid.Radio().SetDown(true)
	net.converge(mid.Config().RouteTimeout() + 3*mid.Config().HelloInterval)
	if _, ok := net.routers[0].Table().Lookup(3); ok {
		t.Fatal("route through dead relay survived")
	}
	mid.Radio().SetDown(false)
	net.converge(10 * time.Minute)
	route, ok := net.routers[0].Table().Lookup(3)
	if !ok {
		t.Fatal("route not restored after relay recovery")
	}
	if route.NextHop != 2 || route.Metric != 2 {
		t.Fatalf("restored route = %+v", route)
	}
}

func TestQueueFullDropsExcess(t *testing.T) {
	net := newLine(t, 13, 2, Config{QueueCap: 4})
	net.converge(5 * time.Minute)
	dropped := 0
	net.routers[0].SetTap(Tap{PacketDropped: func(_ Packet, reason DropReason) {
		if reason == DropQueueFull {
			dropped++
		}
	}})
	errs := 0
	for i := 0; i < 10; i++ {
		if _, err := net.routers[0].Send(2, []byte{byte(i)}, false); err == ErrQueueFull {
			errs++
		}
	}
	if errs != 6 || dropped != 6 {
		t.Fatalf("queue-full errors = %d, tapped drops = %d, want 6 each", errs, dropped)
	}
	if net.routers[0].Counters().DropQueueFull != 6 {
		t.Fatalf("DropQueueFull = %d, want 6", net.routers[0].Counters().DropQueueFull)
	}
}

func TestHelloCarriesLearnedRoutes(t *testing.T) {
	net := newLine(t, 14, 3, Config{})
	net.converge(10 * time.Minute)
	seen := false
	net.routers[0].SetTap(Tap{PacketIn: func(p Packet, info radio.RxInfo, _ bool) {
		if p.Type == TypeHello && p.Src == 2 {
			for _, ad := range p.Routes {
				if ad.Addr == 3 && ad.Metric == 1 {
					seen = true
				}
			}
		}
	}})
	net.converge(3 * net.routers[0].Config().HelloInterval)
	if !seen {
		t.Fatal("node 2's hello never advertised its route to node 3")
	}
}

func TestCountersAfterTraffic(t *testing.T) {
	net := newLine(t, 15, 3, Config{})
	net.converge(10 * time.Minute)
	for i := 0; i < 5; i++ {
		if _, err := net.routers[0].Send(3, []byte("tick"), false); err != nil {
			t.Fatal(err)
		}
		net.converge(10 * time.Second)
	}
	c0 := net.routers[0].Counters()
	c1 := net.routers[1].Counters()
	c2 := net.routers[2].Counters()
	if c0.DataSent != 5 {
		t.Fatalf("DataSent = %d, want 5", c0.DataSent)
	}
	if c1.Forwarded != 5 {
		t.Fatalf("mid Forwarded = %d, want 5", c1.Forwarded)
	}
	if c2.Delivered != 5 {
		t.Fatalf("dst Delivered = %d, want 5", c2.Delivered)
	}
	if c0.HelloSent == 0 || c0.HelloRecv == 0 {
		t.Fatalf("hello counters zero: %+v", c0)
	}
	// The far node overhears nothing (out of range), but the middle node
	// overhears node 1's and node 3's unicasts addressed to each other?
	// In a line it only ever relays, so just sanity-check no negative-like
	// wrap and that queue high water was recorded.
	if c1.QueueHighWater == 0 {
		t.Fatal("QueueHighWater never recorded")
	}
}

func TestStopAndRestartRouter(t *testing.T) {
	net := newLine(t, 16, 2, Config{})
	net.converge(5 * time.Minute)
	r := net.routers[0]
	r.Stop()
	if r.Running() {
		t.Fatal("Running after Stop")
	}
	helloBefore := r.Counters().HelloSent
	net.converge(5 * time.Minute)
	if r.Counters().HelloSent != helloBefore {
		t.Fatal("stopped router kept sending hellos")
	}
	r.Start()
	net.converge(5 * time.Minute)
	if r.Counters().HelloSent == helloBefore {
		t.Fatal("restarted router never sent hellos")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []Counters {
		net := newLine(t, 77, 4, Config{})
		net.converge(10 * time.Minute)
		net.routers[0].Send(4, []byte("a"), true)
		net.routers[3].Send(1, []byte("b"), false)
		net.converge(5 * time.Minute)
		out := make([]Counters, len(net.routers))
		for i, r := range net.routers {
			out[i] = r.Counters()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at node %d:\n%+v\n%+v", i+1, a[i], b[i])
		}
	}
}

func TestPacketSizeAndValidate(t *testing.T) {
	data := Packet{Type: TypeData, Payload: make([]byte, 20)}
	if data.Size() != HeaderBytes+20 {
		t.Fatalf("data size = %d", data.Size())
	}
	hello := Packet{Type: TypeHello, Routes: make([]RouteAd, 3)}
	if hello.Size() != HeaderBytes+3*RouteAdBytes {
		t.Fatalf("hello size = %d", hello.Size())
	}
	ack := Packet{Type: TypeAck}
	if ack.Size() != HeaderBytes+AckBodyBytes {
		t.Fatalf("ack size = %d", ack.Size())
	}
	if err := (Packet{Type: 0}).Validate(); err == nil {
		t.Fatal("zero type accepted")
	}
	if err := (Packet{Type: TypeData, Payload: make([]byte, MaxPayload+1)}).Validate(); err == nil {
		t.Fatal("oversize payload accepted")
	}
	if err := (Packet{Type: TypeData, TTL: MaxTTL + 1}).Validate(); err == nil {
		t.Fatal("oversize TTL accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	def := DefaultConfig()
	if cfg != def {
		t.Fatalf("withDefaults() = %+v, want %+v", cfg, def)
	}
	custom := Config{HelloInterval: 10 * time.Second}.withDefaults()
	if custom.HelloInterval != 10*time.Second {
		t.Fatal("explicit value overridden")
	}
	if custom.RouteTimeout() != 35*time.Second {
		t.Fatalf("RouteTimeout = %v, want 35s", custom.RouteTimeout())
	}
}

func TestSplitHorizonIgnoresReflectedRoutes(t *testing.T) {
	net := newLine(t, 303, 2, Config{})
	net.converge(5 * time.Minute)
	// Node 2 advertises a fake route to node 9 that goes via node 1
	// itself; node 1 must ignore it (split horizon) or a two-node
	// counting loop forms.
	hello := Packet{
		Type: TypeHello, Src: 2, Dst: radio.Broadcast, Via: radio.Broadcast,
		Seq: 900, TTL: 1,
		Routes: []RouteAd{{Addr: 9, Metric: 2, Via: 1}},
	}
	net.routers[0].onFrame(radio.Frame{Payload: hello, Bytes: hello.Size()},
		radio.RxInfo{At: net.sim.Now(), From: 2, SNRdB: 5})
	if _, ok := net.routers[0].Table().Lookup(9); ok {
		t.Fatal("reflected route adopted despite split horizon")
	}
	// A legitimate ad (via some third node) is still accepted.
	hello.Seq = 901
	hello.Routes = []RouteAd{{Addr: 9, Metric: 2, Via: 5}}
	net.routers[0].onFrame(radio.Frame{Payload: hello, Bytes: hello.Size()},
		radio.RxInfo{At: net.sim.Now(), From: 2, SNRdB: 5})
	if _, ok := net.routers[0].Table().Lookup(9); !ok {
		t.Fatal("legitimate advertised route rejected")
	}
}

// TestHelloMergeMatchesPerAdUpdates feeds onHello ads in ascending,
// out-of-order and duplicated orders (plus self and split-horizon ads,
// and an energy penalty) and checks the one-pass merge leaves exactly
// the table that applying each ad in its own HELLO leaves.
func TestHelloMergeMatchesPerAdUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		merged := newLine(t, 1, 1, Config{EnergyAware: trial%3 == 0}).routers[0]
		perAd := newLine(t, 1, 1, Config{EnergyAware: trial%3 == 0}).routers[0]
		self := merged.ID()
		const src = radio.ID(7)
		var battery uint8
		if trial%2 == 0 {
			battery = EncodeBattery(rng.Float64())
		}
		hello := func(seq uint16, ads []RouteAd) Packet {
			return Packet{Type: TypeHello, Src: src, Dst: radio.Broadcast, Via: radio.Broadcast,
				Seq: seq, TTL: 1, Routes: ads, SrcBattery: battery}
		}
		info := radio.RxInfo{From: src, SNRdB: float64(rng.Intn(20) - 10)}
		// Identical prior state from another neighbour.
		for dst := radio.ID(2); dst < 40; dst++ {
			if dst != src && rng.Intn(2) == 0 {
				m, hop := uint8(1+rng.Intn(6)), radio.ID(3+rng.Intn(2))
				merged.table.Update(dst, hop, m, 0, 0)
				perAd.table.Update(dst, hop, m, 0, 0)
			}
		}
		var ads []RouteAd
		for i := rng.Intn(40); i > 0; i-- {
			ad := RouteAd{Addr: radio.ID(rng.Intn(45)), Metric: uint8(rng.Intn(MetricInf + 2))}
			if ad.Addr == src {
				continue // a neighbour never advertises itself
			}
			if rng.Intn(8) == 0 {
				ad.Via = self
			}
			ads = append(ads, ad)
		}
		switch trial % 4 {
		case 0, 1:
			sort.Slice(ads, func(i, j int) bool { return ads[i].Addr < ads[j].Addr })
			if trial%4 == 1 && len(ads) > 2 {
				i := rng.Intn(len(ads) - 1)
				ads[i], ads[len(ads)-1] = ads[len(ads)-1], ads[i]
			}
		case 2:
			rng.Shuffle(len(ads), func(i, j int) { ads[i], ads[j] = ads[j], ads[i] })
		}

		merged.onHello(hello(1, ads), info)
		perAd.onHello(hello(1, nil), info)
		for i, ad := range ads {
			perAd.onHello(hello(uint16(i+2), []RouteAd{ad}), info)
		}
		if got, want := merged.Table().Snapshot(), perAd.Table().Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged table\n %+v\nper-ad table\n %+v\nads %+v", trial, got, want, ads)
		}
		if got, want := merged.Counters().RouteChanges > 0, perAd.Counters().RouteChanges > 0; got != want {
			t.Fatalf("trial %d: merged changed=%v, per-ad changed=%v", trial, got, want)
		}
	}
}

// TestPumpRearmAllocationFree pins that arming and firing the transmit
// pump re-arms the router's one bound Timer instead of scheduling a new
// closure each time.
func TestPumpRearmAllocationFree(t *testing.T) {
	sim := simkit.New(1)
	medium := radio.NewMedium(sim, testMediumConfig())
	rad, err := medium.AttachRadio(1, phy.Point{}, phy.DefaultParams(), phy.Unregulated())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(sim, rad, Config{}) // not started: a fired pump finds nothing to do
	if allocs := testing.AllocsPerRun(1000, func() {
		r.schedulePump(time.Millisecond)
		r.schedulePump(0) // already armed: no second firing
		if !r.pumpArm || sim.Pending() != 1 {
			t.Fatalf("armed pump: pumpArm %v, %d events pending, want true and 1", r.pumpArm, sim.Pending())
		}
		sim.RunFor(time.Millisecond)
		if r.pumpArm {
			t.Fatal("pumpArm still set after the pump fired")
		}
	}); allocs != 0 {
		t.Fatalf("a pump re-arm allocates %v times, want 0", allocs)
	}
}
