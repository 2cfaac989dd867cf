package mesh

import (
	"slices"
	"testing"
	"time"

	"lorameshmon/internal/phy"
	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
)

// TestHelloSupersededInQueue runs a 4-node line whose 1% duty cycle lets
// a router send a HELLO only every few 2 s rounds. A round that finds
// the router's previous HELLO still queued must replace it in place:
// the queue never holds two of the router's HELLOs, the one that goes
// on the air carries the latest round's sequence number and that
// round's table, HelloSuperseded counts every replaced round, and a
// supersede at an unchanged table size allocates nothing.
func TestHelloSupersededInQueue(t *testing.T) {
	sim := simkit.New(7)
	medium := radio.NewMedium(sim, testMediumConfig())
	cfg := Config{HelloInterval: 2 * time.Second, RouteTimeoutFactor: 30}
	var routers []*Router
	for i := 0; i < 4; i++ {
		rad, err := medium.AttachRadio(radio.ID(i+1),
			phy.Point{X: float64(i) * testSpacing}, phy.DefaultParams(), phy.EU868())
		if err != nil {
			t.Fatal(err)
		}
		routers = append(routers, NewRouter(sim, rad, cfg))
	}
	r := routers[1]

	ownHellos := func() int {
		n := 0
		for _, it := range r.queue {
			if it.pkt.Type == TypeHello && it.pkt.Src == r.ID() {
				n++
			}
		}
		return n
	}
	// Wrap the round to record what each one advertises and whether it
	// found a HELLO still queued.
	var rounds, replaced uint64
	var lastSeq uint16
	want := make(map[uint16][]RouteAd)
	r.hello = sim.NewTimer(func() {
		if r.queuedHello() >= 0 {
			replaced++
		}
		r.helloRound()
		rounds++
		lastSeq = r.seq
		want[r.seq] = r.buildAds()
		if n := ownHellos(); n != 1 {
			t.Fatalf("round %d leaves %d of the router's HELLOs queued, want 1", rounds, n)
		}
	})
	var sent uint64
	r.SetTap(Tap{PacketOut: func(p Packet, _ time.Duration) {
		if p.Type != TypeHello {
			return
		}
		sent++
		if p.Seq != lastSeq {
			t.Fatalf("HELLO sent with seq %d, latest round's is %d", p.Seq, lastSeq)
		}
		if !slices.Equal(p.Routes, want[p.Seq]) {
			t.Fatalf("HELLO seq %d advertises %v, its round built %v", p.Seq, p.Routes, want[p.Seq])
		}
	}})
	for _, rt := range routers {
		rt.Start()
	}
	sim.RunFor(10 * time.Minute)

	c := r.Counters()
	t.Logf("%d rounds: %d HELLOs sent, %d superseded", rounds, c.HelloSent, c.HelloSuperseded)
	if c.HelloSuperseded != replaced || replaced == 0 {
		t.Fatalf("HelloSuperseded = %d, rounds that found a HELLO queued = %d (want equal, > 0)", c.HelloSuperseded, replaced)
	}
	if got := c.HelloSent + c.HelloSuperseded + uint64(ownHellos()); got != rounds || c.HelloSent != sent {
		t.Fatalf("%d rounds, but sent %d (tap %d) + superseded %d + queued %d", rounds, c.HelloSent, sent, c.HelloSuperseded, ownHellos())
	}
	if r.Table().Len() != 3 {
		t.Fatalf("router 2 knows %d routes, want 3", r.Table().Len())
	}

	// Between events, with a HELLO queued and the table still, a round
	// reuses the queued HELLO's ads array.
	for r.queuedHello() < 0 {
		sim.RunFor(100 * time.Millisecond)
	}
	ads := r.queue[r.queuedHello()].pkt.Routes
	if allocs := testing.AllocsPerRun(100, r.helloRound); allocs != 0 {
		t.Fatalf("a supersede allocates %v times, want 0", allocs)
	}
	if got := r.queue[r.queuedHello()].pkt.Routes; &got[0] != &ads[0] {
		t.Fatal("the superseding round built its ads in a new array")
	}
}
