//go:build go1.24

package mesh

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"lorameshmon/internal/radio"
)

// TestQueueSlotsReleased pins that a sent HELLO stops pinning its route
// ads: popQueue zeroes the slot it vacates, so the queue's backing
// array, still alive under the packets queued after it, does not keep
// the sent frame reachable.
func TestQueueSlotsReleased(t *testing.T) {
	// Five nodes give the middle one four ads, 24 bytes: above the
	// runtime's tiny-allocation size, whose batching could keep a dead
	// array alive beside a live one.
	net := newLine(t, 21, 5, Config{})
	net.converge(15 * time.Minute)
	r := net.routers[2]
	drainTo := func(n int) {
		for r.QueueLen() > n {
			net.sim.RunFor(10 * time.Millisecond)
		}
	}
	drainTo(0)
	hello := func() Packet {
		return Packet{Type: TypeHello, Src: 3, Dst: radio.Broadcast, Via: radio.Broadcast, Seq: r.nextSeq(), TTL: 1, Routes: r.buildAds()}
	}
	first := hello()
	if len(first.Routes) != 4 {
		t.Fatalf("middle node advertises %d routes after convergence, want 4", len(first.Routes))
	}
	ref := weak.Make(&first.Routes[0])
	// HELLOs queued behind the first keep the backing array alive after
	// it is popped. The radio holds a frame until it has been on the
	// air, so wait for the second to go out: a half-duplex radio starts
	// it only once the first is delivered.
	for _, p := range []Packet{first, hello(), hello(), hello()} {
		if err := r.enqueue(outItem{pkt: p}); err != nil {
			t.Fatal(err)
		}
	}
	first = Packet{}
	sent := r.Counters().HelloSent
	drainTo(2)
	if got := r.Counters().HelloSent - sent; got != 2 {
		t.Fatalf("%d HELLOs sent, want 2", got)
	}
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("a sent HELLO's ads are still reachable from the transmit queue")
	}
	runtime.KeepAlive(r) // the queue must be live at the GC above
}
