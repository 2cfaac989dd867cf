package agent

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"lorameshmon/internal/mesh"
	"lorameshmon/internal/phy"
	"lorameshmon/internal/radio"
	"lorameshmon/internal/simkit"
	"lorameshmon/internal/wire"
)

// stubUplink holds each batch's outcome until the test calls finish.
type stubUplink struct {
	last wire.Batch
	done func(error)
}

func (u *stubUplink) Send(b wire.Batch, done func(error)) { u.last, u.done = b, done }

func (u *stubUplink) finish(err error) {
	done := u.done
	u.done = nil
	done(err)
}

// newStubAgent starts a lone node's agent shipping through a stub
// uplink. Its periodic duties are an hour apart, so the test drives
// capture and flush itself.
func newStubAgent(t testing.TB, cfg Config) (*simkit.Sim, *Agent, *stubUplink) {
	t.Helper()
	sim := simkit.New(1)
	medium := radio.NewMedium(sim, radio.DefaultConfig())
	rad, err := medium.AttachRadio(1, phy.Point{}, phy.DefaultParams(), phy.Unregulated())
	if err != nil {
		t.Fatal(err)
	}
	router := mesh.NewRouter(sim, rad, mesh.Config{})
	up := &stubUplink{}
	cfg.ReportInterval, cfg.StatsInterval, cfg.RouteInterval, cfg.HeartbeatInterval = time.Hour, time.Hour, time.Hour, time.Hour
	a := New(sim, router, up, cfg)
	a.Start()
	return sim, a, up
}

var testPacket = mesh.Packet{Type: mesh.TypeData, Src: 1, Dst: 2, Via: 2, Seq: 7, TTL: 3, Payload: make([]byte, 12)}

// capture records n telemetry items cycling through all four kinds.
func capture(a *Agent, tap mesh.Tap, n int) {
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			tap.PacketOut(testPacket, 40*time.Millisecond)
		case 1:
			a.recordStats()
		case 2:
			tap.PacketIn(testPacket, radio.RxInfo{RSSIdBm: -97.3, SNRdB: 4.1, Airtime: 40 * time.Millisecond}, true)
		default:
			a.recordRoutes()
			a.recordHeartbeat()
		}
	}
}

// dirtySlots counts the slots outside r's live window that still hold
// a value.
func dirtySlots[T any](r *ring[T]) int {
	dirty := 0
	for i := range r.buf {
		if (i-r.head)&(len(r.buf)-1) >= r.n && !reflect.ValueOf(r.buf[i]).IsZero() {
			dirty++
		}
	}
	return dirty
}

func checkReleased(t *testing.T, when string, b *buffer) {
	t.Helper()
	if n := dirtySlots(&b.order) + dirtySlots(&b.pkts) + dirtySlots(&b.routes) + dirtySlots(&b.stats) + dirtySlots(&b.hbs); n != 0 {
		t.Fatalf("after %s: %d vacated buffer slots still hold a record", when, n)
	}
	if got := b.pkts.n + b.routes.n + b.stats.n + b.hbs.n; got != b.len() {
		t.Fatalf("after %s: kind rings hold %d records, order %d", when, got, b.len())
	}
}

// TestAgentBufferReleasesRecords: every slot the buffer vacates — on
// overflow (either policy), on flush and on a failed batch's requeue —
// is zeroed, so handed-off and evicted records (route snapshots, stats)
// are not kept reachable by the buffer's backing arrays.
func TestAgentBufferReleasesRecords(t *testing.T) {
	for _, dropNewest := range []bool{false, true} {
		sim, a, up := newStubAgent(t, Config{BufferCap: 12, MaxBatchRecords: 5, DropNewest: dropNewest})
		tap := a.tap()
		capture(a, tap, 14) // past the cap
		if a.Counters().OverflowDropped == 0 {
			t.Fatal("the buffer never overflowed")
		}
		checkReleased(t, "overflow", &a.buf)

		a.flush()
		checkReleased(t, "flush", &a.buf)
		capture(a, tap, 5) // fills the buffer while the batch is in flight
		up.finish(errors.New("lost"))
		if a.buf.len() != 12 {
			t.Fatalf("requeue left %d records, want the 12-record cap", a.buf.len())
		}
		checkReleased(t, "retry requeue", &a.buf)

		// Drain: the retry timer flushes first, then the test does.
		sim.RunFor(time.Minute)
		for i := 0; up.done != nil; i++ {
			if i > 20 {
				t.Fatal("buffer never drained")
			}
			up.finish(nil)
			checkReleased(t, "drain", &a.buf)
			a.flush()
		}
		if a.buf.len() != 0 {
			t.Fatalf("%d records left after draining", a.buf.len())
		}
	}
}

// TestBufferRequeueKeepsCaptureOrder: a failed batch's records return
// ahead of those captured while it was in flight, and the retry ships
// them in the same per-kind order as the first attempt.
func TestBufferRequeueKeepsCaptureOrder(t *testing.T) {
	sim, a, up := newStubAgent(t, Config{MaxBatchRecords: 6})
	tap := a.tap()
	capture(a, tap, 9)
	a.flush()
	first := up.last
	capture(a, tap, 4)
	up.finish(errors.New("lost"))
	sim.RunFor(time.Minute) // the retry timer flushes
	retried := up.last
	if retried.SeqNo == first.SeqNo || !reflect.DeepEqual(
		[]any{retried.Packets, retried.Routes, retried.Stats, retried.Heartbeats},
		[]any{first.Packets, first.Routes, first.Stats, first.Heartbeats}) {
		t.Fatalf("retry shipped %+v\nwant the records of %+v", retried, first)
	}
}

// TestCaptureAllocationFree: recording a packet, heartbeat or stats
// record allocates nothing, whether the buffer has room or is full and
// evicting.
func TestCaptureAllocationFree(t *testing.T) {
	for _, full := range []bool{false, true} {
		_, a, up := newStubAgent(t, Config{BufferCap: 64})
		tap := a.tap()
		capture(a, tap, 64)
		if !full {
			// Ship the records: the rings keep their slots.
			a.flush()
			up.finish(nil)
		}
		info := radio.RxInfo{RSSIdBm: -97.3, SNRdB: 4.1, Airtime: 40 * time.Millisecond}
		for name, f := range map[string]func(){
			"rx":        func() { tap.PacketIn(testPacket, info, true) },
			"tx":        func() { tap.PacketOut(testPacket, 40*time.Millisecond) },
			"drop":      func() { tap.PacketDropped(testPacket, mesh.DropNoRoute) },
			"heartbeat": a.recordHeartbeat,
			"stats":     a.recordStats,
		} {
			if n := testing.AllocsPerRun(3, f); n != 0 {
				t.Errorf("full=%v: %s capture allocates %v times", full, name, n)
			}
		}
	}
}

// TestFlushAllocationBound: a flush allocates one exact-size slice per
// record kind in the batch and nothing per record. (A route snapshot
// allocates its entries when it is recorded; this node's table is
// empty.)
func TestFlushAllocationBound(t *testing.T) {
	_, a, up := newStubAgent(t, Config{})
	tap := a.tap()
	capture(a, tap, 40)
	a.flush()
	up.finish(nil)
	for _, n := range []int{4, 40, 200} {
		allocs := testing.AllocsPerRun(20, func() {
			capture(a, tap, n)
			a.flush()
			up.finish(nil)
		})
		if allocs > float64(numKinds) {
			t.Fatalf("capturing and flushing %d records allocates %v times, want at most %d", n, allocs, numKinds)
		}
		b := up.last
		if cap(b.Packets) != len(b.Packets) || cap(b.Stats) != len(b.Stats) || cap(b.Routes) != len(b.Routes) || cap(b.Heartbeats) != len(b.Heartbeats) {
			t.Fatalf("batch slices not exact-size: %d/%d %d/%d %d/%d %d/%d",
				len(b.Packets), cap(b.Packets), len(b.Stats), cap(b.Stats), len(b.Routes), cap(b.Routes), len(b.Heartbeats), cap(b.Heartbeats))
		}
	}
}

func BenchmarkAgentFlush(b *testing.B) {
	_, a, up := newStubAgent(b, Config{})
	tap := a.tap()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		capture(a, tap, 32)
		a.flush()
		up.finish(nil)
	}
}
